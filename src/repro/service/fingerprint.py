"""Canonical fingerprints of array-comprehension compilations.

A fingerprint identifies one *compilation*, not one source text: two
requests with the same fingerprint are guaranteed to produce the same
generated source and the same report, so the fingerprint is a safe
cache key.  It is computed over:

* the **§6-normalized loop IR** of the comprehension (the same form
  the dependence tests consume), serialized canonically — whitespace
  never reaches the IR, and every bound name (the array's own name,
  generator indices, clause-``let`` and lambda binders) is replaced by
  a positional id, so alpha-renaming the source does not change the
  fingerprint.  Free names (size parameters, input arrays, environment
  functions) are kept verbatim: renaming *those* changes meaning;
* the size ``params`` (they reach trip counts, bounds, and emitted
  constants);
* the :class:`~repro.codegen.emit.CodegenOptions` (``None`` keys as
  ``CodegenOptions()``, the same request);
* the forced strategy, the compilation mode (monolithic / in-place /
  bigupd), and the old-array name for in-place requests;
* a **pipeline version salt** — bump :data:`PIPELINE_SALT` whenever a
  change anywhere in the pipeline can alter generated source or
  reports, and every cached artifact (memory and disk) is invalidated
  at once.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Mapping, Optional

from repro.codegen.emit import CodegenOptions
from repro.comprehension.build import (
    BuildError,
    build_array_comp,
    find_array_comp,
)
from repro.comprehension.loopir import ArrayComp, LoopNest, SVClause
from repro.lang import ast
from repro.lang.parser import parse_expr

#: Version salt mixed into every fingerprint.  Bump the trailing
#: counter when the pipeline's output (source or report) can change.
#: /2: unified compile() facade, normalized reports, parallel backend.
#: /3: program compiler, buffer-reuse codegen (the '.reuse' slot
#:     changed every thunkless emitter's output).
#: /4: cross-binding loop fusion (program plans may elide bindings, so
#:     every cached program artifact predating the pass is stale).
#: /5: backend registry + native C tier (CodegenOptions grew a
#:     ``backend`` field, reports grew backend entries, and the salt
#:     also keys the native ``.so`` cache — one bump retires both).
#: /6: distribution planning (IteratePlan grew a ``dist`` plan,
#:     ProgramReport a ``dist`` area; cached program artifacts
#:     predating the planner cannot carry either).
#: /7: subscript-property analysis (indirect writes now compile to
#:     guarded dual-schedule kernels or statically proven unchecked
#:     scatters; Report grew a ``subscripts`` field and generated
#:     sources a runtime-verifier preamble).
#: /8: cache-blocked tiling + out-of-core streaming (CodegenOptions
#:     grew a ``tile`` field that changes emitted loop nests, Report
#:     grew a ``tiling`` plan, IteratePlan an ``ooc`` plan, and
#:     generated sources a tile-counter hook).
#: /9: native sweep loops (C split-plan kernels loop over the sweeps
#:     and fold the convergence test themselves; IteratePlan grew
#:     ``native_sweeps`` and the wrapper a ``'.sweeps'`` slot).
#: /10: out-of-core plans carry the dist block kernel (§10-vectorized,
#:     tile-relative stores through a ``'.dst_row0'`` slot) instead of
#:     a scalar kernel storing by absolute index, and §10 vector
#:     clauses keep only correctly rounded intrinsics.
#: /11: one pass list for every strategy: in-place and bigupd updates
#:     through an index array compile to a whole copy with bounds +
#:     exact-int checks on their indirect stores, and dependence edges
#:     come out in sorted (hash-seed independent) order.
#: /12: double-buffered python steps carry a one-block plan
#:     (IteratePlan grew ``block``; DistKernel ``scalar_loops``) unless
#:     a clause may raise where numpy would not, and a C-lowered step
#:     or a planned out-of-core placement plans no dist blocks.
#: /13: the thread-chunk path is gone: generated python modules stop
#:     importing its helper and ``CodegenOptions`` lost its thread
#:     count; dist plans lost the wavefront fields (``DistKernel``
#:     guards rows by a flag); a float trap refuses the dist and
#:     out-of-core placements too.
#: /14: §10 vectorization takes whole perfect nests (one rank-k slice
#:     assignment per clause on N-D views) and hoists nest-invariant
#:     guards; a float trap keeps a clause off every vector path; the
#:     block kernel is emitted in block form (literal output bounds,
#:     input lows read without ``Bounds.dims``).
#: /15: ``parallel`` folded into ``vectorize`` (the vectorizer sweeps
#:     planned (1,1) wavefronts, takes the guarded kernel's fast path
#:     and keeps any checked unit scalar), python loops are never
#:     blocked (``tile=`` on python is a reasoned fallback, or the
#:     out-of-core rows), the C wrapper binds input lows through
#:     ``Bounds.lows``, and ProgramReport grew an ``ooc`` list.
#: /16: every options object gets the checks the analysis asks for
#:     (``None`` is ``CodegenOptions()``), a non-python backend plans
#:     the same guarded kernel and checks as python, and generated
#:     python modules no longer import ``count_runtime``.
PIPELINE_SALT = "repro-pipeline/16"


# ----------------------------------------------------------------------
# Canonical serialization of surface expressions.


def _bind(env: Dict[str, str], name: str, counter: List[int]) -> str:
    """Assign the next positional id to ``name`` in ``env``."""
    ident = f"%{counter[0]}"
    counter[0] += 1
    env[name] = ident
    return ident


def _canon(node: Optional[ast.Node], env: Mapping[str, str],
           counter: List[int]) -> str:
    if node is None:
        return "()"
    if isinstance(node, ast.Lit):
        return f"(lit {type(node.value).__name__} {node.value!r})"
    if isinstance(node, ast.Var):
        return f"(var {env.get(node.name, node.name)})"
    if isinstance(node, ast.Lam):
        inner = dict(env)
        ids = [_bind(inner, p, counter) for p in node.params]
        return f"(lam ({' '.join(ids)}) {_canon(node.body, inner, counter)})"
    if isinstance(node, ast.Let):
        inner = dict(env)
        ids = [_bind(inner, b.name, counter) for b in node.binds]
        # letrec/letrec* bindings see each other; plain let does not.
        bind_env = inner if node.kind != "let" else env
        binds = " ".join(
            f"(bind {ident} {_canon(b.expr, bind_env, counter)})"
            for ident, b in zip(ids, node.binds)
        )
        return (
            f"(let {node.kind} ({binds}) "
            f"{_canon(node.body, inner, counter)})"
        )
    if isinstance(node, (ast.Comp, ast.NestedComp)):
        tag = "comp" if isinstance(node, ast.Comp) else "nestedcomp"
        inner = dict(env)
        quals = []
        for qual in node.quals:
            if isinstance(qual, ast.Generator):
                source = _canon(qual.source, inner, counter)
                quals.append(f"(gen {_bind(inner, qual.var, counter)} "
                             f"{source})")
            elif isinstance(qual, ast.Guard):
                quals.append(f"(guard {_canon(qual.cond, inner, counter)})")
            elif isinstance(qual, ast.LetQual):
                binds = []
                for b in qual.binds:
                    expr = _canon(b.expr, inner, counter)
                    binds.append(f"(bind {_bind(inner, b.name, counter)} "
                                 f"{expr})")
                quals.append(f"(letq {' '.join(binds)})")
            else:  # future qualifier kinds: fall through generically
                quals.append(_canon(qual, inner, counter))
        head = node.head if isinstance(node, ast.Comp) else node.body
        return (f"({tag} ({' '.join(quals)}) "
                f"{_canon(head, inner, counter)})")
    # Generic structural case (App, BinOp, If, Index, EnumSeq, ...):
    # serialize every dataclass field in declaration order.
    parts = [type(node).__name__.lower()]
    for name in node.__dataclass_fields__:
        if name == "pos":
            continue
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            parts.append(_canon(value, env, counter))
        elif isinstance(value, (list, tuple)):
            items = " ".join(
                _canon(v, env, counter) if isinstance(v, ast.Node)
                else repr(v)
                for v in value
            )
            parts.append(f"[{items}]")
        else:
            parts.append(repr(value))
    return "(" + " ".join(parts) + ")"


def canonical_expr(node, env: Optional[Mapping[str, str]] = None) -> str:
    """Canonical S-expression of an AST (or source text).

    Positions are ignored; bound variables are numbered by binding
    order, so alpha-equivalent expressions serialize identically.
    """
    if isinstance(node, str):
        node = parse_expr(node)
    return _canon(node, dict(env or {}), [0])


# ----------------------------------------------------------------------
# Canonical serialization of the normalized loop IR.


def _canon_affine(affine, norm_ids: Mapping[str, str]) -> str:
    terms = sorted(
        (norm_ids.get(var, var), coeff)
        for var, coeff in affine.coeffs.items()
    )
    body = " ".join(f"({var} {coeff})" for var, coeff in terms)
    return f"(aff {affine.const} {body})"


def _canon_subscripts(subscripts, subscript_ast, env, norm_ids) -> str:
    if subscripts is not None:
        return "[" + " ".join(
            _canon_affine(a, norm_ids) for a in subscripts
        ) + "]"
    # Non-affine: fall back to the canonical subscript expression.
    return f"(opaque {_canon(subscript_ast, env, [0])})"


def canonical_comp(comp: ArrayComp) -> str:
    """Canonical serialization of a §6-normalized :class:`ArrayComp`.

    Loop variables are replaced by preorder ids ``%L0, %L1, ...`` (both
    the surface names in value/guard ASTs and the normalized names
    inside affine subscripts), and the comprehension's own name by
    ``%self``, so the result is invariant under any consistent renaming
    of bound identifiers.
    """
    loop_ids: Dict[int, str] = {}
    norm_ids: Dict[str, str] = {}
    for k, loop in enumerate(comp.iter_loops()):
        loop_ids[id(loop)] = f"%L{k}"
        norm_ids[loop.info.var] = f"%L{k}"
    base_env: Dict[str, str] = {}
    if comp.name:
        base_env[comp.name] = "%self"

    def canon_clause(clause: SVClause, env: Mapping[str, str]) -> str:
        counter = [0]
        inner = dict(env)
        lets = []
        for b in clause.lets:
            expr = _canon(b.expr, inner, counter)
            lets.append(f"(bind {_bind(inner, b.name, counter)} {expr})")
        subs = _canon_subscripts(
            clause.subscripts, clause.subscript_ast, inner, norm_ids
        )
        guards = " ".join(
            _canon(g, inner, counter) for g in clause.guards
        )
        value = _canon(clause.value, inner, counter)
        return (f"(clause subs={subs} lets=({' '.join(lets)}) "
                f"guards=({guards}) value={value})")

    def canon_entity(entity, env: Mapping[str, str]) -> str:
        if isinstance(entity, LoopNest):
            lid = loop_ids[id(entity)]
            counter = [0]
            start = _canon(entity.start, env, counter)
            stop = _canon(entity.stop, env, counter)
            inner = dict(env)
            inner[entity.var] = lid
            children = " ".join(
                canon_entity(child, inner) for child in entity.children
            )
            return (f"(loop {lid} step={entity.step} "
                    f"count={entity.info.count} start={start} "
                    f"stop={stop} ({children}))")
        return canon_clause(entity, env)

    counter = [0]
    bounds = _canon(comp.bounds_ast, base_env, counter)
    roots = " ".join(canon_entity(root, base_env) for root in comp.roots)
    return (f"(arraycomp rank={comp.rank} bounds={bounds} "
            f"concrete={comp.bounds!r} ({roots}))")


# ----------------------------------------------------------------------
# The fingerprint proper.


def _options_key(options) -> str:
    options = options or CodegenOptions()
    return repr(sorted(dataclasses.asdict(options).items()))


#: Facade strategies -> the mode named in the key text (``monolithic``
#: for arrays, so monolithic keys keep their long-standing spelling).
_STRATEGY_MODES = {
    "array": "monolithic",
    "inplace": "inplace",
    "bigupd": "bigupd",
    "accum": "accum",
}


def _canonical_request(expr, params, mode: str,
                       old_array: Optional[str]):
    """Canonicalize one request's comprehension (mode-dispatched).

    Returns ``(comp_serial, old_array)`` — ``bigupd`` reads its old
    array from the source, so the effective old name is part of the
    canonical form for every in-place-family mode.
    """
    if mode == "bigupd":
        from repro.core.pipeline import find_bigupd

        old_name, pairs_ast = find_bigupd(expr)
        comp = build_array_comp("", None, pairs_ast, params)
        return canonical_comp(comp), old_name
    if mode == "accum":
        from repro.core.accum import find_accum_array

        try:
            name, f_ast, init_ast, bounds_ast, pairs_ast = \
                find_accum_array(expr)
        except ValueError as exc:
            raise BuildError(str(exc)) from exc
        comp = build_array_comp(name, bounds_ast, pairs_ast, params)
        serial = (
            f"(accum f={canonical_expr(f_ast)} "
            f"init={canonical_expr(init_ast)} {canonical_comp(comp)})"
        )
        return serial, old_array
    # monolithic and inplace share the plain array-comp shape.
    name, bounds_ast, pairs_ast = find_array_comp(expr)
    comp = build_array_comp(name, bounds_ast, pairs_ast, params)
    return canonical_comp(comp), old_array


def fingerprint(
    src,
    params: Optional[Dict] = None,
    options=None,
    force_strategy: Optional[str] = None,
    strategy: str = "array",
    old_array: Optional[str] = None,
    salt: str = PIPELINE_SALT,
) -> str:
    """SHA-256 cache key for one compilation request.

    ``src`` may be source text or a parsed AST; ``strategy`` is a
    facade strategy name (``array``/``inplace``/``bigupd``/``accum``,
    or ``auto`` to detect it the way ``repro.compile`` does).  Raises
    the same front-end errors the pipeline itself would raise on this
    input (parse errors,
    :class:`~repro.comprehension.build.BuildError`), so a fingerprint
    failure never masks a compile failure.
    """
    expr = parse_expr(src) if isinstance(src, str) else src
    if strategy == "auto":
        from repro.core.pipeline import detect_strategy

        strategy = "inplace" if old_array is not None \
            else detect_strategy(expr)
    if strategy not in _STRATEGY_MODES:
        raise ValueError(f"unknown strategy {strategy!r}")
    mode = _STRATEGY_MODES[strategy]
    comp_serial, old_array = _canonical_request(
        expr, params, mode, old_array
    )
    parts = [
        f"salt={salt}",
        f"mode={mode}",
        f"old={old_array or ''}",
        f"strategy={force_strategy or 'auto'}",
        f"options={_options_key(options)}",
        f"params={sorted((params or {}).items())!r}",
        f"comp={comp_serial}",
    ]
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()


def fingerprint_program(
    src,
    params: Optional[Dict] = None,
    options=None,
    result: Optional[str] = None,
    fuse: bool = True,
    salt: str = PIPELINE_SALT,
    dist: bool = False,
    workers: int = 0,
    ooc: bool = False,
) -> str:
    """SHA-256 cache key for one whole-program compilation request.

    ``src`` may be program source text or a parsed binding list.  All
    top-level names are pre-bound to positional ids (program bindings
    are letrec-like: order-free, mutually visible), so alpha-renaming
    the bindings — including the result binding — does not change the
    key, while renaming free names (parameters, input arrays) does.
    The requested ``result`` is resolved to its positional id for the
    same reason.  ``dist``/``workers`` key the distribution plan: the
    block windows (and therefore IteratePlan.dist) depend on the
    worker count.  ``ooc`` keys the out-of-core streaming plan the
    same way (tile windows ride IteratePlan.ooc).
    """
    from repro.lang.parser import parse_program

    binds = parse_program(src) if isinstance(src, str) else list(src)
    env: Dict[str, str] = {}
    counter = [0]
    for bind in binds:
        _bind(env, bind.name, counter)
    serial = " ".join(
        f"(tbind {env[bind.name]} {_canon(bind.expr, env, counter)})"
        for bind in binds
    )
    if result is None:
        names = {bind.name for bind in binds}
        result = "main" if "main" in names else binds[-1].name
    parts = [
        f"salt={salt}",
        "mode=program",
        f"fuse={bool(fuse)}",
        f"dist={bool(dist)}:{int(workers) if dist else 0}",
        f"ooc={bool(ooc)}",
        f"result={env.get(result, result)}",
        f"options={_options_key(options)}",
        f"params={sorted((params or {}).items())!r}",
        f"program=({serial})",
    ]
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()
