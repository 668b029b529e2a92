"""Subscript-property analysis for indirect (subscripted-subscript) writes.

The paper's machinery — collision analysis (§7), empties analysis
(§4), dependence testing (§6) — assumes affine write subscripts.  Real
scientific traffic is full of ``a[idx[i]]`` permutation scatters,
histogram accumulation, and CSR-style sparse kernels, all of which
write through an *index array* and are opaque to the affine tests.

Following "Compile-time Parallelization of Subscripted Subscript
Patterns" (Bhosale & Eigenmann), this pass classifies each index array
appearing in a write position on a small property lattice:

* **injective** — no two cells hold the same value (a permutation when
  additionally total): two writes through it collide only if their
  *inner* subscripts coincide, so collision analysis reduces to the
  affine tests over the inner expressions;
* **monotone** — values are strictly increasing (or decreasing) in
  cell order (CSR row pointers);
* **bounded** — every value falls inside the written dimension's
  bounds, so the §4 in-bounds obligation holds;
* **total** — injective + bounded + as many cells as target elements:
  the values are a permutation of the whole dimension (empties elided).

Each property is **proven statically** when the index array's own
comprehension is visible (a whole-program compile passes sibling
``ArrayComp``s in) and its value is an affine function of the loop
indices — e.g. ``p = array (1,n) [ i := n+1-i | i <- [1..n] ]``.
Otherwise the property is **runtime-verifiable**: codegen emits a
guarded kernel whose O(n) verifier (:func:`repro.codegen.support.
verify_subscripts`) checks int-ness, bounds, and (when needed)
duplicates over the index array at call time, picking the unchecked
fast path (vectorized under ``vectorize``) on success and the fully
checked serial fallback otherwise.  Verification over the *whole* index array is
deliberately conservative: it can only send valid-but-exotic inputs
(duplicates outside the read range) down the slower checked path,
never change a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.comprehension.loopir import ArrayComp, SVClause
from repro.core.affine import Affine, NonAffineError, affine_from_ast
from repro.lang import ast

#: Property provenance.
STATIC = "static"      # proven from the index array's own comprehension
RUNTIME = "runtime"    # checkable by the O(n) verifier at call time
NONE = "none"          # not even runtime-checkable (e.g. opaque inner)


@dataclass
class IndirectWrite:
    """One write dimension of the form ``idx ! inner``.

    ``inner`` is the inner subscript as an affine form over the
    clause's *normalized* loop indices (``None`` when the inner
    expression itself is not affine — nothing can be reduced then).
    """

    clause: SVClause
    dim: int
    index_array: str
    inner: Optional[Affine]
    inner_ast: ast.Node = field(repr=False, default=None)

    def __repr__(self):
        return (f"IndirectWrite({self.clause.label} dim {self.dim}: "
                f"{self.index_array}!{self.inner!r})")


@dataclass
class IndexProperty:
    """Classification of one index array used in write positions.

    ``None`` for a property means *unknown* (the runtime verifier can
    still establish it); ``False`` means disproven.
    """

    array: str
    injective: Optional[bool] = None
    monotone: Optional[bool] = None
    bounded: Optional[bool] = None
    total: Optional[bool] = None
    source: str = RUNTIME
    reason: str = ""

    def describe(self) -> str:
        def show(value):
            if value is None:
                return "unknown"
            return "yes" if value else "no"

        return (f"{self.array}: injective={show(self.injective)}, "
                f"monotone={show(self.monotone)}, "
                f"bounded={show(self.bounded)}, "
                f"total={show(self.total)} [{self.source}] "
                f"— {self.reason}")


@dataclass
class VerifySpec:
    """One index array the generated kernel must verify at call time.

    ``inner_lo``/``inner_hi`` is the static range of inner subscripts
    the comprehension reads (so the kernel can check, in O(1), that the
    reads stay inside the index array — ruling out Python's silent
    negative-index wrap before trusting the scan).  ``lo``/``hi`` name
    the written output dimension whose bounds gate the values.
    """

    array: str
    dim: int
    need_injective: bool
    inner_lo: int
    inner_hi: int


@dataclass
class GuardPlan:
    """The dual-schedule contract for one guarded kernel.

    The fast path runs with every per-write check elided (the verifier
    established the properties wholesale); the fallback path replays
    the loops with bounds + collision + definedness checks compiled in,
    so a bad index array fails loudly with the same error the lazy
    oracle raises — never a silent wrap or a raw ``IndexError``.
    """

    verify: Tuple[VerifySpec, ...]
    mode: str  # 'scatter' | 'accum'
    #: clause.index -> {dim position -> index array name}; drives the
    #: fallback path's non-int rejection (``as_index``).
    indirect_dims: Dict[int, Dict[int, str]] = field(default_factory=dict)


@dataclass
class SubscriptReport:
    """Everything the subscript-property pass decided."""

    writes: List[IndirectWrite] = field(default_factory=list)
    properties: Dict[str, IndexProperty] = field(default_factory=dict)
    #: Arrays read (not written) through non-affine subscripts — the
    #: gather side (``x!(col!k)``); informational only, no property
    #: obligations arise from reads.
    gather_arrays: Tuple[str, ...] = ()
    #: ``(subject, verdict, reason)`` rows for the ``subscript``
    #: explain area.  Verdicts follow repro.obs.explain.
    decisions: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Filled by the pipeline when a guarded dual-schedule kernel was
    #: emitted for this compilation.
    guarded: bool = False
    guard: Optional[GuardPlan] = None

    @property
    def has_indirect(self) -> bool:
        return bool(self.writes)

    @property
    def static_injective(self) -> frozenset:
        return frozenset(
            name for name, prop in self.properties.items()
            if prop.injective is True and prop.source == STATIC
        )

    @property
    def static_bounded(self) -> frozenset:
        return frozenset(
            name for name, prop in self.properties.items()
            if prop.bounded is True and prop.source == STATIC
        )

    @property
    def verifiable(self) -> frozenset:
        """Index arrays whose properties the runtime verifier can
        establish (statically unknown but not disproven)."""
        return frozenset(
            name for name, prop in self.properties.items()
            if prop.source == RUNTIME and prop.injective is not False
        )

    def summary_lines(self) -> List[str]:
        lines = []
        for name in sorted(self.properties):
            lines.append("subscript " + self.properties[name].describe())
        if self.gather_arrays:
            lines.append(
                "subscript gathers (reads through index arrays): "
                + ", ".join(sorted(self.gather_arrays))
            )
        if self.guarded:
            lines.append(
                "subscript: guarded dual-schedule kernel — runtime "
                "verifier picks the unchecked fast path or the checked "
                "serial fallback at call time"
            )
        return lines


# ----------------------------------------------------------------------
# Rebuilding the normalized substitution (mirrors _Builder.affine).


def _clause_subst(clause: SVClause, params) -> Dict[str, Optional[Affine]]:
    """Original index name -> affine over normalized indices.

    Reconstructs the substitution the builder used: for each loop,
    ``var = start + step*(t-1)`` over the normalized index ``t``.
    """
    subst: Dict[str, Optional[Affine]] = {}
    for loop in clause.loops:
        start = _affine_under(loop.start, subst, params)
        if start is None:
            subst[loop.var] = None
        else:
            subst[loop.var] = (
                Affine.var(loop.info.var, loop.step)
                + start - Affine.constant(loop.step)
            )
    return subst


def _affine_under(node: ast.Node, subst, params) -> Optional[Affine]:
    """Affine form of ``node`` over normalized indices, or ``None``."""
    try:
        raw = affine_from_ast(node, params or {})
    except NonAffineError:
        return None
    substitution = {}
    for var in raw.vars:
        if var in subst:
            if subst[var] is None:
                return None
            substitution[var] = subst[var]
        else:
            return None
    return raw.substitute(substitution)


def _affine_range(
    affine: Affine, clause: SVClause
) -> Optional[Tuple[int, int]]:
    """Static ``(min, max)`` of an affine form over the clause's
    normalized iteration box, or ``None`` when a trip count is
    unknown."""
    lo = hi = affine.const
    for var, coeff in affine.coeffs.items():
        loop = next(
            (l for l in clause.loops if l.info.var == var), None
        )
        if loop is None or loop.info.count is None:
            return None
        if loop.info.count == 0:
            # Empty loop: the clause never runs; the range is empty,
            # but (0, -1) keeps callers' subset checks trivially true.
            return (0, -1)
        lo += min(coeff * 1, coeff * loop.info.count)
        hi += max(coeff * 1, coeff * loop.info.count)
    return (lo, hi)


# ----------------------------------------------------------------------
# Decomposing opaque write subscripts.


def find_indirect_writes(
    comp: ArrayComp, params=None
) -> List[IndirectWrite]:
    """Every ``idx!inner`` dimension of every opaque write subscript.

    A clause whose write subscript is affine contributes nothing; a
    clause with a non-affine subscript is decomposed dimension by
    dimension.  A non-affine dimension that is *not* an index-array
    read (``i*j``, say) yields no :class:`IndirectWrite` — nothing can
    be verified about it and the clause stays fully opaque.
    """
    out: List[IndirectWrite] = []
    for clause in comp.clauses:
        if clause.subscripts is not None:
            continue
        subst = _clause_subst(clause, params)
        sub = clause.subscript_ast
        dims = sub.items if isinstance(sub, ast.TupleExpr) else [sub]
        for position, dim in enumerate(dims):
            if _affine_under(dim, subst, params) is not None:
                continue
            if (isinstance(dim, ast.Index)
                    and isinstance(dim.arr, ast.Var)):
                inner = _affine_under(dim.idx, subst, params)
                out.append(IndirectWrite(
                    clause=clause, dim=position,
                    index_array=dim.arr.name, inner=inner,
                    inner_ast=dim.idx,
                ))
    return out


def decompose_write(
    clause: SVClause, comp: ArrayComp, params=None,
    writes: Optional[List[IndirectWrite]] = None,
) -> Optional[List[object]]:
    """Per-dimension decomposition of a clause's write subscript.

    Returns a list with one entry per output dimension: an
    :class:`~repro.core.affine.Affine` for an affine dimension, an
    :class:`IndirectWrite` for an ``idx!inner`` dimension with affine
    inner, or ``None`` for the whole clause when any dimension is
    neither (fully opaque — no reduction applies).
    """
    if clause.subscripts is not None:
        return list(clause.subscripts)
    if writes is None:
        writes = find_indirect_writes(comp, params)
    by_dim = {
        w.dim: w for w in writes if w.clause is clause
    }
    subst = _clause_subst(clause, params)
    sub = clause.subscript_ast
    dims = sub.items if isinstance(sub, ast.TupleExpr) else [sub]
    out: List[object] = []
    for position, dim in enumerate(dims):
        affine = _affine_under(dim, subst, params)
        if affine is not None:
            out.append(affine)
            continue
        write = by_dim.get(position)
        if write is None or write.inner is None:
            return None
        out.append(write)
    return out


# ----------------------------------------------------------------------
# Static classification from a visible index-array comprehension.


def classify_index_comp(
    index_comp: ArrayComp,
    dim_bounds: Optional[Tuple[int, int]],
    params=None,
) -> IndexProperty:
    """Prove properties of an index array from its own comprehension.

    The proof obligation: the *value stored at each cell*, as a
    function of the cell, is affine — then injectivity is a
    coefficient condition, monotonicity a sign condition, and the
    bounds follow from interval arithmetic over the loop counts.
    Anything else (guards, multiple clauses, non-affine values,
    unknown counts) downgrades to runtime verification with the reason
    recorded.
    """
    name = index_comp.name or "<index>"

    def runtime(reason: str) -> IndexProperty:
        return IndexProperty(array=name, source=RUNTIME, reason=reason)

    if len(index_comp.clauses) != 1:
        return runtime(
            f"{len(index_comp.clauses)} clauses — single-clause "
            "definitions only"
        )
    clause = index_comp.clauses[0]
    if clause.guards:
        return runtime("guarded clause — coverage not provable")
    if clause.subscripts is None:
        return runtime("index array is itself built by an indirect "
                       "write")
    subst = _clause_subst(clause, params)
    value = _affine_under(clause.value, subst, params)
    if value is None:
        return runtime("value is not an affine function of the loop "
                       "indices")

    # The comprehension must cover its own index space exactly once —
    # otherwise "the value at cell c" is not well defined (or some
    # cell is an empty).
    from repro.core.collisions import NONE as COLL_NONE
    from repro.core.collisions import analyze_collisions, analyze_empties

    collision = analyze_collisions(index_comp)
    if collision.status != COLL_NONE:
        return runtime("index array's own writes not collision-free")
    empties = analyze_empties(index_comp, collision)
    if empties.status != COLL_NONE:
        return runtime("index array not provably total over its own "
                       "bounds")

    counts = [loop.info.count for loop in clause.loops]
    if any(count is None for count in counts):
        return runtime("loop trip counts not statically known")

    # Injectivity of the affine value over the iteration box: order
    # the coefficients like mixed-radix digits; each must dominate the
    # total span of the smaller ones (1-D: coefficient nonzero).
    terms = []
    for var, coeff in value.coeffs.items():
        loop = next(
            (l for l in clause.loops if l.info.var == var), None
        )
        if loop is None:
            return runtime(f"value uses unknown symbol {var!r}")
        terms.append((abs(coeff), loop.info.count))
    terms.sort()
    injective = bool(terms) and len(terms) == len(clause.loops)
    span = 0
    for coeff, count in terms:
        if coeff == 0 or coeff <= span:
            injective = False
            break
        span += coeff * (count - 1)
    if not value.coeffs:
        injective = False  # constant value: every cell equal

    monotone = None
    if len(clause.loops) == 1:
        coeff = value.coeff(clause.loops[0].info.var)
        monotone = coeff != 0

    value_range = _affine_range(value, clause)
    bounded = None
    total = None
    if value_range is not None and dim_bounds is not None:
        lo, hi = value_range
        bounded = dim_bounds[0] <= lo and hi <= dim_bounds[1]
        cells = 1
        for count in counts:
            cells *= count
        extent = dim_bounds[1] - dim_bounds[0] + 1
        total = bool(injective and bounded and cells == extent)

    reason = "value is affine in the loop indices"
    if injective:
        reason += "; distinct cells get distinct values"
    if total:
        reason += "; a permutation of the written dimension"
    return IndexProperty(
        array=name, injective=injective, monotone=monotone,
        bounded=bounded, total=total, source=STATIC, reason=reason,
    )


# ----------------------------------------------------------------------
# The pass.


def analyze_subscripts(
    comp: ArrayComp,
    params=None,
    index_comps: Optional[Dict[str, ArrayComp]] = None,
) -> SubscriptReport:
    """Classify every index array written through in ``comp``.

    ``index_comps`` maps sibling binding names to their already-built
    comprehensions (the whole-program compiler supplies them in
    topological order) — the only source of static proofs.  Without a
    visible definition every property is runtime-verifiable at best.
    """
    report = SubscriptReport()
    report.writes = find_indirect_writes(comp, params)
    gathers = set()
    for clause in comp.clauses:
        for read in clause.reads:
            if read.subscripts is None and read.node is not None:
                idx = read.node.idx
                for node in idx.walk():
                    if (isinstance(node, ast.Index)
                            and isinstance(node.arr, ast.Var)):
                        gathers.add(node.arr.name)
    report.gather_arrays = tuple(sorted(gathers))
    if not report.writes:
        return report

    by_array: Dict[str, List[IndirectWrite]] = {}
    for write in report.writes:
        by_array.setdefault(write.index_array, []).append(write)

    for name, writes in sorted(by_array.items()):
        dim_bounds = None
        if comp.bounds is not None:
            positions = {w.dim for w in writes}
            if len(positions) == 1:
                dim_bounds = comp.bounds.dims[next(iter(positions))]
        source_comp = (index_comps or {}).get(name)
        if source_comp is not None:
            prop = classify_index_comp(source_comp, dim_bounds, params)
            prop.array = name
        else:
            prop = IndexProperty(
                array=name, source=RUNTIME,
                reason="defining comprehension not visible",
            )
        if any(w.inner is None for w in writes):
            prop = IndexProperty(
                array=name, source=NONE,
                reason="inner subscript is not affine — no reduction "
                       "or verification applies",
            )
        report.properties[name] = prop
        if prop.source == STATIC and prop.injective:
            report.decisions.append((
                f"index array {name!r}", "accepted",
                f"statically proven: {prop.reason}",
            ))
        elif prop.source == RUNTIME:
            report.decisions.append((
                f"index array {name!r}", "fallback",
                f"runtime verification required: {prop.reason}",
            ))
        else:
            report.decisions.append((
                f"index array {name!r}", "rejected", prop.reason,
            ))
    return report


def plan_guard(
    comp: ArrayComp,
    report: SubscriptReport,
    params=None,
    mode: str = "scatter",
) -> Optional[GuardPlan]:
    """Decide whether a guarded dual-schedule kernel is sound.

    ``mode='scatter'`` (monolithic writes): the fast path elides the
    per-write collision checks and the definedness sweep, so the
    collision *and* empties analyses must both come back ``NONE``
    under the assumption that every runtime-verifiable index array is
    injective and bounded (the verifier establishes exactly that).

    ``mode='accum'`` (accumulated writes): duplicates are semantics,
    not errors — only the bounds obligation matters, so the verifier
    skips the duplicate scan and every clause must be provably
    in-bounds under the bounded assumption.

    Both modes additionally need the static inner-subscript range of
    every indirect dimension (checked against the index array's actual
    bounds by an O(1) guard in the generated code, ruling out Python's
    silent negative-index wrap).
    """
    from repro.core.collisions import NONE as COLL_NONE
    from repro.core.collisions import analyze_collisions, analyze_empties

    if not report.writes:
        return None
    verifiable = report.verifiable
    assumed_inj = report.static_injective | verifiable
    assumed_bnd = report.static_bounded | verifiable

    specs: Dict[str, VerifySpec] = {}
    indirect_dims: Dict[int, Dict[int, str]] = {}
    positions: Dict[str, set] = {}
    for write in report.writes:
        prop = report.properties.get(write.index_array)
        if prop is None or prop.source == NONE:
            return None
        if write.inner is None:
            return None
        indirect_dims.setdefault(write.clause.index, {})[write.dim] = \
            write.index_array
        positions.setdefault(write.index_array, set()).add(write.dim)
        if write.index_array not in verifiable:
            continue  # statically proven: nothing to verify
        inner_range = _affine_range(write.inner, write.clause)
        if inner_range is None:
            return None
        spec = specs.get(write.index_array)
        if spec is None:
            specs[write.index_array] = VerifySpec(
                array=write.index_array, dim=write.dim,
                need_injective=(mode == "scatter"),
                inner_lo=inner_range[0], inner_hi=inner_range[1],
            )
        else:
            spec.inner_lo = min(spec.inner_lo, inner_range[0])
            spec.inner_hi = max(spec.inner_hi, inner_range[1])
    # One output dimension per index array: the verifier gates values
    # against a single (low, high) pair.
    for name, dims in positions.items():
        if len(dims) != 1 or comp.bounds is None:
            return None

    if mode == "scatter":
        collision = analyze_collisions(comp, injective=assumed_inj,
                                       params=params)
        if collision.status != COLL_NONE:
            return None
        empties = analyze_empties(comp, collision,
                                  bounded=assumed_bnd, params=params)
        if empties.status != COLL_NONE:
            return None
    else:
        from repro.core.collisions import clause_in_bounds

        for clause in comp.clauses:
            if clause_in_bounds(clause, comp, bounded=assumed_bnd,
                                params=params) is not True:
                return None
    return GuardPlan(
        verify=tuple(specs[name] for name in sorted(specs)),
        mode=mode, indirect_dims=indirect_dims,
    )
