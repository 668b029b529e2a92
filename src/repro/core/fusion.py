"""Cross-binding loop-fusion legality (paper §5, §6, §8).

The whole-program compiler may *fuse* a producer binding ``A`` (an
array comprehension) into a consumer binding ``B`` — substituting
``A``'s value expression into ``B``'s clauses and never allocating
``A`` — exactly when the paper's subscript machinery proves the
transformation invisible:

* ``A`` is a single-clause, unguarded, provably total and
  collision-free comprehension with affine write subscripts and no
  self-references (so each cell's value is one closed-form expression
  of the indices);
* every consumer clause that reads ``A`` runs a loop nest *alignable*
  with ``A``'s (same depth, trip counts and steps, statically known
  start offsets), and after alignment each read subscript is
  **identical** to ``A``'s write subscript as an affine form over the
  normalized indices (§6) — the dependence distance is zero in every
  dimension, so iteration ``t`` of the fused nest reads exactly the
  value iteration ``t`` of ``A`` would have produced.

Affine identity is deliberately stronger than "the all-``=`` direction
vector is the only possible one": on bounded domains the latter holds
for subscript pairs that coincide only on a sub-diagonal (e.g.
``f = 2t, g = 3t - 1`` with trip count 2).  The §5 GCD/Banerjee
refinement (:func:`repro.core.direction.refine_directions`) is still
consulted — to name *why* a rejected pair fails: a loop-carried
producer→consumer dependence, a sub-diagonal coincidence, or a read
that never observes the write.

Every rejection raises :class:`FusionReject` with a human-readable
reason; the program compiler records it in ``ProgramReport.fallbacks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.comprehension.build import BuildError, build_array_comp, find_array_comp
from repro.comprehension.fuse import bound_names
from repro.comprehension.loopir import SVClause
from repro.core.affine import NonAffineError, affine_from_ast
from repro.core.direction import refine_directions
from repro.core.subscripts import Reference, build_equations
from repro.lang import ast


class FusionReject(Exception):
    """Fusion is not provably legal; ``str()`` is the reason."""


@dataclass
class FusionPlan:
    """A proven-legal producer→consumer fusion, ready to apply."""

    producer: str
    consumer: str
    producer_clause: SVClause = field(repr=False)
    #: ``(consumer_clause, var_map)`` pairs for
    #: :func:`repro.comprehension.fuse.inline_producer`.
    clause_plans: List[Tuple[SVClause, Dict[str, ast.Node]]] = field(
        repr=False, default_factory=list
    )
    cells: int = 0          # statically known elided cells (0 = unknown)
    reads: int = 0          # substituted read sites


def wrap_binding(bind: ast.Binding) -> ast.Node:
    """Array-shaped binding -> compilable expression.

    A bare ``array b e`` is wrapped as ``letrec* name = array b e in
    name`` so reads of the binding's own name classify as *flow*
    dependences (a recursive array), not external inputs.  An
    expression that is already a ``let`` is used as-is — wrapping it
    again would shadow the inner comprehension's name and misread its
    self-references.
    """
    expr = bind.expr
    if isinstance(expr, ast.Let):
        return expr
    inner = ast.Binding(name=bind.name, params=[], expr=expr,
                        pos=expr.pos)
    return ast.Let(kind="letrec*", binds=[inner],
                   body=ast.Var(bind.name, pos=expr.pos), pos=expr.pos)


def _fmt_dirs(dirs) -> str:
    vecs = sorted(",".join(dv) for dv in dirs)
    return "; ".join(f"({v})" for v in vecs)


def _const_start(node: ast.Node, params) -> Optional[int]:
    try:
        affine = affine_from_ast(node, params)
    except NonAffineError:
        return None
    return affine.const if affine.is_constant() else None


def _check_producer(bind: ast.Binding, params) -> Tuple[SVClause, object]:
    """Producer-side legality; returns ``(clause, comp)``."""
    from repro.core import pipeline

    name = bind.name
    try:
        report = pipeline.analyze(wrap_binding(bind), params)
    except (pipeline.CompileError, BuildError) as exc:
        raise FusionReject(
            f"producer {name!r} is not a fusable comprehension ({exc})"
        ) from exc
    comp = report.comp
    if len(comp.clauses) != 1:
        raise FusionReject(
            f"producer {name!r} has {len(comp.clauses)} clauses — only "
            "single-clause producers fuse (a read cannot be matched to "
            "one defining expression otherwise)"
        )
    clause = comp.clauses[0]
    if clause.guards:
        raise FusionReject(
            f"producer {name!r} is guarded — a consumer read cannot be "
            "proven to land on a cell the guard admits (guard mismatch)"
        )
    if clause.subscripts is None:
        raise FusionReject(
            f"producer {name!r} writes through a non-affine subscript"
        )
    if any(read.array == name for read in clause.reads):
        raise FusionReject(
            f"producer {name!r} reads itself (recursive definition); "
            "inlining would lose the flow-dependence schedule"
        )
    if report.collision.checks_needed:
        raise FusionReject(
            f"producer {name!r} is not provably collision-free — the "
            "fused read could observe the wrong colliding write"
        )
    if report.empties.checks_needed:
        raise FusionReject(
            f"producer {name!r} is not provably total — a fused "
            "consumer could silently read an undefined cell the "
            "materialized array would have faulted on"
        )
    if report.schedule is None or not report.schedule.ok:
        raise FusionReject(
            f"producer {name!r} does not compile thunkless (no legal "
            "clause schedule)"
        )
    dupes = len(clause.loops) != len({loop.var for loop in clause.loops})
    if dupes:
        raise FusionReject(
            f"producer {name!r} reuses an index name across nesting "
            "levels — renaming would be ambiguous"
        )
    return clause, comp


def _align_loops(
    producer: str,
    p_clause: SVClause,
    c_clause: SVClause,
    params,
) -> Dict[str, ast.Node]:
    """Alignment map (producer index name -> consumer index AST), or a
    :class:`FusionReject` naming the first mismatched level."""
    if len(c_clause.loops) != len(p_clause.loops):
        raise FusionReject(
            f"{c_clause.label} reads {producer!r} under a depth-"
            f"{len(c_clause.loops)} nest but the producer is depth-"
            f"{len(p_clause.loops)} — iteration spaces differ"
        )
    if len(c_clause.loops) != len({loop.var for loop in c_clause.loops}):
        raise FusionReject(
            f"{c_clause.label} reuses an index name across nesting "
            "levels — renaming would be ambiguous"
        )
    var_map: Dict[str, ast.Node] = {}
    for level, (p_loop, c_loop) in enumerate(
        zip(p_clause.loops, c_clause.loops), start=1
    ):
        if (
            p_loop.info.count is None
            or p_loop.info.count != c_loop.info.count
        ):
            raise FusionReject(
                f"iteration spaces differ at level {level}: trip "
                f"counts {p_loop.info.count!r} (producer) vs "
                f"{c_loop.info.count!r} (consumer)"
            )
        if p_loop.step != c_loop.step:
            raise FusionReject(
                f"iteration spaces differ at level {level}: steps "
                f"{p_loop.step} (producer) vs {c_loop.step} (consumer)"
            )
        p_start = _const_start(p_loop.start, params)
        c_start = _const_start(c_loop.start, params)
        if p_start is None or c_start is None:
            raise FusionReject(
                f"loop starts at level {level} are not statically "
                "alignable (non-constant bound)"
            )
        offset = p_start - c_start
        base = ast.Var(name=c_loop.var)
        if offset == 0:
            var_map[p_loop.var] = base
        elif offset > 0:
            var_map[p_loop.var] = ast.BinOp(
                op="+", left=base, right=ast.Lit(value=offset)
            )
        else:
            var_map[p_loop.var] = ast.BinOp(
                op="-", left=base, right=ast.Lit(value=-offset)
            )
    return var_map


def _check_reads(
    producer: str,
    p_clause: SVClause,
    c_clause: SVClause,
) -> int:
    """Distance-zero proof for every read of ``producer`` in
    ``c_clause``; returns the number of read sites."""
    if c_clause.has_opaque_reads(producer):
        raise FusionReject(
            f"{c_clause.label} reads {producer!r} through a non-affine "
            "subscript — nothing can be proved about the distance"
        )
    reads = [r for r in c_clause.reads if r.array == producer]
    c_infos = c_clause.loop_infos
    norm_rename = {
        p.info.var: c.info.var
        for p, c in zip(p_clause.loops, c_clause.loops)
    }
    write_subs = tuple(
        affine.rename(norm_rename) for affine in p_clause.subscripts
    )
    all_equal = ("=",) * len(c_infos)
    for read in reads:
        if len(read.subscripts) != len(write_subs):
            raise FusionReject(
                f"{c_clause.label} reads {producer!r} with rank "
                f"{len(read.subscripts)}, but the producer writes rank "
                f"{len(write_subs)}"
            )
        if tuple(read.subscripts) == write_subs:
            continue
        # Not identical: consult the §5 refinement for the reason.
        write_ref = Reference(producer, write_subs, c_infos,
                              is_write=True, clause=p_clause)
        read_ref = Reference(producer, tuple(read.subscripts), c_infos,
                             clause=c_clause)
        dirs = refine_directions(
            build_equations(write_ref, read_ref), verify_exact=True
        )
        carried = {dv for dv in dirs if dv != all_equal}
        if carried:
            raise FusionReject(
                f"loop-carried producer→consumer dependence in "
                f"{c_clause.label}: direction vectors "
                f"{_fmt_dirs(carried)} relate the write to the read — "
                "fusing would read cells before the producer's "
                "iteration defines them"
            )
        if dirs:
            raise FusionReject(
                f"{c_clause.label}'s read coincides with the write "
                "only on a sub-diagonal (subscripts "
                f"{tuple(read.subscripts)} vs {write_subs} are not "
                "identical affines)"
            )
        raise FusionReject(
            f"{c_clause.label}'s read never observes the producer's "
            "write (no dependence solution) — the read targets cells "
            f"{producer!r} does not define at the aligned iteration"
        )
    return len(reads)


def plan_fusion(
    producer_bind: ast.Binding,
    consumer_bind: ast.Binding,
    params: Optional[Dict[str, int]] = None,
) -> FusionPlan:
    """Prove fusion of ``producer_bind`` into ``consumer_bind`` legal.

    Both bindings must be array comprehensions.  Raises
    :class:`FusionReject` with a reason string on the first failed
    proof obligation; the caller is responsible for the program-level
    obligations (single live consumer, producer dead afterwards, not
    the program result).
    """
    producer = producer_bind.name
    p_clause, p_comp = _check_producer(producer_bind, params)

    try:
        name, bounds_ast, pairs_ast = find_array_comp(
            wrap_binding(consumer_bind)
        )
        c_comp = build_array_comp(name, bounds_ast, pairs_ast, params)
    except BuildError as exc:
        raise FusionReject(
            f"consumer {consumer_bind.name!r} is not a compilable "
            f"array comprehension ({exc})"
        ) from exc

    c_bound = bound_names(consumer_bind.expr)
    if producer in c_bound:
        raise FusionReject(
            f"the consumer locally rebinds the name {producer!r} — "
            "reads are ambiguous"
        )
    captured = sorted(
        (ast.free_vars(producer_bind.expr) - {producer}) & c_bound
    )
    if captured:
        raise FusionReject(
            "inlining would capture name(s) "
            + ", ".join(repr(n) for n in captured)
            + " under binders local to the consumer"
        )

    read_node_arrs = {
        id(read.node.arr)
        for clause in c_comp.clauses
        for read in clause.reads
        if read.array == producer and read.node is not None
    }
    for node in consumer_bind.expr.walk():
        if isinstance(node, ast.Var) and node.name == producer:
            if id(node) not in read_node_arrs:
                raise FusionReject(
                    f"the consumer references {producer!r} outside a "
                    "subscripted clause read (array bounds, generator "
                    "ranges, or whole-array use) — the intermediate "
                    "cannot be elided"
                )

    clause_plans: List[Tuple[SVClause, Dict[str, ast.Node]]] = []
    total_reads = 0
    for c_clause in c_comp.clauses:
        touches = (
            c_clause.has_opaque_reads(producer)
            or any(r.array == producer for r in c_clause.reads)
        )
        if not touches:
            continue
        loop_vars = {loop.var for loop in c_clause.loops}
        shadowed = sorted(
            bound_names_of_clause(c_clause) & loop_vars
        )
        if shadowed:
            raise FusionReject(
                f"{c_clause.label} rebinds its own index variable(s) "
                + ", ".join(repr(n) for n in shadowed)
                + " — the aligned indices cannot be spliced"
            )
        var_map = _align_loops(producer, p_clause, c_clause, params)
        total_reads += _check_reads(producer, p_clause, c_clause)
        clause_plans.append((c_clause, var_map))

    if not clause_plans:
        raise FusionReject(
            f"the consumer never reads {producer!r} inside an array "
            "clause — nothing to fuse"
        )
    bounds = p_comp.bounds
    return FusionPlan(
        producer=producer,
        consumer=consumer_bind.name,
        producer_clause=p_clause,
        clause_plans=clause_plans,
        cells=bounds.size() if bounds is not None else 0,
        reads=total_reads,
    )


def bound_names_of_clause(clause: SVClause) -> set:
    """Names bound inside a clause's value, guards, and lets."""
    out = {bind.name for bind in clause.lets}
    sources = [clause.value] + list(clause.guards) + [
        bind.expr for bind in clause.lets
    ]
    for source in sources:
        out |= bound_names(source)
    return out
