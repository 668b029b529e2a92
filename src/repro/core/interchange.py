"""Loop interchange (the §8.2 restructuring the paper defers).

The paper: "For now we will not pursue any more drastic restructurings,
such as interchange of loop nesting levels."  This module pursues it —
with a crucial simplification the functional setting grants: because a
monolithic array's pair-list order is semantically irrelevant (§3),
*any* permutation of the loops of a comprehension preserves meaning.
Interchange is therefore never a correctness question, only a
scheduling/vectorization opportunity; the §8 scheduler simply re-runs
on the permuted nest.

The planner targets the §10 payoff: in a perfect, rectangular
two-level nest whose **inner** loop carries a dependence while the
**outer** one does not, swapping the loops moves the dependence-free
loop innermost, where the vectorizer can take it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.comprehension.loopir import ArrayComp, LoopNest, SVClause
from repro.core.dependence import DepEdge


def perfect_rectangular_nest(outer: LoopNest) -> Optional[LoopNest]:
    """The inner loop of a perfect 2-level rectangular nest, or None.

    Perfect: the outer loop's only child is the inner loop; the inner
    loop's children are all clauses.  Rectangular: both trip counts are
    statically known (so neither bound depends on the other index).
    """
    if len(outer.children) != 1:
        return None
    inner = outer.children[0]
    if not isinstance(inner, LoopNest):
        return None
    if not all(isinstance(child, SVClause) for child in inner.children):
        return None
    if outer.info.count is None or inner.info.count is None:
        return None
    return inner


def carried_at_loop(loop: LoopNest, edges: Sequence[DepEdge]) -> bool:
    """Whether an edge between two clauses that both run ``loop`` has
    ``<``, ``>`` or ``*`` at ``loop``'s level: the loop carries a
    dependence, so its iterations cannot all run at once (§10)."""
    for edge in edges:
        if loop not in edge.src.loops or loop not in edge.dst.loops:
            continue
        level = edge.src.loops.index(loop)
        if len(edge.direction) > level and edge.direction[level] in (
            "<", ">", "*"
        ):
            return True
    return False


def plan_interchanges(
    comp: ArrayComp, edges: Sequence[DepEdge]
) -> List[LoopNest]:
    """Outer loops worth swapping with their inner loop.

    A swap is proposed when the inner loop carries a dependence and the
    outer loop does not: afterwards the innermost loop is
    dependence-free and vectorizable (§10).
    """
    proposals = []
    for position, entity in enumerate(comp.roots):
        if not isinstance(entity, LoopNest):
            continue
        inner = perfect_rectangular_nest(entity)
        if inner is None:
            continue
        if carried_at_loop(inner, edges) and not carried_at_loop(
            entity, edges
        ):
            proposals.append(entity)
    return proposals


def interchange(comp: ArrayComp, outer: LoopNest) -> None:
    """Swap ``outer`` with its (perfect-nest) inner loop, in place.

    Every clause's loop chain is updated; subscripts need no rewriting
    because they are expressed over the loops' normalized index names,
    which travel with the :class:`LoopInfo` objects.  Callers must
    re-run dependence analysis afterwards (direction vectors follow the
    loop order).
    """
    inner = perfect_rectangular_nest(outer)
    if inner is None:
        raise ValueError("not a perfect rectangular 2-level nest")
    position = comp.roots.index(outer)

    # Restructure: inner becomes the root, outer the (only) child.
    outer.children = list(inner.children)
    inner.children = [outer]
    comp.roots[position] = inner

    for clause in outer.children:
        loops = list(clause.loops)
        outer_at = loops.index(outer)
        inner_at = loops.index(inner)
        loops[outer_at], loops[inner_at] = loops[inner_at], loops[outer_at]
        clause.loops = tuple(loops)
