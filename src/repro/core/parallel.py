"""Parallelism analysis: hyperplane scheduling (paper §10).

The paper closes: "obviously this analysis can also be extended to the
vectorization and parallelization of functional language programs ...
such transformations need to focus on finding innermost loops with no
loop-carried dependences."  Vectorization is in
:mod:`repro.codegen.vectorize`; this module adds the classic
*hyperplane method* for nests where **every** loop carries a
dependence — the paper's own wavefront recurrence being the canonical
case — and :func:`plan_parallelism`, which names the nests the
vectorizer sweeps as wavefronts.

For a perfect nest whose self dependences have constant distance
vectors ``d`` (source to sink, lexicographically positive), a
*hyperplane* ``h`` with ``h . d > 0`` for all ``d`` orders instances
by the scalar time ``t = h . index``; all instances on one hyperplane
are mutually independent and can run in parallel.  For the paper's
wavefront (distances ``(1,0), (0,1), (1,1)``), ``h = (1,1)`` gives the
anti-diagonal sweep with O(n) steps for O(n^2) work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.comprehension.loopir import ArrayComp, SVClause
from repro.core.dependence import DepEdge, FLOW
from repro.core.direction import refine_directions
from repro.core.exact import exact_test
from repro.core.subscripts import build_equations


@dataclass
class NestParallelism:
    """Parallelism profile of one clause's loop nest.

    ``hyperplane`` is ``None`` when no legal wavefront exists (unknown
    or non-constant dependence distances).  ``steps`` is the critical
    path (number of sequential hyperplane sweeps), ``work`` the total
    instance count, and ``speedup_bound`` their ratio — the maximum
    parallel speedup the dependence structure permits.
    """

    clause: SVClause
    distances: Optional[Tuple[Tuple[int, ...], ...]]
    hyperplane: Optional[Tuple[int, ...]]
    steps: Optional[int] = None
    work: Optional[int] = None

    @property
    def speedup_bound(self) -> Optional[float]:
        if self.steps is None or self.work is None or self.steps == 0:
            return None
        return self.work / self.steps

    @property
    def fully_parallel(self) -> bool:
        """No dependences at all: every instance can run at once.

        ``distances is None`` means *unknown* distances, which is the
        opposite of dependence-free — only an empty tuple qualifies.
        """
        return self.distances == ()

    def __repr__(self):
        return (
            f"NestParallelism({self.clause.label}, h={self.hyperplane}, "
            f"steps={self.steps}, work={self.work})"
        )


def dependence_distances(
    comp: ArrayComp, clause: SVClause, edges: Sequence[DepEdge]
) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Constant distance vectors of the clause's flow self-edges.

    The distance runs source-to-sink in normalized iteration space
    (always lexicographically positive).  Returns ``None`` when some
    self dependence has no single constant distance (the hyperplane
    method then does not apply).
    """
    self_edges = [
        e for e in edges
        if e.src is clause and e.dst is clause and e.kind == FLOW
    ]
    if not self_edges:
        return ()
    write_ref = clause.write_reference(comp.name or "")
    if write_ref is None or clause.has_opaque_reads(comp.name or ""):
        return None
    if any(loop.count is None for loop in clause.loop_infos):
        return None  # distance extraction needs the exact test
    distances = set()
    for read in clause.read_references(comp.name or ""):
        equations = build_equations(write_ref, read)
        directions = refine_directions(equations, verify_exact=False)
        directions = {d for d in directions if any(s != "=" for s in d)}
        if not directions:
            continue
        witness = None
        for direction in sorted(directions):
            witness = exact_test(equations, direction)
            if witness is not None:
                break
        if witness is None:
            continue
        # Distance = sink instance - source instance.  Verify it is
        # constant by checking a second witness shifted by it.
        distance = tuple(
            witness[f"y:{loop.var}"] - witness[f"x:{loop.var}"]
            for loop in clause.loop_infos
        )
        if not _constant_distance(equations, distance, clause):
            return None
        distances.add(distance)
    return tuple(sorted(distances))


def _constant_distance(equations, distance, clause) -> bool:
    """Whether every solution has exactly this distance.

    Checked by asking the exact test for a solution with a *different*
    relation in some coordinate: for a uniform (constant-distance)
    dependence none exists.  We approximate by testing the immediate
    direction-vector refinements: the distance is constant iff the only
    possible direction vector is the sign pattern of ``distance``.
    """
    signs = tuple(
        "<" if d > 0 else (">" if d < 0 else "=") for d in distance
    )
    possible = refine_directions(equations, verify_exact=True)
    possible = {d for d in possible if any(s != "=" for s in d)}
    if possible != {signs}:
        return False
    # Same direction but different magnitude?  Probe by excluding the
    # claimed distance: solve with an extra equation would be ideal;
    # instead verify the subscript is a uniform stencil (coefficient 1
    # per shared loop), which guarantees uniqueness.
    for eq in equations:
        for term in eq.shared_terms:
            if term.a != term.b:
                return False
    return True


def find_hyperplane(
    distances: Sequence[Tuple[int, ...]], limit: int = 4
) -> Optional[Tuple[int, ...]]:
    """A minimal non-negative integer ``h`` with ``h . d > 0`` for all
    distances, or ``None``.

    Searched in order of increasing ``sum(h)`` so the flattest legal
    wavefront is returned (more parallelism per step).
    """
    if not distances:
        return None
    rank = len(distances[0])
    candidates = sorted(
        itertools.product(range(limit + 1), repeat=rank),
        key=lambda h: (sum(h), h),
    )
    for h in candidates:
        if all(
            sum(hk * dk for hk, dk in zip(h, d)) > 0 for d in distances
        ):
            return h
    return None


def _nest_extents(clause: SVClause) -> Optional[Tuple[int, ...]]:
    extents = []
    for loop in clause.loops:
        if loop.info.count is None:
            return None
        extents.append(loop.info.count)
    return tuple(extents)


# ----------------------------------------------------------------------
# Profile -> executable plan (the vectorizer's wavefront decisions).

#: Plan kinds, in decreasing order of extracted parallelism.
WAVEFRONT = "wavefront"      # every loop carried: anti-diagonal sweeps
DEP_FREE = "dep-free"        # no self dependence: whole-dimension slices
SEQUENTIAL = "sequential"    # no profile applies: scalar schedule


@dataclass
class ClausePlan:
    """Executable decision for one clause's loop nest.

    ``kind`` is :data:`WAVEFRONT`, :data:`DEP_FREE`, or
    :data:`SEQUENTIAL`; ``reason`` explains a sequential decision (or
    qualifies a positive one).  The emitter may still fall back per
    clause when the value expression resists vector translation — that
    outcome is recorded separately in the compilation report.
    """

    clause: SVClause
    kind: str
    profile: Optional[NestParallelism] = None
    reason: str = ""

    def describe(self) -> str:
        text = f"{self.clause.label}: {self.kind}"
        if self.kind == WAVEFRONT and self.profile is not None:
            text += (
                f" h={self.profile.hyperplane}"
                f" ({self.profile.steps} steps / {self.profile.work} work)"
            )
        if self.reason:
            text += f" ({self.reason})"
        return text


@dataclass
class ParallelPlan:
    """Per-clause execution plan derived from the §10 profiles."""

    clauses: List[ClausePlan] = field(default_factory=list)

    def for_clause(self, clause: SVClause) -> Optional[ClausePlan]:
        for plan in self.clauses:
            if plan.clause is clause:
                return plan
        return None

    def decisions(self) -> List[str]:
        return [plan.describe() for plan in self.clauses]

    @property
    def any_parallel(self) -> bool:
        return any(p.kind != SEQUENTIAL for p in self.clauses)


def plan_parallelism(
    comp: ArrayComp,
    edges: Sequence[DepEdge],
    profiles: Optional[Sequence[NestParallelism]] = None,
    subscripts=None,
) -> ParallelPlan:
    """Turn analytic profiles into an executable plan.

    The mapping is conservative: a clause is planned as a wavefront
    only when the hyperplane is the ``(1,1)`` anti-diagonal of a
    rank-2 nest (the paper's own wavefront and Livermore-23 shape) and
    the critical path is genuinely shorter than the work; dep-free
    nests are left to the vectorizer's whole-nest slices; everything
    else stays on the sequential schedule with the reason recorded.

    ``subscripts`` (a :class:`~repro.core.subscripts_indirect.
    SubscriptReport`, optional) enriches the recorded reason for
    dep-free clauses that write through an index array: injectivity —
    proven statically or established by the guarded kernel's runtime
    verifier — is exactly what makes the indirect scatter dep-free.
    """
    indirect_clauses = set()
    if subscripts is not None:
        indirect_clauses = {
            id(w.clause) for w in getattr(subscripts, "writes", ())
        }
    if profiles is None:
        profiles = analyze_parallelism(comp, edges)
    plan = ParallelPlan()
    for profile in profiles:
        clause = profile.clause
        if profile.distances is None:
            plan.clauses.append(ClausePlan(
                clause, SEQUENTIAL, profile,
                "dependence distances are not constant",
            ))
            continue
        if profile.fully_parallel:
            reason = "no loop-carried dependence"
            if id(clause) in indirect_clauses:
                reason = (
                    "no loop-carried dependence (indirect scatter: "
                    "injective index array makes writes disjoint)"
                )
            plan.clauses.append(ClausePlan(
                clause, DEP_FREE, profile, reason,
            ))
            continue
        hyperplane = profile.hyperplane
        if hyperplane is None:
            plan.clauses.append(ClausePlan(
                clause, SEQUENTIAL, profile, "no legal hyperplane",
            ))
            continue
        if (
            profile.steps is not None
            and profile.work is not None
            and profile.steps >= profile.work
        ):
            plan.clauses.append(ClausePlan(
                clause, SEQUENTIAL, profile,
                "critical path equals work (fully sequential nest)",
            ))
            continue
        if hyperplane != (1, 1) or len(clause.loops) != 2:
            plan.clauses.append(ClausePlan(
                clause, SEQUENTIAL, profile,
                f"hyperplane {hyperplane} unsupported by codegen "
                "(only (1,1) over rank-2 nests)",
            ))
            continue
        plan.clauses.append(ClausePlan(clause, WAVEFRONT, profile))
    return plan


def analyze_parallelism(
    comp: ArrayComp, edges: Sequence[DepEdge]
) -> List[NestParallelism]:
    """Hyperplane profiles for every clause with surrounding loops."""
    out = []
    for clause in comp.clauses:
        if not clause.loops:
            continue
        distances = dependence_distances(comp, clause, edges)
        if distances is None:
            out.append(NestParallelism(clause, None, None))
            continue
        extents = _nest_extents(clause)
        work = None
        if extents is not None:
            work = 1
            for extent in extents:
                work *= extent
        if not distances:
            out.append(
                NestParallelism(clause, (), None, steps=1 if work else None,
                                work=work)
            )
            continue
        hyperplane = find_hyperplane(distances)
        steps = None
        if hyperplane is not None and extents is not None:
            # t ranges over h . (index - 1) for index in the box.
            steps = sum(
                h * (extent - 1)
                for h, extent in zip(hyperplane, extents)
            ) + 1
        out.append(
            NestParallelism(clause, distances, hyperplane,
                            steps=steps, work=work)
        )
    return out
