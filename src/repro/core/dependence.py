"""Dependence edges between s/v clauses (paper §5, §7, §9).

Three kinds of edges, mirroring the imperative taxonomy the paper
transfers to functional arrays:

* **flow** (true) — clause W writes ``a!f``, clause R reads ``a!g`` of
  the *same* (recursively defined) array: W's element value must exist
  before R's is computed.  Source = W, sink = R.
* **output** — two writes hit the same element: a *write collision*,
  an error for ordinary monolithic arrays (§7).
* **anti** — clause R reads ``old!g`` where ``old`` is a dead array
  whose storage the new array reuses (``bigupd`` / in-place update,
  §9), and clause W writes ``a!f`` into that storage: the read must
  happen before the overwrite.  Source = R, sink = W.  Anti edges are
  *breakable* by node-splitting.

Every edge carries a direction vector over the shared loops of its two
clauses: ``<`` means the source instance is "earlier" than the sink
instance.  ``*`` appears only for pessimistic edges, when a subscript
was not affine and nothing could be proved.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional

from repro.comprehension.loopir import ArrayComp, SVClause
from repro.core.direction import DirVec, refine_directions, reverse
from repro.core.subscripts import Reference, build_equations
from repro.obs.trace import count

FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"

# ----------------------------------------------------------------------
# Per-run memoization of direction-refinement verdicts.
#
# Big clause lists — and especially fused nests, where a producer's
# subscripts are stamped into many consumer read sites — present the
# refinement search with the *same* equation system over and over.
# The verdict depends only on the equations (coefficients, constants,
# trip counts, shared-loop structure) and the verify_exact flag, so a
# pipeline run can test each canonical system once.  The store is
# thread-local and only active inside a `dependence_memo()` scope
# (installed by pipeline.analyze / pipeline.compile / the program
# compiler); direct calls to refine_directions are never memoized.

_MEMO = threading.local()


@contextmanager
def dependence_memo():
    """Memoize GCD/Banerjee/exact verdicts for this dynamic extent.

    Scopes nest: an inner scope reuses the outer store, so one
    pipeline run (which calls ``analyze`` from ``compile``) shares a
    single memo.  Yields the store dict for introspection in tests.
    """
    prior = getattr(_MEMO, "store", None)
    if prior is not None:
        yield prior
        return
    _MEMO.store = store = {}
    try:
        yield store
    finally:
        _MEMO.store = None


def _canonical_key(equations, verify_exact: bool):
    """A hashable key capturing exactly what refinement consumes.

    Loop identity is positional (first appearance across the equation
    list), so alpha-renamed but structurally identical systems — the
    common case across clauses of one nest — collide on purpose.
    """
    numbers = {}

    def number(loop) -> int:
        num = numbers.get(id(loop))
        if num is None:
            num = len(numbers)
            numbers[id(loop)] = num
        return num

    return (
        tuple(
            (eq.constant, tuple(
                (number(t.loop), t.a, t.b, t.count) for t in eq.terms
            ))
            for eq in equations
        ),
        verify_exact,
    )


@dataclass(frozen=True)
class DepEdge:
    """A labeled dependence edge between two clauses.

    ``direction`` relates *source* instances to *sink* instances over
    the clauses' shared loops (outermost first): the source must be
    computed before the sink.
    """

    src: SVClause = field(compare=False)
    dst: SVClause = field(compare=False)
    direction: DirVec = ()
    kind: str = FLOW

    @property
    def breakable(self) -> bool:
        """Whether node-splitting can break a cycle through this edge."""
        return self.kind == ANTI

    @property
    def level(self) -> int:
        """Index of the first non-'=' direction component.

        Equals ``len(direction)`` for loop-independent edges.  This is
        the loop level at which the edge is *carried* (paper §8.2.2's
        "loop-carried at level k").
        """
        for index, symbol in enumerate(self.direction):
            if symbol != "=":
                return index
        return len(self.direction)

    def __repr__(self):
        arrow = {FLOW: "->", ANTI: "-a->", OUTPUT: "-o->"}[self.kind]
        dv = ",".join(self.direction) if self.direction else ""
        return (
            f"{self.src.index + 1} {arrow} {self.dst.index + 1} ({dv})"
        )


def _directions_between(
    first: Reference, second: Reference, verify_exact: bool
) -> set:
    """The possible direction vectors (callers iterate them sorted:
    set order of string tuples depends on ``PYTHONHASHSEED``, and edge
    order reaches reports and schedules, which must be identical in
    every process — serve workers and the disk tier share artifacts).
    """
    equations = build_equations(first, second)
    store = getattr(_MEMO, "store", None)
    if store is None:
        return refine_directions(equations, verify_exact=verify_exact)
    key = _canonical_key(equations, verify_exact)
    verdict = store.get(key)
    if verdict is None:
        verdict = frozenset(
            refine_directions(equations, verify_exact=verify_exact)
        )
        store[key] = verdict
        count("dependence.memo.miss")
    else:
        count("dependence.memo.hit")
    return verdict


def _pessimistic_vector(first: SVClause, second: SVClause) -> DirVec:
    depth = 0
    for mine, theirs in zip(first.loops, second.loops):
        if mine is not theirs:
            break
        depth += 1
    return ("*",) * depth


def flow_edges(
    comp: ArrayComp,
    array: Optional[str] = None,
    verify_exact: bool = True,
) -> List[DepEdge]:
    """True-dependence edges of a recursively defined array.

    For every write clause W and every clause R reading ``array``
    (default: the array being defined), emits one edge per possible
    direction vector from the refinement search.  Pessimistic ``*``
    edges appear when subscripts are not affine.
    """
    array = array if array is not None else comp.name
    edges: List[DepEdge] = []
    for writer in comp.clauses:
        write_ref = writer.write_reference(array)
        for reader in comp.clauses:
            touched = (
                reader.has_opaque_reads(array)
                or reader.read_references(array)
            )
            if not touched:
                continue
            if write_ref is None or reader.has_opaque_reads(array):
                edges.append(
                    DepEdge(writer, reader,
                            _pessimistic_vector(writer, reader), FLOW)
                )
                if write_ref is not None:
                    continue
            if write_ref is None:
                continue
            seen = set()
            for read_ref in reader.read_references(array):
                for dv in sorted(_directions_between(
                        write_ref, read_ref, verify_exact)):
                    if dv not in seen:
                        seen.add(dv)
                        edges.append(DepEdge(writer, reader, dv, FLOW))
    return edges


def anti_edges(
    comp: ArrayComp,
    old_array: str,
    verify_exact: bool = True,
) -> List[DepEdge]:
    """Anti-dependence edges for in-place reuse of ``old_array``.

    The new array's writes will overwrite ``old_array``'s cells (same
    storage, same index space); every read of ``old_array`` must run
    before the write that kills its cell.  Source = reading clause,
    sink = writing clause.  A same-clause loop-independent (all ``=``)
    anti edge is dropped: a clause always computes its value before
    storing it.
    """
    edges: List[DepEdge] = []
    for reader in comp.clauses:
        reads = reader.read_references(old_array)
        opaque = reader.has_opaque_reads(old_array)
        if not reads and not opaque:
            continue
        for writer in comp.clauses:
            write_ref = writer.write_reference(old_array)
            if opaque or write_ref is None:
                dv = _pessimistic_vector(reader, writer)
                if not (writer is reader and all(s == "=" for s in dv)):
                    edges.append(DepEdge(reader, writer, dv, ANTI))
                if write_ref is None:
                    continue
                if opaque:
                    continue
            seen = set()
            for read_ref in reads:
                # First reference = read (source x), second = write
                # (sink y): '<' then means read earlier than write.
                for dv in sorted(_directions_between(
                        read_ref, write_ref, verify_exact)):
                    if writer is reader and all(s == "=" for s in dv):
                        continue
                    if dv not in seen:
                        seen.add(dv)
                        edges.append(DepEdge(reader, writer, dv, ANTI))
    return edges


def output_edges(
    comp: ArrayComp,
    verify_exact: bool = True,
) -> List[DepEdge]:
    """Output-dependence (write-collision) edges (paper §7).

    Between distinct clauses every direction counts; for a clause with
    itself the all-``=`` vector (the very same instance) is excluded.
    To avoid reporting each collision twice, ordered pairs are emitted
    once with the direction seen from the lower-numbered clause.
    """
    edges: List[DepEdge] = []
    clauses = comp.clauses
    for position, first in enumerate(clauses):
        first_ref = first.write_reference(comp.name or "")
        for second in clauses[position:]:
            second_ref = second.write_reference(comp.name or "")
            if first_ref is None or second_ref is None:
                dv = _pessimistic_vector(first, second)
                edges.append(DepEdge(first, second, dv, OUTPUT))
                continue
            for dv in sorted(_directions_between(
                    first_ref, second_ref, verify_exact)):
                if second is first:
                    if all(s == "=" for s in dv):
                        continue
                    # Self-collisions come in mirror pairs; keep the
                    # lexicographically 'forward' one.
                    if dv > reverse(dv):
                        continue
                edges.append(DepEdge(first, second, dv, OUTPUT))
    return edges
