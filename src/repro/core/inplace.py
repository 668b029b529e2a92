"""In-place update planning: node-splitting temporaries (paper §9).

When a new array reuses the storage of a dead input array (``bigupd``,
or a monolithic definition compiled over the input's buffer), every
read of an old cell must happen before the write that kills it.  The
scheduler treats anti edges like true edges; cycles through at least
one anti edge are broken by **node-splitting** — saving the
about-to-be-overwritten values in temporaries.

Given the final schedule (loop directions and within-instance clause
order), this module classifies every read of the old array:

* **direct** — the scheduled order reads the cell before any write
  kills it: no copy at all;
* **snapshot** — a self-clause uniform-stencil read whose cell was
  overwritten ``d`` iterations ago at loop level ``l``: keep a ring of
  the last ``d`` old "slabs" at that level (a scalar ring innermost, a
  row vector for outer levels — the paper's Jacobi temporaries);
* **hoist** — a same-instance read of a cell another clause's store in
  the same instance kills first (the paper's LINPACK row swap): load it
  into a temporary at the top of the instance.

Reads that conform to none of these (non-stencil subscripts with
unsatisfied anti dependences) force ``whole_copy``: copy the input once
up front and read from the copy — precisely the naive strategy the
paper's node-splitting is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.comprehension.loopir import ArrayComp, Read, SVClause
from repro.core.direction import refine_directions
from repro.core.subscripts import Reference, build_equations

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class StencilWrite:
    """A write whose dimension *k* is ``loops[dim_loop[k]] + offset[k]``."""

    dim_loop: Tuple[int, ...]
    offset: Tuple[int, ...]


@dataclass
class SnapshotSpec:
    """Keep the last ``depth`` old slabs of ``clause`` at loop ``level``."""

    clause: SVClause
    level: int
    depth: int

    def __repr__(self):
        return (
            f"SnapshotSpec({self.clause.label}, level={self.level}, "
            f"depth={self.depth})"
        )


@dataclass
class ReadPlan:
    """How one read of the old array is compiled.

    ``mode``: ``"direct"``, ``"snapshot"`` (level/distance/deltas
    filled), or ``"hoist"`` (temp_name filled).  ``deltas`` is the full
    per-loop-level offset of the read relative to the clause's write —
    the levels below ``level`` locate the cell inside a snapshot slab.
    """

    read: Read
    mode: str
    level: int = -1
    distance: int = 0
    deltas: tuple = ()
    temp_name: str = ""


@dataclass
class InPlacePlan:
    """The complete buffering plan for one in-place compilation.

    ``copies_per_sweep(extents)`` is not provided here — benchmarks
    measure actual copy traffic through the runtime counters.
    """

    old_array: str
    mode: str  # 'split' or 'whole_copy'
    read_plans: Dict[int, List[ReadPlan]] = field(default_factory=dict)
    snapshots: List[SnapshotSpec] = field(default_factory=list)
    reason: str = ""

    def plans_for(self, clause: SVClause) -> List[ReadPlan]:
        """The read plans of one clause (old-array reads only)."""
        return self.read_plans.get(clause.index, [])

    @property
    def hoisted(self) -> List[ReadPlan]:
        """All hoisted-read plans (for emitters and tests)."""
        return [
            plan
            for plans in self.read_plans.values()
            for plan in plans
            if plan.mode == "hoist"
        ]


def _stencil_write(clause: SVClause) -> Optional[StencilWrite]:
    """Recognize the uniform-stencil write shape, or ``None``."""
    if clause.subscripts is None:
        return None
    loop_vars = [loop.info.var for loop in clause.loops]
    dim_loop = []
    offsets = []
    used = set()
    for dim in clause.subscripts:
        items = list(dim.coeffs.items())
        if len(items) != 1 or items[0][1] != 1:
            return None
        var = items[0][0]
        if var not in loop_vars or var in used:
            return None
        used.add(var)
        dim_loop.append(loop_vars.index(var))
        offsets.append(dim.const)
    return StencilWrite(tuple(dim_loop), tuple(offsets))


def _read_delta(
    read: Read, write: StencilWrite, clause: SVClause
) -> Optional[Tuple[int, ...]]:
    """Offsets (per loop level) of a self-stencil read, or ``None``.

    The read's cell is the one this clause writes at instance
    ``current + delta``.
    """
    if read.subscripts is None:
        return None
    if len(read.subscripts) != len(write.dim_loop):
        return None
    delta = [0] * len(clause.loops)
    loop_vars = [loop.info.var for loop in clause.loops]
    for dim, sub in enumerate(read.subscripts):
        loop_pos = write.dim_loop[dim]
        expected_var = loop_vars[loop_pos]
        items = list(sub.coeffs.items())
        if len(items) != 1 or items[0][1] != 1 or items[0][0] != expected_var:
            return None
        delta[loop_pos] = sub.const - write.offset[dim]
    return tuple(delta)


def _direction_satisfied(symbol: str, direction: str) -> bool:
    """Whether a carried anti component is honored by a loop direction."""
    if symbol == "<":
        return direction in (FORWARD, "either")
    if symbol == ">":
        return direction == BACKWARD
    return False


def plan_inplace(
    comp: ArrayComp,
    old_array: str,
    clause_directions: Dict[int, Tuple[str, ...]],
    clause_positions: Dict[int, int],
) -> InPlacePlan:
    """Classify every read of ``old_array`` under the final schedule.

    ``clause_directions`` maps clause index to the directions of its
    surrounding scheduled loops (outermost first);
    ``clause_positions`` maps clause index to its within-schedule
    order (from ``Schedule.clause_order``).
    """
    plan = InPlacePlan(old_array=old_array, mode="split")
    temp_counter = 0

    def fail(reason: str) -> InPlacePlan:
        return InPlacePlan(
            old_array=old_array, mode="whole_copy", reason=reason
        )

    snapshot_depth: Dict[Tuple[int, int], int] = {}

    for clause in comp.clauses:
        plans: List[ReadPlan] = []
        directions = clause_directions.get(
            clause.index, ("forward",) * len(clause.loops)
        )
        write = _stencil_write(clause)
        for read in clause.reads:
            if read.array != old_array:
                continue
            decided = self_read_plan(
                comp, clause, read, write, directions, snapshot_depth
            )
            if decided == "nonconforming":
                return fail(
                    f"{clause.label}: unsatisfied anti dependence on a "
                    "non-stencil read"
                )
            # Kills by *other* clauses apply regardless of the
            # self-clause verdict.
            outcome = cross_read_plan(
                comp, clause, read, old_array, clause_positions, directions
            )
            if outcome == "nonconforming":
                return fail(
                    f"{clause.label}: cross-clause anti dependence "
                    "without a usable hoist point"
                )
            if outcome == "hoist":
                if decided is not None and decided.mode == "snapshot":
                    # A read needing both a ring and a hoist is outside
                    # the temporaries model.
                    return fail(
                        f"{clause.label}: read killed both across "
                        "iterations and within the instance"
                    )
                temp_counter += 1
                plans.append(
                    ReadPlan(read, "hoist", temp_name=f"_t{temp_counter}")
                )
                continue
            if decided is not None:
                plans.append(decided)
            else:
                plans.append(ReadPlan(read, "direct"))
        plan.read_plans[clause.index] = plans

    for (clause_index, level), depth in sorted(snapshot_depth.items()):
        plan.snapshots.append(
            SnapshotSpec(comp.clauses[clause_index], level, depth)
        )
    return plan


def self_read_plan(
    comp: ArrayComp,
    clause: SVClause,
    read: Read,
    write: Optional[StencilWrite],
    directions: Tuple[str, ...],
    snapshot_depth: Dict[Tuple[int, int], int],
):
    """Plan a read against the clause's *own* writes.

    Returns a :class:`ReadPlan` when this clause's writes are what
    (possibly) kill the cell; ``None`` when they never alias it (other
    clauses must be checked); ``"nonconforming"`` when the read needs
    protection but does not fit the stencil model — in particular
    whenever either side is opaque: a write through an index array
    (``a!(p!i)``) can kill any cell, before or after its read.
    """
    write_ref = clause.write_reference(read.array)
    if write_ref is None or read.subscripts is None:
        return "nonconforming"
    read_ref = Reference(read.array, read.subscripts, clause.loop_infos,
                         clause=clause)
    dvs = refine_directions(build_equations(read_ref, write_ref))
    dvs = {dv for dv in dvs if any(s != "=" for s in dv)}
    if not dvs:
        return None
    # Which of the possible kill directions are violated by the
    # schedule?  ('<' at the first non-'=' level is satisfied by a
    # forward loop, '>' by a backward loop.)
    violated = []
    for dv in dvs:
        level = next(k for k, s in enumerate(dv) if s != "=")
        if not _direction_satisfied(dv[level], directions[level]):
            violated.append((level, dv))
    if not violated:
        return ReadPlan(read, "direct")
    if write is None:
        return "nonconforming"
    delta = _read_delta(read, write, clause)
    if delta is None:
        return "nonconforming"
    outer = next((k for k, value in enumerate(delta) if value != 0), None)
    if outer is None:
        return ReadPlan(read, "direct")
    distance = abs(delta[outer])
    key = (clause.index, outer)
    snapshot_depth[key] = max(snapshot_depth.get(key, 0), distance)
    return ReadPlan(read, "snapshot", level=outer, distance=distance,
                    deltas=tuple(delta))


def cross_read_plan(
    comp: ArrayComp,
    clause: SVClause,
    read: Read,
    old_array: str,
    clause_positions: Dict[int, int],
    directions: Tuple[str, ...],
):
    """Plan a read against *other* clauses' writes.

    Returns ``"direct"``, ``"hoist"``, or ``"nonconforming"``.
    """
    if read.subscripts is None:
        killers = [w for w in comp.clauses if w is not clause
                   and w.write_reference(old_array) is not None]
        return "nonconforming" if killers else "direct"
    read_ref = Reference(old_array, read.subscripts, clause.loop_infos,
                         clause=clause)
    outcome = "direct"
    for writer in comp.clauses:
        if writer is clause:
            continue
        write_ref = writer.write_reference(old_array)
        if write_ref is None:
            return "nonconforming"
        for dv in refine_directions(build_equations(read_ref, write_ref)):
            if all(s == "=" for s in dv):
                # Same instance: safe iff the reader runs first.
                reader_pos = clause_positions.get(clause.index, 0)
                writer_pos = clause_positions.get(writer.index, 0)
                if reader_pos > writer_pos:
                    # Hoisting saves the value at the top of the shared
                    # instance; that only exists when both clauses live
                    # under the very same loops.
                    if clause.loops != writer.loops:
                        return "nonconforming"
                    outcome = "hoist"
                continue
            level = next(k for k, s in enumerate(dv) if s != "=")
            if not _direction_satisfied(dv[level], directions[level]):
                return "nonconforming"
    return outcome
