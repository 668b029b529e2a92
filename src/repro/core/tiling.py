"""Cache-blocked tiling of scheduled loop nests for the C backend.

The scheduled loop IR produced by :mod:`repro.core.schedule` executes
each array's loops in dependence-legal order, but streams the whole
iteration space: once the arrays outgrow L2 every sweep pays full
memory bandwidth.  This pass rewrites a *legal* nest into blocked
(tiled) form — tile loops for every tiled axis outermost, clamped
point loops inside — so each tile's working set stays cache-resident
across the fused clauses that touch it.

Legality comes straight from the paper's §5 direction vectors, which
the pipeline already computes for scheduling, fusion, and distribution:

* rectangular tiling (lexicographic tile order, unchanged point order
  within a tile) is a reordering of the iteration space that preserves
  every dependence iff **every component of every dependence direction
  vector is '<' or '='** — i.e. the nest is fully permutable.  Constant
  -offset stencils over *other* arrays carry no self dependence at all
  and tile trivially (the tile reads a halo skirt of its inputs);
  Gauss-Seidel/SOR sweeps whose reads all sit at lexicographically
  non-positive offsets yield all-'<'/'=' vectors and tile in place.
* a '>' (or unknown '*') component anywhere means some dependence
  crosses tiles against the tile order — e.g. a read at offset
  ``(+1, -2)`` — and the nest is rejected with a reasoned fallback.

Further structural requirements (each rejection is reasoned, surfaced
through ``Report.tiling`` and the ``tile`` explain area):

* a single perfect forward chain of loops with ``step == 1`` (multi-
  pass schedules and backward passes keep their original order);
* rectangular bounds — no inner bound may reference an outer index
  (triangular nests are not blocked in v1);
* no snapshot rings or hoisted temporaries (their ring/temp protocol
  encodes the original iteration order);
* no accumulated arrays (re-associating float accumulation would break
  bit-identity with the oracle).

Only C kernels run tile loops: python loops are interpreter-bound, not
memory-bound, so blocking them never paid (EXPERIMENTS.md, E26).  The
pipeline plans tiles for C units only, and turns an accepted plan into
a reasoned fallback when the C backend hands the unit to the python
emitter (:func:`repro.core.pipeline._codegen`).

Tile sizes come from a small cache model (target: half of a
conservative L2 share divided across the arrays a point touches), or
from an explicit ``tile=N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.schedule import EITHER, FORWARD, Schedule, \
    ScheduledClause, ScheduledLoop
from repro.lang import ast
from repro.obs.trace import count

#: Conservative per-core L2 working-set target, in bytes.  Half is
#: left for the output tile and incidental traffic.
L2_TARGET_BYTES = 1 << 20


class TileReject(Exception):
    """A nest that cannot be tiled, with the reason why."""


@dataclass
class TilePlan:
    """The outcome of tiling analysis for one compilation unit.

    ``ok`` False records a reasoned rejection (``note`` says why) so
    reports and ``explain`` can surface the fallback; the untiled
    emitters then run unchanged.
    """

    ok: bool = True
    #: Tiled loop variables, outermost first.
    loop_vars: Tuple[str, ...] = ()
    #: Tile edge per tiled loop, aligned with ``loop_vars``.
    sizes: Tuple[int, ...] = ()
    #: ``"rect"`` (no carried dependence) or ``"lex"`` (dependences
    #: all lexicographically non-negative; tile order must stay
    #: lexicographic).
    kind: str = "rect"
    #: Where the sizes came from: ``explicit`` or ``auto``.
    source: str = "auto"
    #: Modeled halo skirt read per tile boundary cell, summed over
    #: axes (0 for pointwise nests).  Obs estimate only.
    halo: int = 0
    note: str = ""

    def summary(self) -> str:
        if not self.ok:
            return f"rejected: {self.note}"
        dims = " x ".join(
            f"{var}:{size}" for var, size in zip(self.loop_vars, self.sizes)
        )
        return f"{self.kind} tiles [{dims}] ({self.source}), halo {self.halo}"


def _perfect_chain(schedule: Schedule):
    """The nest as (loops outermost-first, innermost clauses).

    Raises :class:`TileReject` unless the schedule is one perfect
    chain: each level holds exactly one loop until a level of clauses.
    """
    loops: List[ScheduledLoop] = []
    items = schedule.items
    while True:
        if all(isinstance(item, ScheduledClause) for item in items):
            if not loops:
                raise TileReject("no loops to tile")
            return loops, [item.clause for item in items]
        if len(items) != 1 or not isinstance(items[0], ScheduledLoop):
            raise TileReject(
                "schedule is not a single perfect loop chain "
                "(multi-pass or mixed clause/loop levels)"
            )
        loops.append(items[0])
        items = items[0].body


def _check_rectangular(loops: List[ScheduledLoop]) -> None:
    outer_vars: set = set()
    for scheduled in loops:
        loop = scheduled.loop
        # 'either' means no dependence constrains the loop; the plain
        # emitter runs it forward, and so does the tiled nest.
        if scheduled.direction not in (FORWARD, EITHER):
            raise TileReject(
                f"loop {loop.var} runs {scheduled.direction}; only "
                "forward nests are tiled"
            )
        if loop.step != 1:
            raise TileReject(
                f"loop {loop.var} has step {loop.step}; only unit-"
                "stride nests are tiled"
            )
        for bound in (loop.start, loop.stop):
            used = ast.free_vars(bound) & outer_vars
            if used:
                raise TileReject(
                    f"loop {loop.var} has non-rectangular bounds "
                    f"(references {', '.join(sorted(used))})"
                )
        outer_vars.add(loop.var)


def check_permutable(loops: List[ScheduledLoop], edges) -> str:
    """Reject, with :class:`TileReject`, a nest that a reordering of
    its iteration space could break; else return the plan kind.

    ``loops`` (outermost first) must run forward with unit stride over
    rectangular bounds, and every edge in ``edges`` must have only
    '<'/'=' components.  Tiles and the C backend's row strips
    (:meth:`repro.backends.c._CEmitter.emit_strip`) both keep every
    such dependence in order.
    """
    _check_rectangular(loops)
    return _check_directions(edges)


def _check_directions(edges) -> str:
    """All-'<'/'=' direction vectors, or reject.  Returns the kind."""
    carried = False
    for edge in edges:
        for symbol in edge.direction:
            if symbol == "<":
                carried = True
            elif symbol != "=":
                raise TileReject(
                    f"dependence {edge!r} has a '{symbol}' direction "
                    "component; tiles would run against it"
                )
    return "lex" if carried else "rect"


def _halo_widths(clauses, depth: int) -> Tuple[int, ...]:
    """Modeled halo skirt per axis from constant-offset reads.

    Uses the normalized affine subscripts already extracted by the
    front end; reads that are not single-variable unit-coefficient
    forms contribute nothing (the model under- rather than over-
    counts).
    """
    lo = [0] * depth
    hi = [0] * depth
    for clause in clauses:
        write = clause.subscripts
        for read in clause.reads:
            if read.subscripts is None or write is None:
                continue
            if len(read.subscripts) != len(write):
                continue
            for axis, (rdim, wdim) in enumerate(
                zip(read.subscripts, write)
            ):
                if axis >= depth:
                    break
                roff = _unit_offset(rdim)
                woff = _unit_offset(wdim)
                if roff is None or woff is None:
                    continue
                rvar, rconst = roff
                wvar, wconst = woff
                if rvar != wvar:
                    continue
                delta = rconst - wconst
                if delta < 0:
                    lo[axis] = max(lo[axis], -delta)
                else:
                    hi[axis] = max(hi[axis], delta)
    return tuple(lo[a] + hi[a] for a in range(depth))


def _unit_offset(affine) -> Optional[Tuple[str, int]]:
    """``(var, const)`` for a ``var + const`` affine form, else None."""
    items = list(affine.coeffs.items())
    if len(items) != 1 or items[0][1] != 1:
        return None
    return items[0][0], affine.const


def _auto_sizes(depth: int, arrays_touched: int,
                halos: Tuple[int, ...]) -> Tuple[int, ...]:
    """Cache-model tile edges: fit the tile working set in L2/2.

    Working set per point ~ 8 bytes per array touched (plus the
    output); the halo skirt widens each axis's footprint, so it is
    subtracted from the edge after the isotropic split.
    """
    budget_cells = max(
        64, (L2_TARGET_BYTES // 2) // (8 * max(1, arrays_touched + 1))
    )
    edge = int(round(budget_cells ** (1.0 / depth)))
    sizes = []
    for axis in range(depth):
        size = max(8, edge - halos[axis])
        sizes.append(size)
    return tuple(sizes)


def plan_tiling(schedule: Schedule, edges, *, mode: str,
                tile, inplace_plan=None) -> TilePlan:
    """Decide whether — and how — to tile one scheduled nest.

    ``tile`` is the user spec (``"auto"`` or an int >= 1, as
    :class:`~repro.codegen.emit.CodegenOptions` guarantees).  Returns
    an ``ok`` plan, or an ``ok=False`` plan carrying the rejection
    reason; never raises.
    """
    try:
        if mode == "accum":
            raise TileReject(
                "accumulated arrays fold colliding stores in source "
                "order; tiling would re-associate the float combine"
            )
        if mode not in ("thunkless", "inplace"):
            raise TileReject(
                f"{mode} compilation reorders or suspends stores; "
                "only thunkless and in-place nests are tiled"
            )
        if inplace_plan is not None:
            if inplace_plan.snapshots:
                raise TileReject(
                    "snapshot rings encode the original iteration "
                    "order; a tiled sweep would replay them wrongly"
                )
            if inplace_plan.hoisted:
                raise TileReject(
                    "hoisted temporaries encode the original "
                    "iteration order"
                )
        loops, clauses = _perfect_chain(schedule)
        kind = check_permutable(loops, edges)
        depth = len(loops)
        halos = _halo_widths(clauses, depth)

        arrays_touched = len({
            read.array for clause in clauses for read in clause.reads
        })
        if tile == "auto":
            sizes = _auto_sizes(depth, arrays_touched, halos)
            source = "auto"
        else:
            sizes = (tile,) * depth
            source = "explicit"
        count("tile.planned")
        return TilePlan(
            ok=True,
            loop_vars=tuple(item.loop.var for item in loops),
            sizes=sizes,
            kind=kind,
            source=source,
            halo=sum(halos),
            note="",
        )
    except TileReject as exc:
        count("tile.rejected")
        return TilePlan(ok=False, note=str(exc))
