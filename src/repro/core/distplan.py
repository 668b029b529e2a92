"""Distribution planning: block-partitioned convergence sweeps.

The program driver (:mod:`repro.program.run`) executes ``iterate``/
``converge`` bindings as whole-array sweeps.  This module decides, at
compile time, whether those sweeps can be *block-partitioned* across a
process pool (:mod:`repro.dist`) and how:

* **dep-free** — no read of the sweep array carries a partition-axis
  offset: blocks run fully independently, one barrier per sweep.
* **stencil** — reads carry constant offsets (the §5 direction-vector
  machinery already proves them constant): blocks run independently
  within a sweep because the previous sweep's array is complete in
  shared memory; the per-neighbour halo widths are recorded and
  accounted (``dist.halo.cells``).
* **wavefront** — the §9 in-place sweep (SOR): blocks cannot run a
  whole sweep independently because north/west reads see *new* values.
  The mesh is split into column blocks x row chunks and executed in
  skewed stages ``stage = block + chunk`` with a barrier per stage, the
  classic software pipeline over the paper's §10 hyperplane.

Everything that does not fit is a *reasoned fallback*: the binding runs
single-process and the reason lands in ``ProgramReport.fallbacks``
(prefix ``dist``) and the ``dist`` explain area.

Double-buffer sweeps have three row placements, pavings of one row
space that differ only in their row blocks and read rule, planned by
one builder (:func:`_row_plan`) and run by one kernel emitted once per
binding (:func:`double_kernel`): the one-block placement, in memory
(:func:`plan_block`); dist row blocks (:func:`plan_distribution`);
and out-of-core row tiles (:func:`plan_outofcore`).

Legality
--------
For **double-buffer** sweeps the argument is locality-free: every read
of the sweep array resolves against the previous sweep's buffer, which
is complete in shared memory once the sweep barrier passes, so any
partition of the *writes* is legal as long as (a) each cell is written
by exactly one block (write subscripts on the partition axis are
``var + const`` or ``const``, so clamping the loop window / guarding
the constant row partitions the writes exactly) and (b) the step is
provably total (unwritten cells would otherwise leak the sweep-before-
last buffer, which the single-process path never exposes).

For **wavefront** sweeps all reads and writes go through one buffer.
With ``stage(cell) = block(col) + chunk(row)`` and a barrier between
stages, the staged execution is a permutation of the single-process
statement order; it computes bit-identical results iff every
(write W, read R) pair on the sweep buffer keeps its relative order.
Writes/reads in the *same* stage run in the original nest order
(identical rectangle, identical scan), so only cross-stage pairs
matter.  A read at constant offset ``(p, q)`` from its clause's write
targets a cell whose stage differs by ``sign``: if ``p <= 0`` and
``q <= 0`` the source stage is never later, if ``p >= 0`` and
``q >= 0`` never earlier; mixed signs are indeterminate and rejected.
It remains to check *cross-clause* order: for a read in clause ``k``
at offset ``(p, q)``, any clause ``k'`` writing into
``region(k) + (p, q)`` must satisfy ``k' <= k`` in statement order
when ``(p, q) <= 0`` (the staged schedule may move that write earlier)
and ``k' >= k`` when ``(p, q) >= 0`` (the staged schedule may move it
later) — checked on the concrete write rectangles.  Offset ``(0, 0)``
reads are always safe (same cell, same stage, local order = global
order).  Finally, a clause carrying a nonzero-offset read must be
scheduled *forward*: stage numbers ascend with the forward scan, so
only then does "earlier stage" coincide with "earlier in the original
scan" for its within-clause pairs.  Zero-offset and read-free clauses
may scan in either direction (and under double buffering direction
never matters at all).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.affine import NonAffineError, affine_from_ast
from repro.core.schedule import ScheduledClause, ScheduledLoop
from repro.lang import ast

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None


class DistReject(Exception):
    """The binding cannot be distributed; the message is the reason."""


# ----------------------------------------------------------------------
# Plan data model (picklable: it rides IteratePlan through the service
# disk tier).


@dataclass
class LoopClamp:
    """One loop whose bounds become per-rectangle environment values.

    The kernel's loop runs ``range(_env[env_start], _env[env_stop]+1)``;
    the worker computes, per rectangle window ``[wlo, whi]`` on
    ``axis``: ``start = max(lo, wlo - offset)``,
    ``stop = min(hi, whi - offset)`` (the clause writes
    ``var + offset`` on that axis).
    """

    env_start: str
    env_stop: str
    axis: int
    offset: int
    lo: int
    hi: int


@dataclass
class DistKernel:
    """One emitted block kernel plus the metadata workers need."""

    source: str
    entry: str = "_build"
    #: Loop-bound stand-ins the worker fills per rectangle.
    clamps: Tuple[LoopClamp, ...] = ()
    #: Axes ``a`` for which the kernel reads ``_dga{a}_s``/``_dga{a}_e``
    #: membership-guard bounds (constant-subscript clauses).
    guard_axes: Tuple[int, ...] = ()
    #: Environment names the kernel fetches (beyond the stand-ins).
    env_names: Tuple[str, ...] = ()
    #: Innermost loops (by variable) that hold a row-window clause and
    #: that the §10 vector path left scalar.
    scalar_loops: Tuple[str, ...] = ()


@dataclass
class DistBindingPlan:
    """How one iterate binding distributes over ``workers`` blocks."""

    name: str
    #: 'dep-free' | 'stencil' | 'wavefront'
    kind: str
    #: Sweep mode this plan was built for: 'double' | 'inplace'.
    mode: str
    workers: int
    rank: int
    #: Concrete bounds ((lo0, ...), (hi0, ...)).
    low: Tuple[int, ...]
    high: Tuple[int, ...]
    #: The step function's parameter (the sweep array's env name).
    param: str
    #: Double mode: per-worker write windows (lo, hi) on axis 0
    #: (empty windows are (1, 0)-style lo > hi).
    row_blocks: Tuple[Tuple[int, int], ...] = ()
    #: Wavefront: per-worker column windows on axis 1.
    col_blocks: Tuple[Tuple[int, int], ...] = ()
    #: Wavefront: row-chunk windows on axis 0 (pipeline stages).
    chunks: Tuple[Tuple[int, int], ...] = ()
    #: Halo widths on the partition axis (toward lower/higher indices).
    halo_lo: int = 0
    halo_hi: int = 0
    #: Wavefront: halo widths on the chunk axis.
    chunk_halo_lo: int = 0
    chunk_halo_hi: int = 0
    #: Cells crossing internal block boundaries per sweep (accounting;
    #: correctness never depends on it — the buffer is shared).
    halo_cells_per_sweep: int = 0
    #: Wavefront: stages per sweep (= blocks + chunks - 1).
    stages: int = 0
    kernel: Optional[DistKernel] = None
    #: Positive planning decisions, for the report's dist area.
    notes: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Small helpers over the loop IR.


def _const_eval(node: ast.Node, params) -> int:
    """Concrete integer value of a bound expression, or DistReject."""
    try:
        affine = affine_from_ast(node, params)
    except NonAffineError as exc:
        raise DistReject(f"loop bound is not affine ({exc})") from exc
    if not affine.is_constant():
        raise DistReject(
            "loop bounds are not static — block windows need concrete "
            f"trip counts (free: {sorted(affine.vars)})"
        )
    return affine.const


def _write_dims(clause) -> List[ast.Node]:
    sub = clause.subscript_ast
    return list(sub.items) if isinstance(sub, ast.TupleExpr) else [sub]


def _read_dims(node: ast.Index) -> List[ast.Node]:
    idx = node.idx
    return list(idx.items) if isinstance(idx, ast.TupleExpr) else [idx]


def _flatten_schedule(items, out, directions):
    """Clause statement order + per-loop directions, schedule order."""
    for item in items:
        if isinstance(item, ScheduledClause):
            out.append(item.clause)
        elif isinstance(item, ScheduledLoop):
            directions[id(item.loop)] = item.direction
            _flatten_schedule(item.body, out, directions)


def split_windows(lo: int, hi: int, parts: int) -> List[Tuple[int, int]]:
    """Partition the inclusive range [lo, hi] into ``parts`` windows.

    Remainder cells go to the leading windows (block sizes differ by at
    most one); when the extent is smaller than ``parts`` the tail
    windows are empty, encoded as (x, x-1).
    """
    extent = hi - lo + 1
    if extent < 0:
        extent = 0
    base, rem = divmod(extent, parts)
    windows = []
    cursor = lo
    for index in range(parts):
        size = base + (1 if index < rem else 0)
        windows.append((cursor, cursor + size - 1))
        cursor += size
    return windows


_FLOAT_INTRINSICS = {"sqrt", "exp", "log", "sin", "cos", "fromIntegral"}


def value_provably_float(node: ast.Node, params) -> bool:
    """Whether a clause value is provably float at run time.

    Distribution stores cells in shared float64 buffers; a value that
    could be an ``int`` would silently coerce, diverging from the
    single-process list cells (``5`` vs ``5.0``).  Array reads count as
    float because every array shipped to workers is float-verified at
    run time (the driver falls back single-process otherwise).
    """
    params = params or {}
    if isinstance(node, ast.Lit):
        return isinstance(node.value, float)
    if isinstance(node, ast.Index):
        return True
    if isinstance(node, ast.Var):
        return isinstance(params.get(node.name), float)
    if isinstance(node, ast.UnOp) and node.op == "-":
        return value_provably_float(node.operand, params)
    if isinstance(node, ast.BinOp):
        if node.op == "/":
            return True
        if node.op in ("+", "-", "*"):
            return (value_provably_float(node.left, params)
                    or value_provably_float(node.right, params))
        return False
    if isinstance(node, ast.If):
        return (value_provably_float(node.then, params)
                and value_provably_float(node.else_, params))
    if isinstance(node, ast.App) and isinstance(node.fn, ast.Var):
        if node.fn.name in _FLOAT_INTRINSICS:
            return True
        return False
    if isinstance(node, ast.Let):
        return value_provably_float(node.body, params)
    return False


#: Intrinsics that raise in Python for some float arguments, and the
#: argument position that decides it.
_TRAP_FNS = {"div": 1, "mod": 1, "sqrt": 0}


def _nonzero_literal(node: ast.Node) -> bool:
    if isinstance(node, ast.UnOp) and node.op == "-":
        node = node.operand
    return (isinstance(node, ast.Lit)
            and type(node.value) in (int, float) and node.value != 0)


def _non_negative(node: ast.Node) -> bool:
    if isinstance(node, ast.Lit):
        return type(node.value) in (int, float) and node.value >= 0
    return (isinstance(node, ast.App) and isinstance(node.fn, ast.Var)
            and node.fn.name == "abs" and len(node.args) == 1)


def float_trap(node: ast.Node) -> Optional[str]:
    """An operation in ``node`` that may raise in Python but not on
    float64 buffers, or ``None``.

    Python raises on a zero divisor (``/``, ``%``, ``div``, ``mod``)
    and on ``sqrt`` of a negative, where numpy arrays and scalars give
    inf or NaN with only a warning.  A nonzero literal divisor and
    ``sqrt`` of a non-negative literal or of an ``abs`` cannot raise
    (``sqrt`` of NaN is NaN in both).  Every other operation a block
    kernel runs raises, or does not, as the list path does.
    """
    children = node.children()
    if isinstance(node, ast.BinOp) and node.op in ("/", "%"):
        if not _nonzero_literal(node.right):
            return f"{node.op!r} by a divisor that is not a nonzero literal"
    elif isinstance(node, ast.App) and isinstance(node.fn, ast.Var) \
            and node.fn.name in _TRAP_FNS:
        name, at = node.fn.name, _TRAP_FNS[node.fn.name]
        safe = _non_negative if name == "sqrt" else _nonzero_literal
        if len(node.args) != at + 1 or not safe(node.args[at]):
            return (f"{name!r} of an argument that is not a "
                    + ("non-negative literal or an abs" if name == "sqrt"
                       else "nonzero literal"))
        children = node.args
    elif isinstance(node, ast.Var) and node.name in _TRAP_FNS:
        return f"{node.name!r} used as a value"
    for child in children:
        found = float_trap(child)
        if found:
            return found
    return None


# ----------------------------------------------------------------------
# Per-clause geometry: how the write partitions along an axis.


class _AxisWrite:
    """A clause's write on one axis: ``var + offset`` or a constant."""

    __slots__ = ("var", "offset", "const")

    def __init__(self, var=None, offset=0, const=None):
        self.var = var
        self.offset = offset
        self.const = const


def _axis_write(clause, axis: int, params) -> _AxisWrite:
    dims = _write_dims(clause)
    if axis >= len(dims):
        raise DistReject(
            f"{clause.label}: write has rank {len(dims)}, expected at "
            f"least {axis + 1}"
        )
    try:
        affine = affine_from_ast(dims[axis], params)
    except NonAffineError as exc:
        raise DistReject(
            f"{clause.label}: write subscript on axis {axis} is not "
            f"affine ({exc})"
        ) from exc
    if affine.is_constant():
        return _AxisWrite(const=affine.const)
    if len(affine.coeffs) != 1:
        raise DistReject(
            f"{clause.label}: write subscript on axis {axis} mixes "
            f"loop indices ({sorted(affine.vars)}) — no single "
            "partition window exists"
        )
    (var, coeff), = affine.coeffs.items()
    if coeff != 1:
        raise DistReject(
            f"{clause.label}: write subscript on axis {axis} strides "
            f"by {coeff} — clamping the loop window would misalign "
            "the blocks"
        )
    return _AxisWrite(var=var, offset=affine.const)


def _clause_loop(clause, var: str):
    for loop in clause.loops:
        if loop.var == var:
            return loop
    raise DistReject(
        f"{clause.label}: write index {var!r} is not a generator of "
        "this clause"
    )


def _read_offset(clause, read_node, write_cols, params, array,
                 rank: int):
    """Constant per-axis offsets of one read relative to the write.

    Returns a tuple of ints, or ``None`` for a *broadcast* read (the
    offset is not constant — e.g. a fixed boundary row read from every
    block).  Broadcast reads are legal in double mode (the source
    buffer is complete and shared) but reject wavefront staging.
    """
    dims = _read_dims(read_node)
    if len(dims) != rank:
        raise DistReject(
            f"{clause.label}: reads {array!r} with rank {len(dims)}, "
            f"array rank is {rank}"
        )
    offsets = []
    for axis in range(rank):
        try:
            read_affine = affine_from_ast(dims[axis], params)
        except NonAffineError as exc:
            raise DistReject(
                f"{clause.label}: read of {array!r} has a non-affine "
                f"subscript on axis {axis} ({exc})"
            ) from exc
        write = write_cols[axis]
        if write.const is not None:
            if read_affine.is_constant():
                offsets.append(read_affine.const - write.const)
                continue
            return None
        # offset = read - (var + write.offset); constant iff the read
        # is var + d on this axis.
        delta = read_affine
        if delta.coeff(write.var) == 1 and len(delta.coeffs) == 1:
            offsets.append(delta.const - write.offset)
            continue
        if delta.is_constant():
            return None
        raise DistReject(
            f"{clause.label}: read of {array!r} on axis {axis} is "
            f"neither a constant offset from the write nor a constant "
            f"row ({delta!r})"
        )
    return tuple(offsets)


def _clause_region(clause, rank: int, params) -> List[Tuple[int, int]]:
    """The clause's concrete write rectangle, per axis (inclusive)."""
    region = []
    for axis in range(rank):
        write = _axis_write(clause, axis, params)
        if write.const is not None:
            region.append((write.const, write.const))
            continue
        loop = _clause_loop(clause, write.var)
        lo = _const_eval(loop.start, params)
        hi = _const_eval(loop.stop, params)
        region.append((lo + write.offset, hi + write.offset))
    return region


def _regions_intersect(a, b) -> bool:
    return all(alo <= bhi and blo <= ahi
               for (alo, ahi), (blo, bhi) in zip(a, b))


def _shift_region(region, offsets):
    return [(lo + d, hi + d) for (lo, hi), d in zip(region, offsets)]


# ----------------------------------------------------------------------
# The planner proper.


def _common_checks(report, params):
    """Structural checks shared by every block/tile partitioning.

    Raises :class:`DistReject` unless the step has static bounds, a
    complete static schedule, affine unit-stride writes and provably
    float values.  Returns ``(low, high, rank, order, clause_pos,
    directions)``.
    """
    comp = report.comp
    if comp is None or comp.bounds is None:
        raise DistReject("array bounds are not static")
    if report.schedule is None or not report.schedule.ok:
        raise DistReject("step has no static schedule")
    low = tuple(dim[0] for dim in comp.bounds.dims)
    high = tuple(dim[1] for dim in comp.bounds.dims)
    rank = comp.rank

    order: List = []
    directions: Dict[int, str] = {}
    _flatten_schedule(report.schedule.items, order, directions)
    clause_pos = {id(clause): k for k, clause in enumerate(order)}
    if len(clause_pos) != len(comp.clauses):
        raise DistReject("schedule does not place every clause exactly "
                         "once")

    for clause in comp.clauses:
        if clause.subscripts is None:
            raise DistReject(
                f"{clause.label}: non-affine write subscript"
            )
        if not value_provably_float(clause.value, params):
            raise DistReject(
                f"{clause.label}: value is not provably float — "
                "shared float64 buffers would coerce ints"
            )
        for loop in clause.loops:
            if loop.step != 1:
                raise DistReject(
                    f"{clause.label}: loop {loop.var!r} strides by "
                    f"{loop.step}"
                )
    return low, high, rank, order, clause_pos, directions


def plan_distribution(
    name: str,
    report,
    mode: str,
    param: str,
    params: Optional[Dict] = None,
    workers: int = 0,
    *,
    kernel,
) -> DistBindingPlan:
    """Build a :class:`DistBindingPlan` for one iterate binding.

    ``report`` is the step function's single-definition
    :class:`~repro.core.pipeline.Report`; ``mode`` the driver mode the
    program compiler picked (``'double'``/``'inplace'``); ``kernel``
    the binding's shared double-kernel builder (:func:`double_kernel`).
    Raises :class:`DistReject` with the reason when the binding must
    stay single-process.
    """
    if _np is None:
        raise DistReject("numpy is unavailable — shared float64 "
                         "buffers need it")
    if workers < 2:
        raise DistReject(
            f"workers={workers} — a single block is the single-process "
            "path; distribution skipped"
        )
    if mode == "double":
        return _plan_double(name, report, param, params, workers,
                            kernel)
    if mode == "inplace":
        low, high, rank, order, clause_pos, directions = \
            _common_checks(report, params)
        return _plan_wavefront(name, report, param, params, workers,
                               low, high, rank, order, clause_pos,
                               directions)
    raise DistReject(f"unknown iterate mode {mode!r}")


def _sweep_reads(comp, param):
    """Names whose reads resolve against the sweep buffer."""
    names = {param}
    if comp.name:
        names.add(comp.name)
    return names


def _row_split(report, param, params, low, high, unit: str,
               storage: str, window_only: bool):
    """Legality and halo of a double-buffer sweep split into row units.

    One analysis for the one-block placement and dist row blocks
    (``unit`` ``"block"``, ``storage`` ``"buffer"``) and out-of-core
    row tiles (``"tile"``, ``"file"``): every read resolves against the
    complete previous sweep, so any partition of the writes on axis 0
    is legal once each cell has one writer and the step is provably
    total.  ``window_only`` rejects broadcast reads (non-constant row
    offset), which a tile cannot serve because only its halo window is
    resident; a resident mesh counts them.  Returns ``(kind, halo_lo,
    halo_hi, tail, broadcast)``, ``tail`` being the cells per row.
    """
    comp = report.comp
    rank = len(low)
    if report.strategy != "thunkless":
        raise DistReject(
            f"step strategy is {report.strategy!r} — {unit} kernels "
            "re-emit the thunkless schedule"
        )
    if report.empties.checks_needed:
        raise DistReject(
            "step is not provably total — unwritten cells would leak "
            f"the sweep-before-last {storage}"
        )
    for clause in comp.clauses:
        for read in clause.reads:
            if comp.name and read.array == comp.name:
                raise DistReject(
                    f"{clause.label}: reads the step's own output "
                    f"{comp.name!r} — not a pure previous-sweep step"
                )

    # Write partition on axis 0: one clamp offset per loop (constant
    # rows are guarded instead).
    clamp_demand: Dict[int, int] = {}
    offsets = []
    broadcast = 0
    for clause in comp.clauses:
        write = _axis_write(clause, 0, params)
        if write.const is None:
            loop = _clause_loop(clause, write.var)
            previous = clamp_demand.setdefault(id(loop), write.offset)
            if previous != write.offset:
                raise DistReject(
                    f"{clause.label}: loop {loop.var!r} is shared by "
                    "clauses writing different axis-0 offsets "
                    f"({previous} vs {write.offset})"
                )
        write_cols = [_axis_write(clause, a, params)
                      for a in range(rank)]
        for read in clause.reads:
            if read.array != param:
                continue
            off = _read_offset(clause, read.node, write_cols, params,
                               param, rank)
            if off is not None:
                offsets.append(off)
            elif window_only:
                raise DistReject(
                    f"{clause.label}: broadcast read of {param!r} "
                    "(non-constant row offset) — only the tile's halo "
                    "window is resident, and a read outside it would "
                    "wrap through the shifted window bounds"
                )
            else:
                broadcast += 1

    halo_lo = max((-off[0] for off in offsets if off[0] < 0), default=0)
    halo_hi = max((off[0] for off in offsets if off[0] > 0), default=0)
    kind = "stencil" if (halo_lo or halo_hi) else "dep-free"
    tail = 1
    for axis in range(1, rank):
        tail *= high[axis] - low[axis] + 1
    return kind, halo_lo, halo_hi, tail, broadcast


def double_kernel(report, params):
    """The binding's double-buffer block kernel, emitted on first call.

    One builder serves every row placement of a binding (one block,
    dist blocks, out-of-core tiles), so the kernel is emitted once; a
    failed emission is not cached and raises again.
    """
    from repro.dist.kernel import build_double_kernel

    return functools.cache(lambda: build_double_kernel(report, params))


def _row_plan(name, report, param, params, kernel, workers, unit,
              storage, window_only, blocks):
    """The row placement of a double-buffer sweep, every placement's.

    ``blocks(low, high, tail, halo)`` gives the axis-0 row blocks and
    ``window_only`` the read rule (see :func:`_row_split`); ``kernel``
    is the binding's :func:`double_kernel` builder.  Returns ``(plan,
    broadcast, tail)``.
    """
    low, high, rank, _, _, _ = _common_checks(report, params)
    kind, halo_lo, halo_hi, tail, broadcast = _row_split(
        report, param, params, low, high, unit, storage, window_only)
    row_blocks = tuple(blocks(low, high, tail, halo_lo + halo_hi))
    internal = sum(1 for a, b in zip(row_blocks, row_blocks[1:])
                   if a[1] >= a[0] and b[1] >= b[0])
    plan = DistBindingPlan(
        name=name, kind=kind, mode="double", workers=workers,
        rank=rank, low=low, high=high, param=param,
        row_blocks=row_blocks, halo_lo=halo_lo, halo_hi=halo_hi,
        halo_cells_per_sweep=internal * (halo_lo + halo_hi) * tail,
    )
    plan.kernel = kernel()
    return plan, broadcast, tail


def plan_block(
    name: str,
    report,
    param: str,
    params: Optional[Dict] = None,
    *,
    kernel,
) -> DistBindingPlan:
    """The one-block placement of a double-buffer sweep.

    In memory is the one-tile paving of the row space: one block
    spanning axis 0, swept by the same vectorized block kernel the
    dist and out-of-core placements run, on two float64 buffers
    (:func:`repro.program.run._sweep_block`).  The whole mesh is
    resident, so broadcast reads are served.  No clause may hold a
    :func:`float_trap`: where the list path raises, as the oracle
    does, float64 buffers would return inf or NaN.  The block kernel
    must vectorize every innermost loop that holds a row-window
    clause: a scalar loop indexing float64 buffers is slower than the
    list path, which keeps such a step.  Raises :class:`DistReject`
    with the reason otherwise.
    """
    if _np is None:
        raise DistReject("numpy is unavailable — the block kernel "
                         "sweeps float64 buffers")
    plan, _, _ = _row_plan(
        name, report, param, params, kernel, 1, "block", "buffer",
        False, lambda low, high, tail, halo: [(low[0], high[0])])
    for clause in report.comp.clauses:
        for node in (clause.value, *clause.guards, *clause.lets):
            trap = float_trap(node)
            if trap:
                raise DistReject(
                    f"{clause.label}: {trap} — the list path raises "
                    "where float64 buffers give inf or NaN"
                )
    scalar = plan.kernel.scalar_loops
    if scalar:
        raise DistReject(
            "the block kernel leaves loop(s) " + ", ".join(scalar)
            + " scalar, and scalar access to float64 buffers is "
            "slower than the list path"
        )
    return plan


def _plan_double(name, report, param, params, workers,
                 kernel) -> DistBindingPlan:
    plan, broadcast, _ = _row_plan(
        name, report, param, params, kernel, workers, "block",
        "buffer", False,
        lambda low, high, tail, halo: split_windows(low[0], high[0],
                                                    workers))
    low, high, kind = plan.low, plan.high, plan.kind
    plan.notes.append(
        f"{name}: {kind} — axis 0 split into {workers} row block(s) "
        f"of ~{(high[0] - low[0] + 1 + workers - 1) // workers} row(s)"
    )
    if kind == "stencil":
        plan.notes.append(
            f"{name}: halo widths -{plan.halo_lo}/+{plan.halo_hi} "
            f"row(s); {plan.halo_cells_per_sweep} halo cell(s) cross "
            "block boundaries per sweep (served from the shared "
            "previous-sweep buffer)"
        )
    if broadcast:
        plan.notes.append(
            f"{name}: {broadcast} broadcast read(s) (non-constant "
            "offset) served from the shared buffer without halo "
            "accounting"
        )
    return plan


#: Default resident-byte target for out-of-core tiles: the two RAM
#: buffers (halo window + destination tile) together aim under 16 MiB.
OOC_TARGET_BYTES = 1 << 24


def _ooc_tile_rows(tile, tail: int, halo: int) -> int:
    """Rows per streamed tile: explicit ``tile=`` int, else budgeted."""
    if isinstance(tile, int) and not isinstance(tile, bool) and tile >= 1:
        return tile
    per_row = 16 * max(1, tail)  # window row + dst row, 8 bytes each
    return max(1, OOC_TARGET_BYTES // per_row - halo)


def plan_outofcore(
    name: str,
    report,
    mode: str,
    param: str,
    params: Optional[Dict] = None,
    tile=None,
    *,
    kernel,
) -> DistBindingPlan:
    """Row-tile streaming plan for one iterate binding.

    Out-of-core execution (:mod:`repro.program.outofcore`) streams
    row tiles between two spill files and two RAM buffers (a halo
    window and a destination tile), so a sweep's resident set is
    bounded by the tile, not the array.  Each tile runs the dist block
    kernel (:func:`repro.dist.kernel.build_double_kernel`): one row
    block is both the distribution and the storage unit.  The
    legality argument is the double-buffer one (see the module
    docstring) with one tightening: a read must fall inside its tile's
    halo window, because *only that window is resident*.  Broadcast
    reads (non-constant row offset, e.g. a fixed boundary row read
    from every tile) therefore reject here even though the shared-
    memory planner serves them from the complete buffer.

    ``tile`` is the ``CodegenOptions.tile`` spec: an explicit int is
    rows per tile (the cache-blocking tile is the partition unit);
    ``None``/``"auto"`` budgets rows so the two resident buffers stay
    under :data:`OOC_TARGET_BYTES`.  ``kernel`` is the binding's
    shared :func:`double_kernel` builder.  Raises :class:`DistReject`
    with the reason when the binding must run in-memory.
    """
    if _np is None:
        raise DistReject("numpy is unavailable — tile streaming "
                         "needs it")
    if mode != "double":
        raise DistReject(
            f"out-of-core streaming needs double-buffer sweeps — the "
            f"{mode!r} sweep mutates one buffer whose tiles cannot "
            "stream independently"
        )
    def tiles(low, high, tail, halo):
        tile_rows = _ooc_tile_rows(tile, tail, halo)
        rows = high[0] - low[0] + 1
        return [(low[0] + k * tile_rows,
                 min(high[0], low[0] + (k + 1) * tile_rows - 1))
                for k in range(max(1, -(-rows // tile_rows)))]

    plan, _, tail = _row_plan(name, report, param, params, kernel, 1,
                              "tile", "file", True, tiles)
    halo = plan.halo_lo + plan.halo_hi
    tile_rows = _ooc_tile_rows(tile, tail, halo)
    window_bytes = (tile_rows + halo) * tail * 8
    plan.notes.append(
        f"{name}: out-of-core {plan.kind} — "
        f"{plan.high[0] - plan.low[0] + 1} row(s) stream as "
        f"{len(plan.row_blocks)} tile(s) of <= {tile_rows} row(s); "
        f"resident window ~{window_bytes} byte(s)"
    )
    if plan.kind == "stencil":
        plan.notes.append(
            f"{name}: halo widths -{plan.halo_lo}/+{plan.halo_hi} "
            f"row(s); {plan.halo_cells_per_sweep} halo cell(s) re-read "
            "from the previous-sweep file per sweep"
        )
    return plan


def _plan_wavefront(name, report, param, params, workers, low, high,
                    rank, order, clause_pos,
                    directions) -> DistBindingPlan:
    comp = report.comp
    if report.strategy != "inplace":
        raise DistReject(
            f"step strategy is {report.strategy!r} — wavefront "
            "staging re-emits the clean-split in-place schedule"
        )
    if rank != 2:
        raise DistReject(
            f"wavefront staging needs a rank-2 mesh, step is rank "
            f"{rank}"
        )
    plan_obj = report.inplace_plan
    if plan_obj is None or plan_obj.mode != "split":
        raise DistReject(
            "in-place plan is not a clean split — whole-copy sweeps "
            "snapshot the full buffer per sweep"
        )
    if plan_obj.snapshots or plan_obj.hoisted:
        raise DistReject(
            "in-place plan needs snapshot/hoisted temporaries"
        )

    sweep_names = _sweep_reads(comp, param)
    regions = {id(c): _clause_region(c, rank, params)
               for c in comp.clauses}
    halo0 = halo1 = 0
    for clause in comp.clauses:
        write_cols = [_axis_write(clause, a, params)
                      for a in range(rank)]
        pos = clause_pos[id(clause)]
        for read in clause.reads:
            if read.array not in sweep_names:
                continue
            off = _read_offset(clause, read.node, write_cols, params,
                               read.array, rank)
            if off is None:
                raise DistReject(
                    f"{clause.label}: broadcast read of "
                    f"{read.array!r} — staged execution cannot order "
                    "a non-constant-offset read"
                )
            p, q = off
            if p * q < 0:
                raise DistReject(
                    f"{clause.label}: read offset ({p}, {q}) mixes "
                    "signs — its source stage is indeterminate"
                )
            halo0 = max(halo0, abs(p))
            halo1 = max(halo1, abs(q))
            if (p, q) == (0, 0):
                # Same cell, same instance: scan direction and stage
                # placement cannot change what the read observes.
                continue
            # The stage numbering ascends with the forward scan, so a
            # backward-scheduled loop in a clause that reads at a
            # nonzero offset would observe new values where the
            # original scan observed old ones (or vice versa).
            # Zero-offset clauses scan in any direction.
            for loop in clause.loops:
                if directions.get(id(loop), "forward") != "forward":
                    raise DistReject(
                        f"{clause.label}: loop {loop.var!r} is "
                        f"scheduled backward but the clause reads "
                        f"{read.array!r} at offset ({p}, {q}) — stage "
                        "order matches only the forward scan"
                    )
            shifted = _shift_region(regions[id(clause)], off)
            for other in comp.clauses:
                if other is clause:
                    continue
                other_pos = clause_pos[id(other)]
                if not _regions_intersect(regions[id(other)], shifted):
                    continue
                if p <= 0 and q <= 0 and other_pos > pos:
                    raise DistReject(
                        f"{clause.label}: reads cells that "
                        f"{other.label} (later in statement order) "
                        "writes — staging would move that write "
                        "earlier"
                    )
                if p >= 0 and q >= 0 and other_pos < pos:
                    raise DistReject(
                        f"{clause.label}: reads old values of cells "
                        f"that {other.label} (earlier in statement "
                        "order) writes — staging would move that "
                        "write later"
                    )

    col_blocks = split_windows(low[1], high[1], workers)
    rows = high[0] - low[0] + 1
    cols = high[1] - low[1] + 1
    chunks_n = max(1, min(workers, rows))
    chunks = split_windows(low[0], high[0], chunks_n)
    stages = workers + chunks_n - 1
    halo_cells = ((workers - 1) * 2 * halo1 * rows
                  + (chunks_n - 1) * 2 * halo0 * cols)

    plan = DistBindingPlan(
        name=name, kind="wavefront", mode="inplace", workers=workers,
        rank=rank, low=low, high=high, param=param,
        col_blocks=tuple(col_blocks), chunks=tuple(chunks),
        halo_lo=halo1, halo_hi=halo1,
        chunk_halo_lo=halo0, chunk_halo_hi=halo0,
        halo_cells_per_sweep=halo_cells, stages=stages,
    )
    plan.notes.append(
        f"{name}: wavefront — {workers} column block(s) x {chunks_n} "
        f"row chunk(s), {stages} skewed stage(s) per sweep "
        "(stage = block + chunk)"
    )
    plan.notes.append(
        f"{name}: stencil halo -{halo0}/+{halo0} row(s), "
        f"-{halo1}/+{halo1} col(s); {halo_cells} boundary cell(s) "
        "handed off per sweep"
    )
    from repro.dist.kernel import build_wavefront_kernel

    plan.kernel = build_wavefront_kernel(report, params)
    return plan
