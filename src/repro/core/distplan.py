"""Distribution planning: block-partitioned convergence sweeps.

The program driver (:mod:`repro.program.run`) executes ``iterate``/
``converge`` bindings as whole-array sweeps.  This module decides, at
compile time, whether a double-buffer sweep can be *block-partitioned*
across a process pool (:mod:`repro.dist`) and how:

* **dep-free** — no read of the sweep array carries a partition-axis
  offset: blocks run fully independently, one barrier per sweep.
* **stencil** — reads carry constant offsets (the §5 direction-vector
  machinery already proves them constant): blocks run independently
  within a sweep because the previous sweep's array is complete in
  shared memory; the per-neighbour halo widths are recorded and
  accounted (``dist.halo.cells``).

Everything that does not fit is a *reasoned fallback*: the binding runs
single-process and the reason lands in ``ProgramReport.fallbacks``
(prefix ``dist``) and the ``dist`` explain area.  An in-place (§9)
sweep is one: it mutates one buffer, so no row block can run without
its neighbours' new values, and the in-process driver (one native call
on C) runs it.

Double-buffer sweeps have three row placements, pavings of one row
space that differ only in their row blocks and read rule, planned by
one builder (:func:`_row_plan`) and run by one kernel emitted once per
binding (:func:`double_kernel`): the one-block placement, in memory
(:func:`plan_block`); dist row blocks (:func:`plan_distribution`);
and out-of-core row tiles (:func:`plan_outofcore`).

Legality
--------
The argument is locality-free: every read of the sweep array resolves
against the previous sweep's buffer, which is complete in shared
memory once the sweep barrier passes, so any partition of the
*writes* is legal as long as (a) each cell is written by exactly one
block (write subscripts on the partition axis are ``var + const`` or
``const``, so clamping the loop window / guarding the constant row
partitions the writes exactly) and (b) the step is provably total
(unwritten cells would otherwise leak the sweep-before-last buffer,
which the single-process path never exposes).
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
    """One loop whose bounds become per-block environment values.

    The kernel's loop runs ``range(_env[env_start], _env[env_stop]+1)``;
    the executor computes, per row window ``[wlo, whi]`` on axis 0:
    ``start = max(lo, wlo - offset)``, ``stop = min(hi, whi - offset)``
    (the clause writes row ``var + offset``).
    """

    env_start: str
    env_stop: str
    offset: int
    lo: int
    hi: int


@dataclass
class DistKernel:
    """One emitted block kernel plus the metadata workers need."""

    source: str
    entry: str = "_build"
    #: Loop-bound stand-ins the executor fills per row window.
    clamps: Tuple[LoopClamp, ...] = ()
    #: Whether the kernel reads the ``_dga0_s``/``_dga0_e``
    #: membership-guard bounds (clauses writing a constant row).
    guard_rows: bool = False
    #: Environment names the kernel fetches (beyond the stand-ins).
    env_names: Tuple[str, ...] = ()
    #: Innermost loops (by variable) that hold a row-window clause and
    #: that the §10 vector path left scalar.
    scalar_loops: Tuple[str, ...] = ()


@dataclass
class DistBindingPlan:
    """How one iterate binding distributes over ``workers`` blocks."""

    name: str
    #: 'dep-free' | 'stencil'
    kind: str
    workers: int
    rank: int
    #: Concrete bounds ((lo0, ...), (hi0, ...)).
    low: Tuple[int, ...]
    high: Tuple[int, ...]
    #: The step function's parameter (the sweep array's env name).
    param: str
    #: Per-block write windows (lo, hi) on axis 0 (empty windows are
    #: (1, 0)-style lo > hi).
    row_blocks: Tuple[Tuple[int, int], ...] = ()
    #: Halo widths on the partition axis (toward lower/higher indices).
    halo_lo: int = 0
    halo_hi: int = 0
    #: Cells crossing internal block boundaries per sweep (accounting;
    #: correctness never depends on it — the buffer is shared).
    halo_cells_per_sweep: int = 0
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


def _scheduled_clauses(items):
    """Every clause the schedule places, in statement order."""
    for item in items:
        if isinstance(item, ScheduledClause):
            yield item.clause
        elif isinstance(item, ScheduledLoop):
            yield from _scheduled_clauses(item.body)


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
    block).  Broadcast reads are legal wherever the whole source
    buffer is resident (see :func:`_row_split`).
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


# ----------------------------------------------------------------------
# The planner proper.


def _common_checks(report, params):
    """Structural checks shared by every row placement.

    Raises :class:`DistReject` unless the step has static bounds, a
    complete static schedule, affine unit-stride writes and provably
    float values.  Returns ``(low, high, rank)``.
    """
    comp = report.comp
    if comp is None or comp.bounds is None:
        raise DistReject("array bounds are not static")
    if report.schedule is None or not report.schedule.ok:
        raise DistReject("step has no static schedule")
    low = tuple(dim[0] for dim in comp.bounds.dims)
    high = tuple(dim[1] for dim in comp.bounds.dims)

    placed = {id(clause)
              for clause in _scheduled_clauses(report.schedule.items)}
    if len(placed) != len(comp.clauses):
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
    return low, high, comp.rank


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
    """Split one iterate binding's rows into ``workers`` dist blocks.

    ``report`` is the step function's single-definition
    :class:`~repro.core.pipeline.Report`; ``mode`` the driver mode the
    program compiler picked (``'double'``/``'inplace'``); ``kernel``
    the binding's shared double-kernel builder (:func:`double_kernel`).
    Every block reads the shared previous-sweep buffer, so broadcast
    reads are served.  Raises :class:`DistReject` with the reason when
    the binding must stay single-process.
    """
    if _np is None:
        raise DistReject("numpy is unavailable — shared float64 "
                         "buffers need it")
    if workers < 2:
        raise DistReject(
            f"workers={workers} — a single block is the single-process "
            "path; distribution skipped"
        )
    plan, broadcast, _ = _row_plan(
        name, report, mode, param, params, kernel, workers, "block",
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


def _row_plan(name, report, mode, param, params, kernel, workers, unit,
              storage, window_only, blocks):
    """The row placement of a double-buffer sweep, every placement's.

    The rules every placement shares: the sweep is double-buffered (an
    in-place sweep mutates the one buffer its rows read, so they
    cannot run apart), the step passes the structural checks and the
    row split (``window_only`` is its read rule, see
    :func:`_row_split`), and no clause holds a :func:`float_trap`,
    because where the list path raises, as the oracle does, float64
    buffers give inf or NaN.  ``blocks(low, high, tail, halo)`` gives
    the axis-0 row blocks; ``kernel``, the binding's
    :func:`double_kernel` builder, runs only once every rule passed.
    Returns ``(plan, broadcast, tail)``.
    """
    if mode != "double":
        raise DistReject(
            f"needs double-buffer sweeps — the {mode!r} sweep mutates "
            f"one buffer, so its row {unit}s cannot run independently"
        )
    low, high, rank = _common_checks(report, params)
    kind, halo_lo, halo_hi, tail, broadcast = _row_split(
        report, param, params, low, high, unit, storage, window_only)
    for clause in report.comp.clauses:
        for node in (clause.value, *clause.guards, *clause.lets):
            trap = float_trap(node)
            if trap:
                raise DistReject(
                    f"{clause.label}: {trap} — the list path raises "
                    "where float64 buffers give inf or NaN"
                )
    row_blocks = tuple(blocks(low, high, tail, halo_lo + halo_hi))
    internal = sum(1 for a, b in zip(row_blocks, row_blocks[1:])
                   if a[1] >= a[0] and b[1] >= b[0])
    plan = DistBindingPlan(
        name=name, kind=kind, workers=workers,
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
    resident, so broadcast reads are served.  The block kernel must
    vectorize every innermost loop that holds a row-window clause: a
    scalar loop indexing float64 buffers is slower than the list path,
    which keeps such a step.  Raises :class:`DistReject` with the
    reason otherwise, or when a rule of :func:`_row_plan` fails.
    """
    if _np is None:
        raise DistReject("numpy is unavailable — the block kernel "
                         "sweeps float64 buffers")
    plan, _, _ = _row_plan(
        name, report, "double", param, params, kernel, 1, "block",
        "buffer", False,
        lambda low, high, tail, halo: [(low[0], high[0])])
    scalar = plan.kernel.scalar_loops
    if scalar:
        raise DistReject(
            "the block kernel leaves loop(s) " + ", ".join(scalar)
            + " scalar, and scalar access to float64 buffers is "
            "slower than the list path"
        )
    return plan


#: Default resident-byte target for out-of-core tiles: the two RAM
#: buffers (halo window + destination tile) together aim under 16 MiB.
OOC_TARGET_BYTES = 1 << 24


def _ooc_tile_rows(tile, tail: int, halo: int) -> int:
    """Rows per streamed tile: explicit ``tile=`` int, else budgeted."""
    if isinstance(tile, int):
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

    def tiles(low, high, tail, halo):
        tile_rows = _ooc_tile_rows(tile, tail, halo)
        rows = high[0] - low[0] + 1
        return [(low[0] + k * tile_rows,
                 min(high[0], low[0] + (k + 1) * tile_rows - 1))
                for k in range(max(1, -(-rows // tile_rows)))]

    plan, _, tail = _row_plan(name, report, mode, param, params,
                              kernel, 1, "tile", "file", True, tiles)
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
