"""Out-of-core streaming execution of iterate/converge sweeps.

The double-buffer sweep driver (:func:`repro.program.run._sweep_double`)
keeps two full arrays in RAM.  This module replaces both with
``numpy.memmap``-backed spill files and streams the sweep through
row *tiles* (:func:`repro.core.distplan.plan_outofcore` picked them),
so the resident working set is bounded by the tile, not the mesh:

* Two spill files ``sweep-a.dat``/``sweep-b.dat`` hold the previous
  and the current sweep's cells; they swap roles each sweep exactly
  like the in-memory rotation (``final = b if sweeps % 2 else a``).
* Per tile, the previous-sweep file is mapped *only* over the tile's
  halo window ``[t0 - halo_lo, t1 + halo_hi]`` (clamped to the mesh)
  and copied into a preallocated RAM window buffer — double buffering
  at the granularity the plan's halo widths prescribe.  The kernel
  reads it through a :class:`~repro.codegen.support.FlatArray` whose
  axis-0 bounds are shifted to the window, so its absolute row
  arithmetic lands inside the buffer unchanged.
* Writes go through :class:`_Window`, a base-offset shim over a RAM
  destination tile, then one small memmap slice writes the tile back
  and is unmapped immediately.

Bit-identity with the in-memory path (and hence the lazy oracle) holds
because the kernel is the same emitted step, the windows are served
from the *complete* previous-sweep file, and convergence folds exact
per-tile ``max(|delta|)`` maxima — ``max`` over float64 is exact, so
sweep counts match too.  Inputs other than the sweep array stay fully
resident (they are read-only and typically small next to the mesh).

``None`` from :func:`run_ooc_iterate` means a *runtime* precondition
failed (counted as ``ooc.fallback.runtime``); the caller runs the
ordinary in-memory sweeps — the seed is never mutated here.

Counters: ``ooc.tiles`` / ``tile.count`` per executed tile,
``tile.halo.cells`` for window rows beyond the tile,
``iterate.sweeps.double`` for the sweep total, and
``ooc.bytes.resident`` — a high-water gauge of the RAM window +
destination buffers actually touched (recorded once per run).
Spill files live under ``$REPRO_OOC_DIR`` when set, else a private
temporary directory; both are cleaned up afterwards.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

from repro.codegen import support
from repro.codegen.compile import compile_source
from repro.codegen.support import FlatArray
from repro.dist.run import _float_cells, _window_env
from repro.obs.trace import count_runtime
from repro.program.iterate import CONVERGE_CAP
from repro.runtime.bounds import Bounds

#: Directory for the two sweep spill files (default: a fresh tempdir).
OOC_DIR_ENV = "REPRO_OOC_DIR"

_SCALAR_TYPES = (int, float)

#: Compiled tile kernels keyed by source.
_KERNEL_CACHE: Dict[str, object] = {}


class _Window:
    """Destination shim: absolute linear stores into a tile buffer.

    The emitted kernel indexes ``_out`` with linear positions over the
    *full* mesh bounds; only the tile's rows are resident.  ``base`` is
    the tile's first linear position — subtracting it lands every store
    inside the buffer.  Integer stores only: the out-of-core planner
    rejects anything that would need slice assignment.
    """

    __slots__ = ("buf", "base")

    def __init__(self, buf, base: int):
        self.buf = buf
        self.base = base

    def __setitem__(self, idx: int, value) -> None:
        self.buf[idx - self.base] = value


def _fallback(reason: str) -> None:
    count_runtime("ooc.fallback.runtime")
    return None


def _kernel_fn(source: str, entry: str):
    fn = _KERNEL_CACHE.get(source)
    if fn is None:
        fn = compile_source(source, entry)
        _KERNEL_CACHE[source] = fn
    return fn


def _window_bounds(low, high, w0: int, w1: int) -> Bounds:
    """Full bounds with axis 0 narrowed to the window ``[w0, w1]``."""
    if len(low) == 1:
        return Bounds(w0, w1)
    return Bounds((w0,) + tuple(low[1:]), (w1,) + tuple(high[1:]))


def run_ooc_iterate(plan, ooc_plan, env: Dict, kind: str, control,
                    current: FlatArray, owned: bool):
    """Run one iterate binding out of core; ``None`` means fall back.

    Mirrors :func:`repro.dist.run.run_dist_iterate`'s contract: the
    seed is copied into the spill file, never mutated, so the
    in-memory sweep paths can still run after a fallback.
    """
    op = ooc_plan
    kernel = op.kernel
    if _np is None or kernel is None:
        return _fallback("no numpy/kernel")
    if kind == "steps" and control <= 0:
        return _fallback("zero sweeps")
    bounds = current.bounds
    if (tuple(lo for lo, _ in bounds.dims) != op.low
            or tuple(hi for _, hi in bounds.dims) != op.high):
        return _fallback("seed bounds differ from the planned bounds")
    if not _float_cells(current.cells):
        return _fallback("seed cells are not all floats")

    env_base: Dict[str, object] = {}
    for name in kernel.env_names:
        if name == op.param:
            continue
        if name not in env:
            return _fallback(f"missing environment value {name!r}")
        value = env[name]
        if isinstance(value, bool):
            return _fallback(f"environment value {name!r} is a bool")
        if isinstance(value, FlatArray):
            if not _float_cells(value.cells):
                return _fallback(
                    f"input array {name!r} has non-float cells"
                )
            env_base[name] = value
        elif isinstance(value, _SCALAR_TYPES):
            env_base[name] = value
        else:
            return _fallback(
                f"environment value {name!r} is not shippable"
            )

    low, high = op.low, op.high
    tail = 1
    for axis in range(1, len(low)):
        tail *= high[axis] - low[axis] + 1
    size = bounds.size()
    tiles = [(t0, t1) for t0, t1 in op.row_blocks if t1 >= t0]
    if not tiles or size <= 0:
        return _fallback("empty mesh")

    build = _kernel_fn(kernel.source, kernel.entry)
    job = {
        "clamps": [
            (c.env_start, c.env_stop, c.axis, c.offset, c.lo, c.hi)
            for c in kernel.clamps
        ],
        "guard_axes": tuple(kernel.guard_axes),
    }
    halo_lo, halo_hi = op.halo_lo, op.halo_hi
    max_rows = max(t1 - t0 + 1 for t0, t1 in tiles)
    max_win = max(
        min(high[0], t1 + halo_hi) - max(low[0], t0 - halo_lo) + 1
        for t0, t1 in tiles
    )
    win_buf = _np.empty(max_win * tail, dtype=_np.float64)
    dst_buf = _np.empty(max_rows * tail, dtype=_np.float64)
    support.alloc_buffer(win_buf.size)
    support.alloc_buffer(dst_buf.size)

    spill_dir = os.environ.get(OOC_DIR_ENV) or ""
    cleanup_dir = False
    if spill_dir:
        os.makedirs(spill_dir, exist_ok=True)
    else:
        spill_dir = tempfile.mkdtemp(prefix="repro-ooc-")
        cleanup_dir = True
    path_a = os.path.join(spill_dir, "sweep-a.dat")
    path_b = os.path.join(spill_dir, "sweep-b.dat")

    def read_rows(path, row0, nrows, out):
        mm = _np.memmap(path, dtype=_np.float64, mode="r",
                        offset=(row0 - low[0]) * tail * 8,
                        shape=(nrows * tail,))
        view = out[:nrows * tail]
        view[:] = mm
        del mm  # unmap before the next tile
        return view

    def write_rows(path, row0, data):
        mm = _np.memmap(path, dtype=_np.float64, mode="r+",
                        offset=(row0 - low[0]) * tail * 8,
                        shape=(len(data),))
        mm[:] = data
        mm.flush()
        del mm

    peak = 0
    try:
        for path in (path_a, path_b):
            with open(path, "wb") as handle:
                handle.truncate(size * 8)
        cells = current.cells
        for t0, t1 in tiles:
            lin0 = (t0 - low[0]) * tail
            lin1 = (t1 - low[0] + 1) * tail
            write_rows(path_a, t0,
                       _np.asarray(cells[lin0:lin1], dtype=_np.float64))

        def sweep(number):
            nonlocal peak
            src_path, dst_path = ((path_a, path_b) if number % 2 == 0
                                  else (path_b, path_a))
            biggest = 0.0
            for t0, t1 in tiles:
                w0 = max(low[0], t0 - halo_lo)
                w1 = min(high[0], t1 + halo_hi)
                rows = t1 - t0 + 1
                win = read_rows(src_path, w0, w1 - w0 + 1, win_buf)
                dst = dst_buf[:rows * tail]
                call_env = dict(env_base)
                call_env[op.param] = FlatArray(
                    _window_bounds(low, high, w0, w1), win
                )
                call_env[".dst"] = _Window(dst, (t0 - low[0]) * tail)
                _window_env(call_env, job, {0: (t0, t1)})
                build(call_env)
                offset = (t0 - w0) * tail
                delta = dst - win[offset:offset + rows * tail]
                tile_max = float(_np.max(_np.abs(delta)))
                # NaN sticks: a NaN delta means "not converged" (the
                # rule of :func:`repro.program.iterate.max_abs_diff`).
                if tile_max > biggest or tile_max != tile_max:
                    biggest = tile_max
                write_rows(dst_path, t0, dst)
                count_runtime("ooc.tiles")
                count_runtime("tile.count")
                count_runtime("tile.halo.cells",
                              (w1 - w0 + 1 - rows) * tail)
                resident = (win.size + dst.size) * 8
                if resident > peak:
                    peak = resident
            return biggest

        if kind == "steps":
            sweeps, converged = control, True
            for number in range(control):
                sweep(number)
        else:
            sweeps, converged = CONVERGE_CAP, False
            for number in range(CONVERGE_CAP):
                if sweep(number) <= control:
                    sweeps, converged = number + 1, True
                    break

        count_runtime("ooc.bytes.resident", peak)
        count_runtime("iterate.sweeps.double", sweeps)
        if kind == "until" and not converged:
            from repro.program.run import ProgramError

            raise ProgramError(
                f"converge: no fixpoint within {CONVERGE_CAP} sweeps "
                f"(tol={control!r})"
            )

        final_path = path_b if sweeps % 2 else path_a
        out: list = []
        for t0, t1 in tiles:
            out.extend(read_rows(final_path, t0, t1 - t0 + 1,
                                 win_buf).tolist())
        return FlatArray(bounds, out)
    finally:
        for path in (path_a, path_b):
            try:
                os.remove(path)
            except OSError:
                pass
        if cleanup_dir:
            try:
                os.rmdir(spill_dir)
            except OSError:
                pass
