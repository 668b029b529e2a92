"""Out-of-core streaming execution of iterate/converge sweeps.

In memory, a double-buffered sweep runs as one block of the vectorized
block kernel over two full float64 buffers
(:func:`repro.program.run._sweep_block`).  This module keeps the two
buffers in spill files instead and streams each sweep through row
*tiles* of the same kernel (:func:`repro.core.distplan.plan_outofcore`
picked them), so the resident working set is bounded by the tile, not
the mesh:

* Two spill files ``sweep-a.dat``/``sweep-b.dat``, opened once per
  run, hold the previous and the current sweep's cells; they swap roles
  each sweep exactly like the in-memory rotation
  (``final = b if sweeps % 2 else a``).
* Per tile, one positional read (``os.preadv``) fills a preallocated
  RAM window buffer with the tile's halo window
  ``[t0 - halo_lo, t1 + halo_hi]`` (clamped to the mesh) of the
  previous-sweep file.  The kernel reads it through a
  :class:`~repro.codegen.support.FlatArray` whose axis-0 bounds are
  shifted to the window, so its absolute row arithmetic lands inside
  the buffer unchanged.
* The kernel is the binding's block kernel
  (:func:`repro.dist.kernel.build_double_kernel`, §10-vectorized),
  drawn from the compiled-kernel cache every placement shares
  (:func:`repro.dist.kernel.kernel_fn`).  It
  writes into a preallocated destination buffer the size of one tile —
  ``'.dst_row0'`` is the tile's first row, so its linear stores count
  from there — and one positional write (``os.pwrite``) puts the tile
  into the current-sweep file.
* Every read and write must move exactly the bytes asked for; a short
  one raises ``OSError``, so the kernel never sees a partly filled
  window.  An I/O error is not a fallback: it propagates (the caller
  chose not to hold the mesh in RAM), after the files are closed and
  removed.

Nothing is flushed to disk.  The spill files are private scratch,
deleted when the run ends; every read comes from this process through
the page cache, which already holds each completed write; nothing
outside the run reads them and nothing recovers them after a crash.
An ``fsync`` would protect no result.

Bit-identity with the in-memory path (and hence the lazy oracle) holds
because the kernel is the same emitted step (its §10 vector clauses use
only correctly rounded numpy operations, see
:mod:`repro.codegen.vectorize`), the windows are served from the
*complete* previous-sweep file, and convergence folds exact per-tile
``max(|delta|)`` maxima with the NaN-sticky
:func:`repro.program.iterate.fold_max` the dist tree reduction uses —
``max`` over float64 is exact, so sweep counts match too.  The sweeps
run in the one steps/until/cap loop every executor shares
(:func:`repro.program.iterate.run_sweeps`); what stays here is where
the bytes live (spill files and two RAM buffers).  Inputs other than
the sweep array stay fully resident, converted once per run to float64
(they are read-only and typically small next to the mesh).

``None`` from :func:`run_ooc_iterate` means a *runtime* precondition
failed (counted as ``ooc.fallback.runtime``): numpy or the kernel is
missing, or the admission check every row placement shares
(:func:`repro.dist.kernel.admit`, which also refuses an empty mesh)
refused.  The caller runs the in-memory sweeps — the seed is never
mutated here.

Counters: ``ooc.tiles`` / ``tile.count`` per executed tile,
``tile.halo.cells`` for window rows beyond the tile,
``iterate.sweeps.double`` for the sweep total (the cap, when a
``converge`` never converges), and
``ooc.bytes.resident`` — the bytes of the window and destination
buffers (recorded once per run).  Spill files live in a private
directory under ``$REPRO_OOC_DIR`` when set, else under the system
temporary directory; files and directory are removed afterwards.
"""

from __future__ import annotations

import errno
import math
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
from repro.dist.kernel import (
    admit,
    as_f64,
    kernel_fn,
    row_bounds,
    window_env,
)
from repro.obs.trace import count_runtime
from repro.program.iterate import fold_max, run_sweeps
from repro.program.run import finish_sweeps

#: Directory for the two sweep spill files (default: the system's
#: temporary directory).
OOC_DIR_ENV = "REPRO_OOC_DIR"


def _fallback() -> None:
    count_runtime("ooc.fallback.runtime")
    return None


def _read_at(fd: int, buf, offset: int) -> None:
    """Fill ``buf`` from byte ``offset`` of ``fd``; short reads raise."""
    got = os.preadv(fd, [buf], offset)
    if got != buf.nbytes:
        raise OSError(errno.EIO, f"short spill-file read: {got} of "
                      f"{buf.nbytes} bytes at offset {offset}")


def _write_at(fd: int, buf, offset: int) -> None:
    """Write ``buf`` at byte ``offset`` of ``fd``; short writes raise."""
    wrote = os.pwrite(fd, buf, offset)
    if wrote != buf.nbytes:
        raise OSError(errno.EIO, f"short spill-file write: {wrote} of "
                      f"{buf.nbytes} bytes at offset {offset}")


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
        return _fallback()
    env_base = admit(op, env, kind, control, current, as_f64)
    if env_base is None:
        return _fallback()
    bounds = current.bounds
    tiles = op.row_blocks  # a non-empty mesh: every tile holds rows
    low, high = op.low, op.high
    tail = math.prod(h - lo + 1 for lo, h in zip(low[1:], high[1:]))
    # The tile kernel compiles through this module's compile_source,
    # so a profiler that wraps it sees the kernel's calls.
    build = kernel_fn(kernel, compile_source)
    row_bytes = tail * 8
    windows = [(max(low[0], t0 - op.halo_lo),
                min(high[0], t1 + op.halo_hi)) for t0, t1 in tiles]
    win_buf = _np.empty(max(w1 - w0 + 1 for w0, w1 in windows) * tail,
                        dtype=_np.float64)
    dst_buf = _np.empty(max(t1 - t0 + 1 for t0, t1 in tiles) * tail,
                        dtype=_np.float64)
    support.alloc_buffer(win_buf.size)
    support.alloc_buffer(dst_buf.size)

    # Per tile, fixed for the run: the window's file offset and buffer
    # view, the kernel's tile environment, the destination's file
    # offset and buffer view, and the window rows the tile overwrites.
    units = []
    halo_cells = 0
    for (t0, t1), (w0, w1) in zip(tiles, windows):
        win = win_buf[:(w1 - w0 + 1) * tail]
        dst = dst_buf[:(t1 - t0 + 1) * tail]
        tile_env = {
            op.param: FlatArray(row_bounds(low, high, (w0, w1)), win),
            ".dst": dst,
            ".dst_row0": t0,
        }
        window_env(tile_env, kernel, {0: (t0, t1)})
        old = win[(t0 - w0) * tail:(t1 - w0 + 1) * tail]
        units.append(((w0 - low[0]) * row_bytes, win, tile_env,
                      (t0 - low[0]) * row_bytes, dst, old))
        halo_cells += win.size - dst.size

    def sweep(number: int, fold: bool) -> float:
        src, dst_fd = fds[number % 2], fds[1 - number % 2]
        biggest = 0.0
        for win_at, win, tile_env, dst_at, dst, old in units:
            _read_at(src, win, win_at)
            build({**env_base, **tile_env})
            if fold:
                biggest = fold_max(biggest,
                                   float(_np.max(_np.abs(dst - old))))
            _write_at(dst_fd, dst, dst_at)
        count_runtime("ooc.tiles", len(units))
        count_runtime("tile.count", len(units))
        count_runtime("tile.halo.cells", halo_cells)
        return biggest

    root = os.environ.get(OOC_DIR_ENV) or None
    if root:
        os.makedirs(root, exist_ok=True)
    spill_dir = tempfile.mkdtemp(prefix="repro-ooc-", dir=root)
    paths = [os.path.join(spill_dir, name)
             for name in ("sweep-a.dat", "sweep-b.dat")]
    fds = []
    try:
        for path in paths:
            fds.append(os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC,
                               0o600))
        cells = current.cells
        for t0, t1 in tiles:
            lin0 = (t0 - low[0]) * tail
            lin1 = (t1 - low[0] + 1) * tail
            _write_at(fds[0], _np.ascontiguousarray(
                cells[lin0:lin1], dtype=_np.float64), lin0 * 8)

        sweeps, converged = run_sweeps(kind, control, sweep)
        count_runtime("ooc.bytes.resident",
                      win_buf.nbytes + dst_buf.nbytes)
        finish_sweeps("double", sweeps, converged, control)

        out: list = []
        for _, _, _, dst_at, dst, _ in units:
            _read_at(fds[sweeps % 2], dst, dst_at)
            out.extend(dst.tolist())
        return FlatArray(bounds, out)
    finally:
        for fd in fds:
            os.close(fd)
        for path in paths:
            try:
                os.remove(path)
            except OSError:
                pass
        try:
            os.rmdir(spill_dir)
        except OSError:
            pass
