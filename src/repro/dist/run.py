"""Driving distributed sweeps: parent entry + worker loops.

The parent side (:func:`run_dist_iterate`) is called by
``repro.program.run._run_iterate`` once a binding's
:class:`~repro.core.distplan.DistBindingPlan` is in hand and the
iteration control has been evaluated.  It verifies the *runtime*
preconditions (compile time proved the structural ones), copies the
seed into shared float64 buffers, broadcasts one job to the pool, and
materializes the final buffer back into a plain ``FlatArray``.  Any
precondition failure returns ``None`` — the caller runs the ordinary
single-process sweep, bumping ``dist.fallback.runtime``.

The worker side runs *whole convergence loops* autonomously: there is
no per-sweep round trip through the parent.  Convergence is decided
identically by every worker from the tree-reduced shared maximum, so
all workers exit their loops after the same sweep — the sweep count
the parent records (and the one the oracle sees) is bit-identical to
the single-process driver's.

Synchronization invariants (all modes):

* one barrier after every sweep's writes (double) or after every stage
  (wavefront), so no block reads a neighbour's cells early;
* in ``until`` mode, one extra barrier after every block has read the
  reduced maximum, so a fast block cannot overwrite the reduction
  vector (or the source buffer) while a slow block is still deciding.
"""

from __future__ import annotations

import os
from typing import Dict, List

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

from repro.codegen import support
from repro.codegen.compile import compile_source
from repro.codegen.support import FlatArray
from repro.dist import exchange
from repro.dist.pool import (
    BARRIER_TIMEOUT,
    DistPoolError,
    fork_available,
    get_pool,
)
from repro.obs.trace import (
    TRACE_ENV,
    count_runtime,
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
    runtime_tracing_enabled,
)
from repro.program.iterate import CONVERGE_CAP

#: Values an environment entry may take on its way to a worker.
_SCALAR_TYPES = (int, float)


def _float_cells(cells) -> bool:
    """Whether a cell buffer is exactly float64-representable.

    Shared buffers hold float64; an int cell would come back ``5.0``
    where the single-process path preserves ``5``.  Lists must be all
    Python floats; numpy buffers must already be float64.
    """
    if _np is not None and isinstance(cells, _np.ndarray):
        return cells.dtype == _np.float64
    return all(type(cell) is float for cell in cells)


def _fallback(reason: str) -> None:
    count_runtime("dist.fallback.runtime")
    return None


# ----------------------------------------------------------------------
# Parent side.


def run_dist_iterate(plan, dist_plan, env: Dict, kind: str, control,
                     current: FlatArray, owned: bool):
    """Run one iterate binding distributed; ``None`` means fall back.

    Never mutates ``current`` (the seed is copied into shared memory),
    so the single-process path can still run after a fallback.
    """
    dp = dist_plan
    kernel = dp.kernel
    if kernel is None or not exchange.available() or not fork_available():
        return _fallback("no shared-memory/fork support")
    if kind == "steps" and control <= 0:
        return _fallback("zero sweeps")
    bounds = current.bounds
    if (tuple(lo for lo, _ in bounds.dims) != dp.low
            or tuple(hi for _, hi in bounds.dims) != dp.high):
        return _fallback("seed bounds differ from the planned bounds")
    if not _float_cells(current.cells):
        return _fallback("seed cells are not all floats")

    payload: Dict[str, object] = {}
    for name in kernel.env_names:
        if name == dp.param:
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
            payload[name] = FlatArray(value.bounds,
                                      list(value.cells))
        elif isinstance(value, _SCALAR_TYPES):
            payload[name] = value
        else:
            return _fallback(
                f"environment value {name!r} is not shippable"
            )

    size = bounds.size()
    job = {
        "mode": dp.mode,
        "kind": kind,
        "control": control,
        "cap": CONVERGE_CAP,
        "kernel": kernel.source,
        "entry": kernel.entry,
        "clamps": [
            (c.env_start, c.env_stop, c.axis, c.offset, c.lo, c.hi)
            for c in kernel.clamps
        ],
        "guard_axes": tuple(kernel.guard_axes),
        "param": dp.param,
        "low": dp.low,
        "high": dp.high,
        "size": size,
        "env": payload,
        "trace": runtime_tracing_enabled(),
        "row_blocks": dp.row_blocks,
        "col_blocks": dp.col_blocks,
        "chunks": dp.chunks,
    }

    buffers = []
    try:
        if dp.mode == "double":
            src = exchange.SharedDoubles.create(size)
            dst = exchange.SharedDoubles.create(size)
            reduce_buf = exchange.SharedDoubles.create(dp.workers)
            buffers = [src, dst, reduce_buf]
            support.alloc_buffer(size)
            support.alloc_buffer(size)
            src.array[:] = current.cells
            job["shm"] = {"a": src.name, "b": dst.name,
                          "r": reduce_buf.name}
        else:
            mesh = exchange.SharedDoubles.create(size)
            reduce_buf = exchange.SharedDoubles.create(dp.workers)
            buffers = [mesh, reduce_buf]
            support.alloc_buffer(size)
            mesh.array[:] = current.cells
            job["shm"] = {"u": mesh.name, "r": reduce_buf.name}

        pool = get_pool(dp.workers)
        try:
            replies = pool.run(job)
        except DistPoolError:
            return _fallback("worker pool failed")

        sweeps = replies[0]["sweeps"]
        converged = replies[0]["converged"]
        _merge_worker_stats(replies)
        count_runtime("dist.blocks", dp.workers)
        count_runtime("dist.halo.cells",
                      dp.halo_cells_per_sweep * sweeps)
        if dp.kind == "wavefront":
            count_runtime("dist.wavefront.stages", dp.stages * sweeps)

        if kind == "until" and not converged:
            from repro.program.run import ProgramError

            if dp.mode == "double":
                count_runtime("iterate.sweeps.double", sweeps)
            raise ProgramError(
                f"converge: no fixpoint within {CONVERGE_CAP} sweeps "
                f"(tol={control!r})"
            )
        sweep_key = ("iterate.sweeps.double" if dp.mode == "double"
                     else "iterate.sweeps.inplace")
        count_runtime(sweep_key, sweeps)

        if dp.mode == "double":
            final = dst if sweeps % 2 else src
        else:
            final = mesh
        return FlatArray(bounds, final.array.tolist())
    finally:
        for shared in buffers:
            shared.destroy()


def _merge_worker_stats(replies: List[Dict]) -> None:
    """Fold worker-side counter/allocation deltas into this process."""
    for reply in replies:
        for name, delta in reply.get("counters", {}).items():
            count_runtime(name, delta)
        arrays, cells = reply.get("alloc", (0, 0))
        support.ALLOC_STATS.arrays_allocated += arrays
        support.ALLOC_STATS.cells_allocated += cells


# ----------------------------------------------------------------------
# Worker side.

#: Compiled block kernels keyed by source, shared by the workers (which
#: persist across calls) and the out-of-core driver.
_KERNEL_CACHE: Dict[str, object] = {}


def _kernel_fn(source: str, entry: str, compile=compile_source):
    fn = _KERNEL_CACHE.get(source)
    if fn is None:
        fn = compile(source, entry)
        _KERNEL_CACHE[source] = fn
    return fn


def run_worker_job(index: int, parties: int, barrier, job: Dict):
    """One worker's whole convergence loop (called in the worker)."""
    if job.get("trace"):
        os.environ[TRACE_ENV] = "1"
    else:
        os.environ.pop(TRACE_ENV, None)
    refresh_runtime_tracing()
    reset_runtime_counters()
    support.ALLOC_STATS.reset()

    if job["mode"] == "double":
        sweeps, converged = _worker_double(index, parties, barrier, job)
    else:
        sweeps, converged = _worker_wavefront(index, parties, barrier,
                                              job)
    return {
        "sweeps": sweeps,
        "converged": converged,
        "counters": runtime_counters(),
        "alloc": (support.ALLOC_STATS.arrays_allocated,
                  support.ALLOC_STATS.cells_allocated),
    }


def _bounds_of(job):
    from repro.runtime.bounds import Bounds

    low, high = tuple(job["low"]), tuple(job["high"])
    if len(low) == 1:
        return Bounds(low[0], high[0])
    return Bounds(low, high)


def _window_env(env: Dict, job: Dict, windows: Dict[int, tuple]) -> None:
    """Fill clamp/guard stand-ins for one rectangle, in place.

    ``windows`` maps axis -> inclusive (lo, hi) ownership window.
    """
    for start, stop, axis, offset, lo, hi in job["clamps"]:
        wlo, whi = windows[axis]
        env[start] = max(lo, wlo - offset)
        env[stop] = min(hi, whi - offset)
    for axis in job["guard_axes"]:
        wlo, whi = windows[axis]
        env[f"_dga{axis}_s"] = wlo
        env[f"_dga{axis}_e"] = whi


def _worker_double(index, parties, barrier, job):
    size = job["size"]
    shm = job["shm"]
    buf_a = exchange.SharedDoubles.attach(shm["a"], size)
    buf_b = exchange.SharedDoubles.attach(shm["b"], size)
    reduce_buf = exchange.SharedDoubles.attach(shm["r"], parties)
    try:
        build = _kernel_fn(job["kernel"], job["entry"])
        bounds = _bounds_of(job)
        low, high = job["low"], job["high"]
        wlo, whi = job["row_blocks"][index]
        nonempty = whi >= wlo
        tail = 1
        for axis in range(1, len(low)):
            tail *= high[axis] - low[axis] + 1
        window = slice((wlo - low[0]) * tail, (whi - low[0] + 1) * tail)

        env_base = dict(job["env"])
        _window_env(env_base, job, {0: (wlo, whi)})

        def wait():
            barrier.wait(BARRIER_TIMEOUT)

        def sweep(number):
            src, dst = ((buf_a, buf_b) if number % 2 == 0
                        else (buf_b, buf_a))
            if nonempty:
                env = dict(env_base)
                env[job["param"]] = FlatArray(bounds, src.array)
                env[".dst"] = dst.array
                build(env)
            count_runtime("dist.worker.sweeps")
            return src, dst

        kind, control = job["kind"], job["control"]
        if kind == "steps":
            for number in range(control):
                sweep(number)
                wait()
            return control, True
        for number in range(job["cap"]):
            src, dst = sweep(number)
            if nonempty:
                delta = dst.array[window] - src.array[window]
                local = float(_np.max(_np.abs(delta)))
            else:
                local = 0.0
            reduce_buf.array[index] = local
            biggest = exchange.tree_reduce_max(
                reduce_buf.array, index, parties, wait
            )
            done = biggest <= control
            wait()
            if done:
                return number + 1, True
        return job["cap"], False
    finally:
        buf_a.destroy()
        buf_b.destroy()
        reduce_buf.destroy()


def _worker_wavefront(index, parties, barrier, job):
    size = job["size"]
    shm = job["shm"]
    mesh = exchange.SharedDoubles.attach(shm["u"], size)
    reduce_buf = exchange.SharedDoubles.attach(shm["r"], parties)
    try:
        build = _kernel_fn(job["kernel"], job["entry"])
        bounds = _bounds_of(job)
        low, high = job["low"], job["high"]
        rows = high[0] - low[0] + 1
        cols = high[1] - low[1] + 1
        grid = mesh.array.reshape(rows, cols)
        clo, chi = job["col_blocks"][index]
        chunks = job["chunks"]
        slab = grid[:, clo - low[1]:chi - low[1] + 1]
        stages = parties + len(chunks) - 1

        def wait():
            barrier.wait(BARRIER_TIMEOUT)

        def run_stage(chunk_index):
            rlo, rhi = chunks[chunk_index]
            if rhi < rlo or chi < clo:
                return
            env = dict(job["env"])
            _window_env(env, job, {0: (rlo, rhi), 1: (clo, chi)})
            env[job["param"]] = FlatArray(bounds, mesh.array)
            build(env)

        def sweep():
            for stage in range(stages):
                chunk_index = stage - index
                if 0 <= chunk_index < len(chunks):
                    run_stage(chunk_index)
                wait()
            count_runtime("dist.worker.sweeps")

        kind, control = job["kind"], job["control"]
        if kind == "steps":
            for _ in range(control):
                sweep()
            return control, True
        shadow = _np.empty_like(slab)
        for number in range(job["cap"]):
            shadow[:] = slab
            sweep()
            if slab.size:
                local = float(_np.max(_np.abs(slab - shadow)))
            else:
                local = 0.0
            reduce_buf.array[index] = local
            biggest = exchange.tree_reduce_max(
                reduce_buf.array, index, parties, wait
            )
            done = biggest <= control
            wait()
            if done:
                return number + 1, True
        return job["cap"], False
    finally:
        mesh.destroy()
        reduce_buf.destroy()
