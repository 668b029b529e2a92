"""Driving distributed sweeps: parent entry + worker loops.

Dist runs double-buffer sweeps only: each worker sweeps one row block
of the binding's block kernel from one shared float64 buffer into the
other.  The parent side (:func:`run_dist_iterate`) is called by
``repro.program.run._run_iterate`` once a binding's
:class:`~repro.core.distplan.DistBindingPlan` is in hand and the
iteration control has been evaluated.  It checks shared memory and
fork, then the block-run admission check it shares with out-of-core
tiles (:func:`repro.dist.kernel.admit`), copies the seed into shared
float64 buffers, broadcasts one job to the pool, and materializes the
final buffer back into a plain ``FlatArray``.  Any precondition
failure returns ``None`` — the caller runs the ordinary
single-process sweep, bumping ``dist.fallback.runtime``.

The worker side runs *whole convergence loops* autonomously: there is
no per-sweep round trip through the parent.  Each worker hands its
sweep to the one steps/until loop every executor shares
(:func:`repro.program.iterate.run_sweeps`), with the cap its parent
read.  Convergence is decided identically by every worker from the
tree-reduced shared maximum, so all workers exit their loops after the
same sweep — the sweep count the parent records (and the one the
oracle sees) is bit-identical to the single-process driver's.  What
stays here is where the bytes live (shared segments) and how the
blocks synchronise.

Synchronization invariants:

* one barrier after every sweep's writes, so no block reads a
  neighbour's cells before they are complete;
* in ``until`` mode, the reduction's barriers and then one extra
  barrier after every block has read the reduced maximum, so a fast
  block cannot overwrite the reduction vector (or the source buffer)
  while a slow block is still deciding.  Both live in the fold branch
  of the worker's sweep, so no worker skips one.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List

from repro.codegen import support
from repro.codegen.support import FlatArray
from repro.dist import exchange
from repro.dist.kernel import (
    admit,
    block_sweep,
    kernel_fn,
    row_bounds,
    window_env,
)
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
from repro.program import iterate
from repro.program.iterate import run_sweeps
from repro.program.run import finish_sweeps


def _fallback() -> None:
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
    if (dp.kernel is None or not exchange.available()
            or not fork_available()):
        return _fallback()
    payload = admit(dp, env, kind, control, current, list)
    if payload is None:
        return _fallback()

    size = current.bounds.size()
    job = {
        "kind": kind,
        "control": control,
        "cap": iterate.CONVERGE_CAP,
        "kernel": dp.kernel,
        "param": dp.param,
        "low": dp.low,
        "high": dp.high,
        "size": size,
        "env": payload,
        "trace": runtime_tracing_enabled(),
        "row_blocks": dp.row_blocks,
    }

    buffers = []
    try:
        src = exchange.SharedDoubles.create(size)
        dst = exchange.SharedDoubles.create(size)
        reduce_buf = exchange.SharedDoubles.create(dp.workers)
        buffers = [src, dst, reduce_buf]
        support.alloc_buffer(size)
        support.alloc_buffer(size)
        src.array[:] = current.cells
        job["shm"] = {"a": src.name, "b": dst.name,
                      "r": reduce_buf.name}

        pool = get_pool(dp.workers)
        try:
            replies = pool.run(job)
        except DistPoolError:
            return _fallback()  # the worker pool failed

        sweeps = replies[0]["sweeps"]
        _merge_worker_stats(replies)
        count_runtime("dist.blocks", dp.workers)
        count_runtime("dist.halo.cells",
                      dp.halo_cells_per_sweep * sweeps)
        finish_sweeps("double", sweeps, replies[0]["converged"], control)

        final = dst if sweeps % 2 else src
        return FlatArray(current.bounds, final.array.tolist())
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


def run_worker_job(index: int, parties: int, barrier, job: Dict):
    """One worker's whole convergence loop (called in the worker)."""
    if job.get("trace"):
        os.environ[TRACE_ENV] = "1"
    else:
        os.environ.pop(TRACE_ENV, None)
    refresh_runtime_tracing()
    reset_runtime_counters()
    support.ALLOC_STATS.reset()

    def wait():
        barrier.wait(BARRIER_TIMEOUT)

    sweeps, converged = _worker_sweeps(index, parties, wait, job)
    return {
        "sweeps": sweeps,
        "converged": converged,
        "counters": runtime_counters(),
        "alloc": (support.ALLOC_STATS.arrays_allocated,
                  support.ALLOC_STATS.cells_allocated),
    }


def _worker_sweeps(index, parties, wait, job):
    size = job["size"]
    shm = job["shm"]
    buf_a = exchange.SharedDoubles.attach(shm["a"], size)
    buf_b = exchange.SharedDoubles.attach(shm["b"], size)
    reduce_buf = exchange.SharedDoubles.attach(shm["r"], parties)
    try:
        build = kernel_fn(job["kernel"])
        low, high = job["low"], job["high"]
        bounds = row_bounds(low, high)
        wlo, whi = job["row_blocks"][index]
        nonempty = whi >= wlo
        tail = math.prod(h - lo + 1 for lo, h in zip(low[1:], high[1:]))
        window = slice((wlo - low[0]) * tail, (whi - low[0] + 1) * tail)

        env_base = dict(job["env"])
        window_env(env_base, job["kernel"], (wlo, whi))

        def sweep(number, fold):
            src, dst = ((buf_a, buf_b) if number % 2 == 0
                        else (buf_b, buf_a))
            local = 0.0
            if nonempty:
                local = block_sweep(build, env_base, job["param"], bounds,
                                    src.array, dst.array, window, fold)
            count_runtime("dist.worker.sweeps")
            if not fold:
                wait()
                return None
            # Every block's shared maximum; the wait after it keeps a
            # fast block from reusing the vector while a slow one
            # still reads it.
            reduce_buf.array[index] = local
            biggest = exchange.tree_reduce_max(reduce_buf.array, index,
                                               parties, wait)
            wait()
            return biggest

        return run_sweeps(job["kind"], job["control"], sweep, job["cap"])
    finally:
        buf_a.destroy()
        buf_b.destroy()
        reduce_buf.destroy()
