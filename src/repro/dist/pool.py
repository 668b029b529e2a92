"""The persistent worker pool behind distributed sweeps.

One :class:`DistPool` per worker count, cached at module level: the
processes are forked once and reused across iterate calls (fork keeps
the pool cheap and ships the compiled-module state for free; kernels
still travel as source through the pipes because they are built after
the fork).  Each worker owns one pipe; sweeps synchronize on a single
inherited :class:`multiprocessing.Barrier` whose party count equals
the block count.

Failure containment: a worker that raises *aborts the barrier* before
replying, so peers blocked in a sweep unwind immediately with
``BrokenBarrierError`` instead of waiting out the timeout; every
worker then reports an error reply and exits, the parent marks the
pool broken, and the next distributed call builds a fresh pool.  The
caller falls back to the single-process sweep path, so a pool failure
costs time, never correctness.

The atexit hook tears the pools down; it is idempotent and
non-blocking (bounded joins, then terminate).
"""

from __future__ import annotations

import atexit
import multiprocessing as _mp
import traceback
from typing import Dict, List

#: Upper bound on any single barrier wait; a worker that blows it
#: treats the sweep as failed (peers unwind via the broken barrier).
BARRIER_TIMEOUT = 120.0

_STOP = "stop"
_JOB = "job"


class DistPoolError(Exception):
    """A worker failed or died; the message carries its traceback."""


def fork_available() -> bool:
    """Distribution needs ``fork`` (the barrier is inherited)."""
    try:
        return "fork" in _mp.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def _worker_main(index: int, parties: int, conn, barrier) -> None:
    from repro.dist.run import run_worker_job

    while True:
        try:
            kind, job = conn.recv()
        except (EOFError, OSError):
            break
        if kind == _STOP:
            break
        try:
            result = run_worker_job(index, parties, barrier, job)
        except Exception:
            try:
                barrier.abort()
            except Exception:
                pass
            try:
                conn.send(("error", traceback.format_exc()))
            except Exception:
                pass
            break
        try:
            conn.send(("done", result))
        except (OSError, ValueError):
            break
    try:
        conn.close()
    except Exception:
        pass


class DistPool:
    """``workers`` forked processes, one pipe each, one shared barrier."""

    def __init__(self, workers: int):
        if workers < 2:
            raise ValueError("a distributed pool needs >= 2 workers")
        ctx = _mp.get_context("fork")
        self.workers = workers
        self.barrier = ctx.Barrier(workers)
        self.conns = []
        self.procs = []
        self.broken = False
        for index in range(workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(index, workers, child_conn, self.barrier),
                daemon=True,
                name=f"repro-dist-{index}",
            )
            proc.start()
            child_conn.close()
            self.conns.append(parent_conn)
            self.procs.append(proc)

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self.procs)

    def run(self, job: Dict) -> List:
        """Broadcast ``job`` to every worker; collect their replies.

        Returns the per-worker ``done`` payloads (block order).  On any
        error reply or dead worker the pool is torn down and
        :class:`DistPoolError` raised — the caller falls back.
        """
        if self.broken:
            raise DistPoolError("distributed pool is broken")
        try:
            for conn in self.conns:
                conn.send((_JOB, job))
        except (OSError, ValueError) as exc:
            self.broken = True
            self.shutdown()
            raise DistPoolError(f"worker pipe failed: {exc}") from exc
        replies = []
        for conn in self.conns:
            try:
                replies.append(conn.recv())
            except (EOFError, OSError):
                replies.append(("error", "worker process died"))
        errors = [payload for kind, payload in replies if kind != "done"]
        if errors:
            self.broken = True
            self.shutdown()
            raise DistPoolError(str(errors[0]))
        return [payload for _, payload in replies]

    def shutdown(self) -> None:
        """Stop the workers; bounded joins, then terminate (idempotent)."""
        self.broken = True
        for conn in self.conns:
            try:
                conn.send((_STOP, None))
            except Exception:
                pass
        for proc in self.procs:
            proc.join(timeout=2.0)
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for conn in self.conns:
            try:
                conn.close()
            except Exception:
                pass


#: Live pools keyed by worker count (persistent across iterate calls).
_POOLS: Dict[int, DistPool] = {}


def get_pool(workers: int) -> DistPool:
    """The cached pool for ``workers`` blocks, rebuilt if broken."""
    pool = _POOLS.get(workers)
    if pool is not None and not pool.broken and pool.alive():
        return pool
    if pool is not None:
        pool.shutdown()
    pool = DistPool(workers)
    _POOLS[workers] = pool
    return pool


@atexit.register
def shutdown_pools() -> None:
    """Tear down every cached pool (idempotent; also a test hook)."""
    pools = list(_POOLS.values())
    _POOLS.clear()
    for pool in pools:
        pool.shutdown()
