"""The compile worker pool behind the HTTP front end.

Two execution modes behind one ``submit_wire`` surface:

* ``workers > 0`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  of compile workers.  Each worker process owns a full
  :class:`~repro.service.CompileService` (its own memory tier plus the
  *shared* disk tier), so a source compiled by one worker is a disk
  hit for every other worker and for future server restarts.  Requests
  and results cross the process boundary in the versioned wire form
  (:mod:`repro.service.api`) — compiled objects never pickle across;
  their generated source does.
* ``workers == 0`` — inline mode: a thread pool over one in-process
  service.  No serialization boundary, no cc/fork cost; the mode
  tests, benchmarks, and small deployments use.

Crash containment: a worker that dies mid-compile (OOM killer,
segfault in a native kernel, ``os._exit``) breaks the executor.
:meth:`CompilePool.restart` swaps in a fresh executor under a lock, so
the server answers the affected requests with a reasoned 500 and keeps
serving — the queue never wedges.  For tests, a worker crash is
triggered deterministically by setting :data:`CRASH_ENV` to a token
and submitting a source containing it.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from threading import Lock
from typing import Dict, Optional

from repro.service.api import CompileRequest
from repro.service.fingerprint import PIPELINE_SALT

#: Test hook: when this environment variable holds a token and a
#: submitted source contains it, the worker process exits hard —
#: deterministic "worker crashed mid-compile" for the recovery tests.
CRASH_ENV = "REPRO_SERVE_CRASH_TOKEN"

#: Exit code of a deliberately crashed worker (distinctive in logs).
CRASH_EXIT = 13

# ----------------------------------------------------------------------
# Worker-process side.  Module-level so it pickles by reference.

_WORKER_SERVICE = None


def _init_worker(disk_dir, capacity: int, salt: str) -> None:
    global _WORKER_SERVICE
    from repro.service import CompileService

    _WORKER_SERVICE = CompileService(
        capacity=capacity, disk_dir=disk_dir, salt=salt,
    )


def _worker_submit(wire_request: Dict) -> Dict:
    if _WORKER_SERVICE is None:  # belt and braces; initializer sets it
        _init_worker(None, 256, PIPELINE_SALT)
    token = os.environ.get(CRASH_ENV)
    if token and token in str(wire_request.get("src", "")):
        os._exit(CRASH_EXIT)
    request = CompileRequest.from_wire(wire_request)
    return _WORKER_SERVICE.submit(request).to_wire()


def _worker_stats(_: object = None) -> Dict:
    if _WORKER_SERVICE is None:
        _init_worker(None, 256, PIPELINE_SALT)
    return _WORKER_SERVICE.stats()


# ----------------------------------------------------------------------


class CompilePool:
    """Process (or inline thread) pool executing wire-form requests."""

    def __init__(
        self,
        workers: int = 0,
        *,
        capacity: int = 512,
        disk_dir=None,
        salt: str = PIPELINE_SALT,
        service=None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.capacity = capacity
        self.disk_dir = disk_dir
        self.salt = salt
        self.restarts = 0
        self._lock = Lock()
        #: The in-process service (inline mode only; ``None`` with a
        #: process pool — each worker owns its own).
        self.service = service
        self._executor = None
        self._build()

    def _build(self) -> None:
        if self.workers == 0:
            if self.service is None:
                from repro.service import CompileService

                self.service = CompileService(
                    capacity=self.capacity, disk_dir=self.disk_dir,
                    salt=self.salt,
                )
            width = max(4, min(32, (os.cpu_count() or 2) * 4))
            self._executor = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-serve",
            )
        else:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.disk_dir, self.capacity, self.salt),
            )

    # ------------------------------------------------------------------

    def submit_wire(self, wire_request: Dict) -> "Future[Dict]":
        """Queue one wire-form request; the future yields wire results."""
        with self._lock:
            executor = self._executor
        if self.workers == 0:
            return executor.submit(self._inline_submit, wire_request)
        return executor.submit(_worker_submit, wire_request)

    def _inline_submit(self, wire_request: Dict) -> Dict:
        request = CompileRequest.from_wire(wire_request)
        return self.service.submit(request).to_wire()

    def stats_future(self) -> "Optional[Future[Dict]]":
        """Service stats: inline directly, else sampled from one worker."""
        with self._lock:
            executor = self._executor
        if self.workers == 0:
            return executor.submit(self.service.stats)
        try:
            return executor.submit(_worker_stats)
        except BrokenProcessPool:
            return None

    # ------------------------------------------------------------------

    def restart(self) -> None:
        """Replace a broken executor (worker crash) with a fresh one.

        In-flight futures on the old executor fail with
        :class:`BrokenProcessPool`; callers translate that into a
        reasoned 500.  Warm state survives to the extent the disk tier
        holds it — fresh workers re-promote from disk on first touch.
        """
        with self._lock:
            old = self._executor
            self.restarts += 1
            self._build()
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
