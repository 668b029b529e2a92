"""The compile service front end.

:class:`CompileService` memoizes :func:`repro.compile` and
:func:`repro.compile_program` behind request keys (the request as
sent, see :mod:`repro.service.fingerprint`) and a two-tier store (see
:mod:`repro.service.store`).  The entry point is
:meth:`CompileService.submit`:

* ``submit(CompileRequest(...))`` — one request (definition or
  program, detected from the source); a hit skips the entire pipeline
  (including the dependence tests, the expensive part per E11) and
  the parse, and a miss parses its source once and builds it through
  :func:`repro.core.pipeline.build`, as ``repro.compile`` does;
* ``submit([req, req, ...])`` — thread-pool fan-out with per-entry
  isolation (one bad source yields one errored
  :class:`CompileResult`, never a dead batch) and in-flight
  deduplication (identical concurrent requests compile once; the rest
  wait on the first's future);
* ``submit(CompileRequest(..., warm_only=True))`` — cache warming,
  e.g. at process start from a kernel catalog.

Concurrency: one lock guards the memory tier and one the in-flight
table; neither is held across a build, so different requests build
concurrently.  The service returns the *same* compiled object
for repeated hits; compiled objects are treated as immutable.
Mutating a cached object's report would poison later hits — don't.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from threading import Lock
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.core.pipeline import STRATEGIES, build
from repro.obs.trace import count as _trace_count
from repro.program.compile import CompiledProgram, classify_source
from repro.service.api import CompileRequest, CompileResult
from repro.service.fingerprint import (
    PIPELINE_SALT,
    fingerprint,
    fingerprint_program,
    key_digest,
    request_key,
)
from repro.service.metrics import ServiceMetrics
from repro.service.stats import render_stats, service_stats
from repro.service.store import DiskStore, MemoryLRU, TieredStore


class CompileService:
    """Request-keyed compilation cache with a concurrent batch API.

    Parameters
    ----------
    capacity:
        Memory-tier LRU capacity (live ``CompiledComp`` objects).
    disk_dir / disk:
        Enable the persistent tier: either a directory, or ``True``
        for the default ``~/.cache/repro`` (override with the
        ``REPRO_CACHE_DIR`` environment variable).  Off by default —
        tests and libraries should not write to the user's home
        silently.
    salt:
        Pipeline version salt; requests keyed under a different salt
        never see each other's entries.
    """

    def __init__(
        self,
        capacity: int = 256,
        disk_dir=None,
        disk: bool = False,
        salt: str = PIPELINE_SALT,
        max_workers: Optional[int] = None,
    ):
        disk_store = None
        if disk_dir is not None or disk:
            disk_store = DiskStore(disk_dir, salt=salt)
        self.store = TieredStore(MemoryLRU(capacity), disk_store)
        self.salt = salt
        self.metrics = ServiceMetrics()
        self.max_workers = max_workers
        #: Guards the in-flight table; never held across a build.
        self._lock = Lock()
        #: In-flight builds by request key (identical requests coalesce).
        self._inflight: Dict[tuple, Future] = {}

    # ------------------------------------------------------------------
    # Fingerprints.

    def fingerprint(self, src, params=None, options=None,
                    force_strategy=None, strategy="auto",
                    old_array=None) -> str:
        """The fingerprint this service would report for a definition."""
        return fingerprint(src, params, options, force_strategy,
                           strategy, old_array, salt=self.salt)

    def fingerprint_program(self, src, params=None, options=None,
                            result=None, fuse=True, dist=False,
                            workers=0, ooc=False) -> str:
        """The fingerprint this service would report for a program."""
        return fingerprint_program(
            src, params, options, result, fuse, salt=self.salt,
            dist=dist, workers=workers, ooc=ooc,
        )

    def fingerprint_request(self, request: CompileRequest) -> str:
        """The fingerprint of a typed request (parses nothing)."""
        return key_digest(request_key(request, self.salt))

    # ------------------------------------------------------------------
    # The typed entry point.

    def submit(self, request, max_workers: Optional[int] = None):
        """Run one request or a batch through the cache.

        A single :class:`CompileRequest` (or anything
        :meth:`_normalize` accepts: a source value, a ``(src,
        params)`` tuple, a kwargs dict) returns one
        :class:`CompileResult`.  A *list* of requests fans out over a
        thread pool and returns a list of results in request order.
        Errors are captured per result (``result.error``), never
        raised — batch neighbours are isolated; call
        :meth:`CompileResult.value` to re-raise.
        """
        if isinstance(request, list):
            return self._submit_batch(request, max_workers)
        return self._submit_one(self._normalize(request), 0)

    def _submit_batch(self, requests: Sequence,
                      max_workers: Optional[int]) -> List[CompileResult]:
        normalized = [self._normalize(req) for req in requests]
        self.metrics.record_batch(len(normalized))
        if not normalized:
            return []
        workers = max_workers or self.max_workers or min(
            8, len(normalized), (os.cpu_count() or 2)
        )
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(self._submit_one, req, index)
                for index, req in enumerate(normalized)
            ]
            return [future.result() for future in futures]

    def _submit_one(self, request: CompileRequest,
                    index: int = 0) -> CompileResult:
        started = perf_counter()
        out = CompileResult(index=index, warm_only=request.warm_only)
        if request.kind == "program":  # even when its parse fails
            out.kind = "program"
        try:
            key = request_key(request, self.salt)
            compiled, digest, tier = self.store.get(key)
            if compiled is None:
                compiled = self._build(key, digest, request, out)
            else:
                kind = "program" if isinstance(compiled, CompiledProgram) \
                    else "definition"
                if request.kind not in ("auto", kind):
                    # A text parses under one grammar at most, so this
                    # raises what a cold service raises.
                    classify_source(request.src, request.kind)
                out.kind = kind
                self.metrics.record_hit(tier, perf_counter() - started)
                _trace_count(f"service.hit.{tier}")
            out.compiled, out.fingerprint, out.tier = \
                compiled, digest, tier
            out.cached = tier is not None
        except BaseException as exc:  # per-request isolation
            out.error = exc
            self.metrics.record_error()
        out.elapsed_s = perf_counter() - started
        return out

    def _build(self, key: tuple, digest: str, request: CompileRequest,
               out: CompileResult):
        """In-flight dedup -> parse and compile -> put.

        Identical concurrent requests coalesce onto the first one's
        future; the leader parses the source once and builds from the
        tree.  An explicit ``kind`` decides whether a build fails, so
        only requests of one ``kind`` coalesce.  ``out.kind`` is set
        to the kind the source parsed as, also when the build then
        fails.
        """
        flight = key + (request.kind,)
        with self._lock:
            future = self._inflight.get(flight)
            leader = future is None
            if leader:
                future = Future()
                self._inflight[flight] = future
        if not leader:
            self.metrics.record_coalesced()
            _trace_count("service.coalesced")
            out.kind, compiled, error = future.result()
            if error is not None:
                raise error
            return compiled

        try:
            build_started = perf_counter()
            compiled = self._compile(request, out)
            elapsed = perf_counter() - build_started
            self.store.put(key, digest, compiled)
            self.metrics.record_miss(
                elapsed, getattr(compiled.report, "timings", None)
            )
            _trace_count("service.miss")
            future.set_result((out.kind, compiled, None))
            return compiled
        except BaseException as exc:
            future.set_result((out.kind, None, exc))
            raise
        finally:
            with self._lock:
                self._inflight.pop(flight, None)

    @staticmethod
    def _compile(request: CompileRequest, out: CompileResult):
        """Parse a request's source once, note its kind in ``out`` and
        build the tree (:func:`repro.core.pipeline.build`)."""
        kind, tree = classify_source(request.src, request.kind)
        out.kind = kind
        return build(kind, tree, request)

    @staticmethod
    def _normalize(req) -> CompileRequest:
        if isinstance(req, CompileRequest):
            return req
        if isinstance(req, tuple):
            return CompileRequest(*req)
        if isinstance(req, dict):
            return CompileRequest(**req)
        return CompileRequest(req)

    # ------------------------------------------------------------------

    def invalidate(self, src, params=None, options=None,
                   force_strategy=None, strategy=None,
                   old_array=None) -> bool:
        """Drop entries from both tiers; whether any was there.

        ``src`` is a :class:`CompileRequest`, whose entry is dropped,
        or a source: then every entry its arguments can name is, with
        ``strategy=None`` under any strategy (a program's keyed with
        the default program fields).
        """
        if isinstance(src, CompileRequest):
            requests = [src]
        else:
            requests = [
                CompileRequest(src, params, options, force_strategy,
                               each, old_array)
                for each in ((strategy,) if strategy else STRATEGIES)
            ]
        dropped = [self.store.invalidate(request_key(request, self.salt))
                   for request in requests]
        return any(dropped)

    def clear(self) -> None:
        """Drop every entry from both tiers."""
        self.store.clear()

    def stats(self) -> Dict:
        """The versioned stats payload (see :mod:`repro.service.stats`)."""
        return service_stats(self)

    def summary(self) -> str:
        """Human-readable account of the service's life so far: its
        :meth:`stats`, rendered as ``serve-stats`` renders them."""
        return render_stats(self.stats())


# ----------------------------------------------------------------------
# The default service used by ``repro.compile(..., cache=True)``.

_default_service: Optional[CompileService] = None
_default_lock = Lock()


def default_service() -> CompileService:
    """The process-wide memory-only service (created on first use)."""
    global _default_service
    with _default_lock:
        if _default_service is None:
            _default_service = CompileService()
        return _default_service


def resolve_cache(cache) -> CompileService:
    """Map ``repro.compile``'s ``cache=`` argument to a service.

    Accepts ``True`` (the shared default service), a
    :class:`CompileService`, or a directory path (``str`` /
    ``os.PathLike``) naming a disk tier.
    """
    if cache is True:
        return default_service()
    if isinstance(cache, CompileService):
        return cache
    if isinstance(cache, (str, os.PathLike)):
        return CompileService(disk_dir=cache)
    raise TypeError(
        "cache= must be True, a CompileService, or a directory path; "
        f"got {cache!r}"
    )
