"""The compile service front end.

:class:`CompileService` memoizes :func:`repro.compile` and
:func:`repro.compile_program` behind canonical fingerprints (see
:mod:`repro.service.fingerprint`) and a two-tier store (see
:mod:`repro.service.store`).  The entry point is
:meth:`CompileService.submit`:

* ``submit(CompileRequest(...))`` — one request (definition or
  program, detected from the source); a hit skips the entire pipeline
  (including the dependence tests, the expensive part per E11), and a
  repeated request skips the parse too;
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

import dataclasses
import os
from concurrent.futures import Future, ThreadPoolExecutor
from threading import Lock
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import count as _trace_count
from repro.program.compile import classify_source
from repro.service.api import CompileRequest, CompileResult
from repro.service.fingerprint import PIPELINE_SALT
from repro.service.fingerprint import fingerprint, fingerprint_program
from repro.service.metrics import ServiceMetrics
from repro.service.stats import service_stats
from repro.service.store import DiskStore, MemoryLRU, TieredStore

#: Request-memo entries kept per service (see
#: :meth:`CompileService._resolve`).
_MEMO_CAP = 4096


class CompileService:
    """Fingerprint-keyed compilation cache with a concurrent batch API.

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
        Pipeline version salt; requests fingerprinted under a
        different salt never see each other's entries.
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
        #: Guards the in-flight table and the request memo; never
        #: held across a parse or a build.
        self._lock = Lock()
        #: In-flight builds by fingerprint (identical requests coalesce).
        self._inflight: Dict[str, Future] = {}
        # Request memo: a request's fields -> (kind, fingerprint), so
        # a repeated request goes to the store without parsing.
        # Renamed or re-formatted variants still meet in the store
        # through the canonical fingerprint.
        self._memo: Dict[tuple, Tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # Fingerprints.

    def fingerprint(self, src, params=None, options=None,
                    force_strategy=None, strategy="array",
                    old_array=None) -> str:
        """The cache key this service would use for a definition."""
        return self.fingerprint_request(CompileRequest(
            src, params, options, force_strategy, strategy, old_array,
            kind="definition",
        ))

    def fingerprint_program(self, src, params=None, options=None,
                            result=None, fuse=True, dist=False,
                            workers=0, ooc=False) -> str:
        """The cache key this service would use for a whole program."""
        return self.fingerprint_request(CompileRequest(
            src, params, options, kind="program", result=result,
            fuse=fuse, dist=dist, workers=workers, ooc=ooc,
        ))

    def fingerprint_request(self, request: CompileRequest) -> str:
        """The cache key for a normalized typed request."""
        return self._resolve(request)[1]

    def _resolve(self, request: CompileRequest):
        """``(kind, fingerprint, tree)`` of one request.

        A request seen before is answered from the request memo and
        parses nothing (``tree`` is ``None``).  A new one is parsed
        once (:func:`~repro.program.compile.classify_source`) and
        fingerprinted from the tree, which the caller builds from on a
        store miss.  The memo holds strings only, never a tree, and no
        failed request.
        """
        memo_key = None
        if isinstance(request.src, str):
            # The options object itself: frozen, so it hashes.
            memo_key = (
                request.src, repr(sorted((request.params or {}).items())),
                request.options, request.strategy,
                request.force_strategy, request.old_array, request.kind,
                request.result, request.fuse, request.dist,
                request.workers, request.ooc,
            )
            known = self._memo.get(memo_key)
            if known is not None:
                return known[0], known[1], None
        kind, tree = classify_source(request.src, request.kind)
        if kind == "program":
            key = fingerprint_program(
                tree, request.params, request.options, request.result,
                request.fuse, self.salt, request.dist, request.workers,
                request.ooc,
            )
        else:
            key = fingerprint(
                tree, request.params, request.options,
                request.force_strategy, request.strategy,
                request.old_array, self.salt,
            )
        if memo_key is not None:
            with self._lock:
                if len(self._memo) >= _MEMO_CAP:
                    self._memo.clear()
                self._memo[memo_key] = (kind, key)
        return kind, key, tree

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
            out.kind, out.fingerprint, tree = self._resolve(request)
            if tree is not None:
                request = dataclasses.replace(request, src=tree)
            out.compiled, out.tier = self._cached(
                out.fingerprint, self._builder(request, out.kind), started
            )
            out.cached = out.tier is not None
        except BaseException as exc:  # per-request isolation
            out.error = exc
            self.metrics.record_error()
        out.elapsed_s = perf_counter() - started
        return out

    def _builder(self, request: CompileRequest, kind: str):
        if kind == "program":
            def build():
                from repro.program.compile import compile_program

                return compile_program(
                    request.src, params=request.params,
                    options=request.options, result=request.result,
                    fuse=request.fuse, dist=request.dist,
                    workers=request.workers, ooc=request.ooc,
                )
        else:
            def build():
                from repro.core import pipeline

                return pipeline.compile(
                    request.src, strategy=request.strategy,
                    params=request.params, options=request.options,
                    force_strategy=request.force_strategy,
                    old_array=request.old_array,
                )
        return build

    def _cached(self, key: str, build, started: float):
        """Store lookup -> in-flight dedup -> build -> put.

        Returns ``(compiled, tier)`` — ``tier`` is the store tier that
        served a hit, ``None`` when this call (or an in-flight leader
        it coalesced onto) ran the pipeline.  ``started`` is the
        request's clock, so ``hit_time`` is what the caller waited.
        """
        compiled, tier = self.store.get(key)
        if compiled is not None:
            self.metrics.record_hit(tier, perf_counter() - started)
            _trace_count(f"service.hit.{tier or 'memory'}")
            return compiled, tier

        with self._lock:
            future = self._inflight.get(key)
            leader = future is None
            if leader:
                future = Future()
                self._inflight[key] = future
        if not leader:
            self.metrics.record_coalesced()
            _trace_count("service.coalesced")
            return future.result(), None

        try:
            build_started = perf_counter()
            compiled = build()
            elapsed = perf_counter() - build_started
            self.store.put(key, compiled)
            self.metrics.record_miss(
                elapsed, getattr(compiled.report, "timings", None)
            )
            _trace_count("service.miss")
            future.set_result(compiled)
            return compiled, None
        except BaseException as exc:
            future.set_exception(exc)
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)

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
                   force_strategy=None, strategy="array",
                   old_array=None) -> bool:
        """Drop one request's entry from both tiers.

        ``src`` is a :class:`CompileRequest`, or the source of one
        built from the other arguments; either way its kind is found
        the way :meth:`submit` finds it.
        """
        request = src if isinstance(src, CompileRequest) else \
            CompileRequest(src, params, options, force_strategy,
                           strategy, old_array)
        return self.store.invalidate(self.fingerprint_request(request))

    def clear(self) -> None:
        """Drop every entry from both tiers."""
        self.store.clear()

    def stats(self) -> Dict:
        """The versioned stats payload (see :mod:`repro.service.stats`)."""
        return service_stats(self)

    def summary(self) -> str:
        """Human-readable account of the service's life so far."""
        stats = self.stats()
        store = stats["store"]
        lines = [self.metrics.render()]
        mem = store["memory"]
        lines.append(
            f"  memory tier: {mem['entries']}/{mem['capacity']} "
            f"entries, {mem['evictions']} eviction(s)"
        )
        disk = store["disk"]
        if disk is not None:
            lines.append(
                f"  disk tier: {disk['entries']} entries, "
                f"{disk['bytes']} bytes at {disk['dir']}"
            )
        return "\n".join(lines)


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
