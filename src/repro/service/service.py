"""The compile service front end.

:class:`CompileService` memoizes :func:`repro.compile` and
:func:`repro.compile_program` behind request keys (the request as
sent, see :mod:`repro.service.fingerprint`) and a two-tier store (see
:mod:`repro.service.store`).  The entry point is
:meth:`CompileService.submit`: one :class:`CompileRequest` in, one
:class:`CompileResult` out.

* A request is a definition or a program, detected from the source.
  A hit skips the entire pipeline (including the dependence tests,
  the expensive part per E11) and the parse; a miss parses its source
  once and builds it through :func:`repro.core.pipeline.build`, as
  ``repro.compile`` does.
* An error is captured in its own result, never raised, so callers
  that submit from several threads (the serve pool) isolate each
  request.
* Identical concurrent requests compile once: the rest wait on the
  first one's in-flight future.
* ``CompileRequest(..., warm_only=True)`` warms the cache, e.g. at
  process start from a kernel catalog.

Concurrency: one lock guards the memory tier and one the in-flight
table; neither is held across a build, so different requests build
concurrently.  The service returns the *same* compiled object
for repeated hits; compiled objects are treated as immutable.
Mutating a cached object's report would poison later hits — don't.
"""

from __future__ import annotations

import os
from concurrent.futures import Future
from threading import Lock
from time import perf_counter
from typing import Dict, Optional

from repro.core.pipeline import build
from repro.obs.trace import count as _trace_count
from repro.program.compile import CompiledProgram, classify_source
from repro.service.api import CompileRequest, CompileResult, require_request
from repro.service.fingerprint import PIPELINE_SALT, fingerprint, request_key
from repro.service.metrics import ServiceMetrics
from repro.service.stats import render_stats, service_stats
from repro.service.store import DiskStore, MemoryLRU, TieredStore


class CompileService:
    """Request-keyed compilation cache, safe to share between threads.

    Parameters
    ----------
    capacity:
        Memory-tier LRU capacity (live ``CompiledComp`` objects).
    disk_dir:
        A directory for the persistent tier.  Off by default — tests
        and libraries should not write to the user's home silently.
    salt:
        Pipeline version salt; requests keyed under a different salt
        never see each other's entries.
    """

    def __init__(
        self,
        capacity: int = 256,
        disk_dir=None,
        salt: str = PIPELINE_SALT,
    ):
        disk_store = None
        if disk_dir is not None:
            disk_store = DiskStore(disk_dir, salt=salt)
        self.store = TieredStore(MemoryLRU(capacity), disk_store)
        self.salt = salt
        self.metrics = ServiceMetrics()
        #: Guards the in-flight table; never held across a build.
        self._lock = Lock()
        #: In-flight builds by request key (identical requests coalesce).
        self._inflight: Dict[tuple, Future] = {}

    def fingerprint_request(self, request: CompileRequest) -> str:
        """The fingerprint this service reports for ``request`` (parses
        nothing)."""
        return fingerprint(request, self.salt)

    # ------------------------------------------------------------------
    # The entry point.

    def submit(self, request: CompileRequest) -> CompileResult:
        """Run one :class:`CompileRequest` through the cache.

        Returns one :class:`CompileResult`.  Errors are captured in it
        (``result.error``), never raised; call
        :meth:`CompileResult.value` to re-raise.  Anything but a
        ``CompileRequest`` is a :class:`TypeError`.
        """
        require_request(request)
        started = perf_counter()
        out = CompileResult(warm_only=request.warm_only)
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

    # ------------------------------------------------------------------

    def invalidate(self, request: CompileRequest) -> bool:
        """Drop ``request``'s entry from both tiers; whether it was
        there."""
        require_request(request)
        return self.store.invalidate(request_key(request, self.salt))

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
