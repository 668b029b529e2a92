"""Compile service: fingerprinting, caching, and batch compilation.

The Anderson & Hudak pipeline is a pure function of (source, params,
options, strategy) — the determinism tests in
``tests/test_determinism.py`` pin this down — so its output can be
memoized.  This package turns the per-call compiler into a service:

* :mod:`repro.service.fingerprint` — the cache key: the request as
  sent (source text, params, options and the other request fields)
  plus the pipeline version salt, and its sha256 fingerprint;
* :mod:`repro.service.store` — a two-tier cache: in-memory LRU of live
  :class:`~repro.codegen.compile.CompiledComp` objects over an optional
  on-disk store of generated source + pickled reports;
* :mod:`repro.service.api` — the typed request/response surface:
  :class:`CompileRequest`/:class:`CompileResult` and their versioned
  JSON wire schema (shared with the HTTP endpoint in
  :mod:`repro.serve`);
* :mod:`repro.service.service` — :class:`CompileService` with
  ``submit()`` (single request, batch fan-out with per-entry
  isolation and in-flight deduplication, or cache warming via
  ``warm_only=True``);
* :mod:`repro.service.metrics` / :mod:`repro.service.stats` —
  hit/miss/eviction counters, latency histograms with p50/p95/p99,
  per-pass timings, all rendered into one versioned stats schema.

Quick start::

    from repro.service import CompileRequest, CompileService

    svc = CompileService(capacity=128, disk_dir="~/.cache/repro")
    result = svc.submit(CompileRequest(src, params={"n": 100}))  # miss
    result = svc.submit(CompileRequest(src, params={"n": 100}))  # hit
    compiled = result.value()
    print(svc.summary())

Or through the pipeline front door::

    import repro
    compiled = repro.compile(src, params={"n": 100}, cache=True)
"""

from repro.service.api import (
    WIRE_SCHEMA,
    CompileRequest,
    CompileResult,
    WireError,
    decode_requests,
    encode_requests,
    encode_results,
)
from repro.service.fingerprint import (
    PIPELINE_SALT,
    fingerprint,
    fingerprint_program,
)
from repro.service.metrics import Histogram, ServiceMetrics
from repro.service.service import (
    CompileService,
    default_service,
    resolve_cache,
)
from repro.service.stats import STATS_SCHEMA, render_stats, service_stats
from repro.service.store import (
    DEFAULT_CACHE_DIR,
    DiskStore,
    MemoryLRU,
    TieredStore,
)

__all__ = [
    "CompileRequest",
    "CompileResult",
    "CompileService",
    "DEFAULT_CACHE_DIR",
    "DiskStore",
    "Histogram",
    "MemoryLRU",
    "PIPELINE_SALT",
    "STATS_SCHEMA",
    "ServiceMetrics",
    "TieredStore",
    "WIRE_SCHEMA",
    "WireError",
    "decode_requests",
    "default_service",
    "encode_requests",
    "encode_results",
    "fingerprint",
    "fingerprint_program",
    "render_stats",
    "resolve_cache",
    "service_stats",
]
