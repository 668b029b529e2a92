"""Observability for the compiler and its runtime (``repro.obs``).

Three zero-dependency layers, threaded through every subsystem:

* :mod:`repro.obs.trace` — nestable spans with wall time, counters,
  and attributes.  The pipeline records one :class:`Trace` per
  compile; ``Report.timings`` is now a view derived from it (the
  root span is the authoritative ``total``).  Runtime-side counters
  (allocations, convergence sweeps, block and tile runs) are gated
  behind ``REPRO_TRACE=1`` so the hot paths pay nothing by default.
* :mod:`repro.obs.explain` — the decision-trace renderer behind
  ``repro.compile(..., explain=True)`` and ``python -m repro
  explain``: *why* each schedule/in-place/vectorize/reuse
  decision was taken or rejected, human-readable or ``--json``.
* :mod:`repro.obs.bench` — normalized ``BENCH_<host>.json`` emission
  for the benchmark harness plus the ``bench-check`` regression gate
  CI runs against a committed baseline.
"""

from repro.obs.bench import BenchRecord, BenchSuite, bench_check
from repro.obs.explain import Decision, Explanation, explain, explain_report
from repro.obs.trace import (
    Span,
    Trace,
    active_trace,
    annotate,
    count,
    count_runtime,
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
    runtime_tracing_enabled,
    span,
    span_timings,
    trace_scope,
    tracing,
)

__all__ = [
    "BenchRecord",
    "BenchSuite",
    "Decision",
    "Explanation",
    "Span",
    "Trace",
    "active_trace",
    "annotate",
    "bench_check",
    "count",
    "count_runtime",
    "explain",
    "explain_report",
    "refresh_runtime_tracing",
    "reset_runtime_counters",
    "runtime_counters",
    "runtime_tracing_enabled",
    "span",
    "span_timings",
    "trace_scope",
    "tracing",
]
