"""The versioned stats schema shared by every observability surface.

Before the serve layer there were three ad-hoc ``stats()`` shapes
(:class:`~repro.service.metrics.ServiceMetrics`, the flat dict
:meth:`CompileService.stats` glued on top of it, and the CLI's
``serve-stats`` disk summary).  They are now one schema,
:data:`STATS_SCHEMA`, consumed identically by

* :meth:`CompileService.stats` (in-process callers, tests, benches),
* the HTTP ``GET /stats`` route (which nests it under ``"service"``
  next to the server's own ``"serve"`` section), and
* ``python -m repro serve-stats [--url]`` (rendered by
  :func:`render_stats`).

Layout (see DESIGN.md for the field-by-field contract)::

    {
      "schema": "repro-stats/3",
      "requests": { hits, misses, coalesced, errors, hit_rate,
                    tiers, compile_time, hit_time, passes, ... },
      "store": {
        "memory": { entries, capacity, evictions, hits, misses },
        "disk":   { entries, bytes, dir, read_errors, write_errors }
                  | null
      },
      "serve": { admitted, shed, timeouts, ... } | absent
    }

``requests`` is :meth:`ServiceMetrics.stats` verbatim; histograms
(``compile_time``/``hit_time``/``latency``) all share the
:class:`~repro.service.metrics.Histogram` shape including
``p50_s``/``p95_s``/``p99_s``.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Version tag carried by every stats payload.  Bump on incompatible
#: layout changes; consumers check it before digging in.
STATS_SCHEMA = "repro-stats/3"


def store_stats(store) -> Dict:
    """The ``store`` section for a :class:`TieredStore`."""
    memory = store.memory
    mem: Dict[str, object] = {
        "entries": len(memory),
        "capacity": memory.capacity,
        "evictions": memory.evictions,
        "hits": memory.hits,
        "misses": memory.misses,
    }
    disk: Optional[Dict] = None
    if store.disk is not None:
        entries = list(store.disk.entries())
        disk = {
            "entries": len(entries),
            "bytes": sum(size for _, size in entries),
            "dir": str(store.disk.root),
            "read_errors": store.disk.read_errors,
            "write_errors": store.disk.write_errors,
        }
    return {"memory": mem, "disk": disk}


def service_stats(service) -> Dict:
    """The full :data:`STATS_SCHEMA` payload for a service."""
    return {
        "schema": STATS_SCHEMA,
        "requests": service.metrics.stats(),
        "store": store_stats(service.store),
    }


def render_stats(stats: Dict) -> str:
    """Human-readable rendering of a :data:`STATS_SCHEMA` payload.

    Works on any schema-tagged payload, including the server's
    (``serve`` section present, ``service`` nested).
    """
    lines = []
    schema = stats.get("schema", "?")
    lines.append(f"stats ({schema})")
    serve = stats.get("serve")
    if serve:
        lines.append(
            f"  serve: admitted {serve.get('admitted', 0)}  "
            f"shed {serve.get('shed', 0)}  "
            f"timeouts {serve.get('timeouts', 0)}  "
            f"completed {serve.get('completed', 0)}  "
            f"5xx {serve.get('http_5xx', 0)}  "
            f"worker crashes {serve.get('worker_crashes', 0)}"
        )
        latency = serve.get("latency") or {}
        if latency.get("count"):
            lines.append(
                f"  serve latency: n={latency['count']}  "
                f"mean {latency['mean_s'] * 1e3:.2f}ms  "
                f"p50 {latency['p50_s'] * 1e3:.2f}ms  "
                f"p99 {latency['p99_s'] * 1e3:.2f}ms"
            )
        counters = serve.get("counters")
        if counters:
            joined = "  ".join(
                f"{name}={value}" for name, value in sorted(counters.items())
            )
            lines.append(f"  serve counters: {joined}")
    body = stats.get("service") or stats
    requests = body.get("requests")
    if requests:
        lines.append(
            f"  requests: {requests['requests']}  "
            f"hits {requests['hits']} "
            f"(memory {requests['memory_hits']}, "
            f"disk {requests['disk_hits']})  "
            f"misses {requests['misses']}  "
            f"coalesced {requests['coalesced']}  "
            f"errors {requests['errors']}  "
            f"hit rate {requests['hit_rate']:.1%}"
        )
        for label, name in (("compile time", "compile_time"),
                            ("hit time", "hit_time")):
            times = requests.get(name) or {}
            if times.get("count"):
                lines.append(
                    f"  {label}: n={times['count']}  "
                    f"mean {times['mean_s'] * 1e3:.3f}ms  "
                    f"p50 {times['p50_s'] * 1e3:.3f}ms  "
                    f"p99 {times['p99_s'] * 1e3:.3f}ms"
                )
        passes = requests.get("passes") or {}
        if passes:
            lines.append("  pipeline passes (cumulative over misses):")
            width = max(len(name) for name in passes)
            for name, entry in passes.items():
                lines.append(
                    f"    {name:<{width}}  "
                    f"{entry['total_s'] * 1e3:9.3f}ms over "
                    f"{entry['count']} run(s)"
                )
    store = body.get("store")
    if store:
        mem = store["memory"]
        lines.append(
            f"  memory tier: {mem['entries']}/{mem['capacity']} entries, "
            f"{mem['evictions']} eviction(s), "
            f"{mem['hits']} hit(s) / {mem['misses']} miss(es)"
        )
        disk = store.get("disk")
        if disk:
            lines.append(
                f"  disk tier: {disk['entries']} entries, "
                f"{disk['bytes']} bytes at {disk['dir']}"
            )
    return "\n".join(lines)
