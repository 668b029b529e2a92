"""Counters and timers for the compile service.

Everything is process-local and thread-safe.  ``stats()`` returns a
plain dict (JSON-able), which
:func:`~repro.service.stats.render_stats` renders for people (the
CLI's ``serve-stats`` and :meth:`CompileService.summary`).  Per-pass
timings come from
:attr:`repro.core.pipeline.Report.timings`, which the pipeline fills
in on every run, so the service can say not just *how long* compiles
take but *where* the time goes (the E11 question: how much of it is
the dependence tests).
"""

from __future__ import annotations

from collections import defaultdict
from threading import Lock
from typing import Dict, Mapping, Optional


class Histogram:
    """Fixed-bucket latency histogram (seconds)."""

    #: Upper bucket edges, chosen around compile latencies: 100 µs for
    #: memory hits up through seconds for pathological nests.
    BUCKETS = (
        0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
        0.025, 0.05, 0.1, 0.25, 0.5, 1.0, float("inf"),
    )

    def __init__(self):
        self.counts = [0] * len(self.BUCKETS)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, seconds: float) -> None:
        for k, edge in enumerate(self.BUCKETS):
            if seconds <= edge:
                self.counts[k] += 1
                break
        self.count += 1
        self.total += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 < q <= 1).

        Resolution is the bucket grid: the answer is the upper edge of
        the bucket holding the ``q``-th observation (the true max for
        the last bucket, which has no finite edge).  Good enough for
        p50/p95/p99 service dashboards; exact client-side latencies
        live in the load generator.
        """
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        seen = 0
        for edge, n in zip(self.BUCKETS, self.counts):
            seen += n
            if seen >= rank:
                if edge == float("inf"):
                    return self.max if self.max is not None else 0.0
                return edge
        return self.max if self.max is not None else 0.0

    def stats(self) -> Dict:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min,
            "max_s": self.max,
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
            "buckets": {
                ("inf" if edge == float("inf") else f"<={edge:g}s"): n
                for edge, n in zip(self.BUCKETS, self.counts)
                if n
            },
        }


class ServiceMetrics:
    """Aggregated service counters: hits, misses, timings, errors."""

    def __init__(self):
        self._lock = Lock()
        self.hits = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.errors = 0
        self.coalesced = 0  # waited on an identical in-flight compile
        self.compile_time = Histogram()
        self.hit_time = Histogram()
        self.pass_seconds: Dict[str, float] = defaultdict(float)
        self.pass_counts: Dict[str, int] = defaultdict(int)
        #: Hit count per store tier name (open-ended: new tiers show
        #: up here without a schema change).
        self.tier_hits: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------

    def record_hit(self, tier: str, seconds: float) -> None:
        with self._lock:
            self.hits += 1
            if tier == "disk":
                self.disk_hits += 1
            else:
                self.memory_hits += 1
            self.tier_hits[tier or "memory"] += 1
            self.hit_time.observe(seconds)

    def record_miss(self, seconds: float,
                    timings: Optional[Mapping[str, float]] = None) -> None:
        with self._lock:
            self.misses += 1
            self.compile_time.observe(seconds)
            for name, spent in (timings or {}).items():
                self.pass_seconds[name] += spent
                self.pass_counts[name] += 1

    def record_coalesced(self) -> None:
        with self._lock:
            self.coalesced += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    # ------------------------------------------------------------------

    def stats(self) -> Dict:
        with self._lock:
            requests = self.hits + self.misses + self.coalesced
            return {
                "requests": requests,
                "hits": self.hits,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "errors": self.errors,
                "hit_rate": (self.hits / requests) if requests else 0.0,
                "tiers": {
                    tier: {
                        "hits": count,
                        "share": (count / self.hits) if self.hits
                        else 0.0,
                    }
                    for tier, count in sorted(self.tier_hits.items())
                },
                "compile_time": self.compile_time.stats(),
                "hit_time": self.hit_time.stats(),
                "passes": {
                    name: {
                        "total_s": self.pass_seconds[name],
                        "count": self.pass_counts[name],
                    }
                    for name in sorted(self.pass_seconds)
                },
            }
