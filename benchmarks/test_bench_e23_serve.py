"""E23 — serving under contention: worker pool + per-service cache vs.
the global-lock baseline.

Not a paper artifact but the serving claim for the reproduction
itself (see ROADMAP / EXPERIMENTS.md): 16 concurrent clients mixing
warm hits (~85%) with cold compiles are served by the production
configuration — a process pool of compile workers, each owning a
memory tier over a shared disk tier — at a multiple of the
throughput of the pre-redesign architecture, where one global lock
serialized every request through a single in-process cache.

Two mechanisms, asserted separately because they need different
hardware:

* **Compile parallelism** (the >= 3x bound): cold compiles are pure
  Python, so only worker *processes* overlap them — the bound is
  asserted on machines with >= 4 CPUs (GitHub runners qualify) and
  reported, not asserted, elsewhere.
* **No-penalty locking** (asserted everywhere): the service's own
  locks (the memory tier's and the in-flight table's, neither held
  across a build) in place of one global lock must never cost
  throughput, even on one core where the GIL forbids any speedup.

Also asserted, per the redesign's contract: responses under
contention are bit-identical to direct ``CompileService`` calls, and
zero requests error.  The timed record is the in-process
mixed workload (stable across hardware); client-observed p50/p99 go
into the BENCH json ``extra_info`` so ``bench-check`` gates the run
against the committed baseline.

Set ``REPRO_BENCH_FAST=1`` for a CI-sized run (fewer requests per
client; same assertions).
"""

import gc
import os
import statistics
import threading
import time
from threading import Lock

import pytest

from repro import CompileRequest, CompileService
from repro.serve.loadgen import cold_request, warm_requests
from repro.serve.pool import CompilePool

CLIENTS = 16
REQUESTS_PER_CLIENT = 8 if os.environ.get("REPRO_BENCH_FAST") else 24
HIT_RATE = 0.85
#: The ratio experiment runs a colder mix so compile work (the part
#: worker processes parallelize) dominates IPC and warm-hit overhead.
RATIO_HIT_RATE = 0.3
SEED = 1990

#: Alternating global-lock/service pairs for the no-penalty ratio.
LOCK_PAIRS = 7

#: Worker processes for the pool run (capped by the machine).
POOL_WORKERS = max(2, min(4, os.cpu_count() or 1))


class GlobalLockService(CompileService):
    """The pre-redesign architecture: one lock around the request path.

    Models the seed's cache, where the memory tier's single lock —
    held across lookup *and* build by the in-flight table — serialized
    every request against every other.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._global = Lock()

    def submit(self, request):
        with self._global:
            return super().submit(request)


def cold_request_2d(rng):
    """A unique 2-D recurrence — a *substantial* cold compile (full
    dependence testing + wavefront scheduling), unlike the quick 1-D
    sources the load generator mixes in."""
    n = rng.randint(8, 14)
    a, b, c = (rng.randint(2, 9) for _ in range(3))
    return (
        f"letrec* a = array ((1,1),({n},{n}))\n"
        f"   ([ (1,j) := {a} | j <- [1..{n}] ] ++\n"
        f"    [ (i,1) := {b} | i <- [2..{n}] ] ++\n"
        f"    [ (i,j) := a!(i-1,j) + {c}*a!(i,j-1) + a!(i-1,j-1)\n"
        f"      | i <- [2..{n}], j <- [2..{n}] ])\n"
        f"in a"
    )


def make_mix(hit_rate=HIT_RATE, heavy_cold=False):
    """A deterministic 16-client traffic mix (warm and cold plans).

    Each run drives a fresh cache, so the same plan is an identical
    workload for every architecture: same warm set, same cold set.
    """
    import random

    warm = [CompileRequest(**entry) for entry in warm_requests()]
    plans = []
    for client in range(CLIENTS):
        rng = random.Random(SEED * 7919 + client)
        plan = []
        for _ in range(REQUESTS_PER_CLIENT):
            if rng.random() < hit_rate:
                plan.append(rng.randrange(len(warm)))
            elif heavy_cold:
                plan.append(cold_request_2d(rng))
            else:
                plan.append(cold_request(rng)["src"])
        plans.append(plan)
    return warm, plans


def drive(submit, warm, plans):
    """Run the mix through ``submit(request)``; returns
    ``(elapsed_s, sorted_latencies)`` and asserts zero errors."""
    latencies = []
    lock = Lock()
    errors = []
    barrier = threading.Barrier(len(plans))

    def client(plan):
        mine = []
        barrier.wait()
        for step in plan:
            request = warm[step] if isinstance(step, int) \
                else CompileRequest(step)
            started = time.perf_counter()
            ok, error = submit(request)
            mine.append(time.perf_counter() - started)
            if not ok:
                errors.append(error)
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=client, args=(plan,))
               for plan in plans]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors[:3]
    return elapsed, sorted(latencies)


def service_submit(service):
    def submit(request):
        result = service.submit(request)
        return result.ok, result.error
    return submit


def pool_submit(pool):
    def submit(request):
        result = pool.submit_wire(request.to_wire()).result(300)
        return result["ok"], result.get("error")
    return submit


def prewarm(service, warm):
    for request in warm:
        assert service.submit(request).ok


def quantile(latencies, q):
    return latencies[min(len(latencies) - 1, int(q * len(latencies)))]


def run_global_lock_baseline(warm, plans):
    baseline = GlobalLockService(capacity=512)
    prewarm(baseline, warm)
    return drive(service_submit(baseline), warm, plans)


def test_e23_pool_beats_global_lock(tmp_path):
    """The headline ratio: worker pool + memory/disk tiers vs. the
    serialized in-process baseline, same traffic.  Runs the colder
    heavy mix — parallelizable compile work front and center."""
    warm, plans = make_mix(hit_rate=RATIO_HIT_RATE, heavy_cold=True)
    total = CLIENTS * REQUESTS_PER_CLIENT

    locked_s, locked_lat = run_global_lock_baseline(warm, plans)

    # Production config: worker processes over a shared disk tier.
    # Prewarm through the disk so every worker's first warm touch is
    # a disk hit (re-exec, no analysis) instead of a cold compile.
    disk = str(tmp_path / "cache")
    seeder = CompileService(disk_dir=disk)
    prewarm(seeder, warm)
    with CompilePool(POOL_WORKERS, disk_dir=disk) as pool:
        # one round trip per worker forces initializer completion
        # before the clock starts
        pool.submit_wire(warm[0].to_wire()).result(300)
        pool_s, pool_lat = drive(pool_submit(pool), warm, plans)

    locked_rps = total / locked_s
    pool_rps = total / pool_s
    ratio = pool_rps / locked_rps
    cores = os.cpu_count() or 1
    print(
        f"\nE23: {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests, "
        f"{cores} core(s)  "
        f"global-lock {locked_rps:.0f} req/s "
        f"(p99 {quantile(locked_lat, 0.99) * 1e3:.1f}ms)  "
        f"pool[{POOL_WORKERS}] {pool_rps:.0f} req/s "
        f"(p99 {quantile(pool_lat, 0.99) * 1e3:.1f}ms)  "
        f"ratio {ratio:.2f}x"
    )
    if cores >= 4:
        assert ratio >= 3.0, (
            f"worker pool only {ratio:.2f}x the global-lock baseline "
            f"(wanted >= 3x on {cores} cores)"
        )
    # On fewer cores the GIL-free processes still can't overlap
    # compute, so the ratio is reported, not asserted (the E22
    # gate-on-environment pattern).


def test_e23_service_locks_never_cost_throughput():
    """The service's own locks replace the global lock with no
    penalty, even where the GIL forbids any speedup (one core: ratio
    ~= 1.0).  The ratio is the median over alternating pairs of arms:
    one arm is ~0.1 s on two cores (less in fast mode), so a single
    pair reads a host hiccup as readily as the locks."""
    warm, plans = make_mix()

    def timed(service):
        prewarm(service, warm)
        # A run takes ~0.1 s on two cores, less than one full
        # collection of what earlier tests left: collect first, so
        # no arm pays for garbage it did not make.
        gc.collect()
        return drive(service_submit(service), warm, plans)[0]

    ratios = []
    for pair in range(LOCK_PAIRS):
        arms = [GlobalLockService(capacity=512), CompileService(capacity=512)]
        if pair % 2:
            arms.reverse()
        times = {type(arm): timed(arm) for arm in arms}
        ratios.append(times[GlobalLockService] / times[CompileService])

    ratio = statistics.median(ratios)
    print(f"\nE23: service/global-lock in-process ratio {ratio:.2f}x "
          f"(median of {LOCK_PAIRS} pairs: "
          + " ".join(f"{r:.2f}" for r in ratios) + ")")
    assert ratio >= 0.75, (
        f"the service's locks cost throughput: {ratio:.2f}x the global-lock "
        "baseline on identical traffic"
    )


def test_e23_responses_bit_identical_to_direct():
    """Serving through the concurrent path changes scheduling, never
    artifacts: every response matches a direct compile."""
    warm, plans = make_mix()
    served_by = CompileService(capacity=512)
    prewarm(served_by, warm)
    drive(service_submit(served_by), warm, plans)

    direct = CompileService()
    for request in warm:
        served = served_by.submit(request)
        fresh = direct.submit(request)
        assert served.fingerprint == fresh.fingerprint
        served_c, fresh_c = served.compiled, fresh.compiled
        if hasattr(fresh_c, "sources"):
            assert served_c.sources() == fresh_c.sources()
        else:
            assert served_c.source == fresh_c.source


@pytest.mark.benchmark(group="E23-serve")
def test_e23_mixed_contention_throughput(benchmark):
    """The timed record: the 16-client mixed workload on the
    in-process service (stable across hardware), client-observed
    quantiles in extra_info."""
    warm, plans = make_mix()

    def workload():
        # a fresh service per round keeps the cold set genuinely cold
        service = CompileService(capacity=512)
        prewarm(service, warm)
        return drive(service_submit(service), warm, plans)

    elapsed, latencies = benchmark.pedantic(
        workload, rounds=3 if os.environ.get("REPRO_BENCH_FAST") else 5,
        iterations=1,
    )
    total = CLIENTS * REQUESTS_PER_CLIENT
    benchmark.extra_info["kernel"] = "serve_mixed"
    benchmark.extra_info["n"] = total
    benchmark.extra_info["clients"] = CLIENTS
    benchmark.extra_info["throughput_rps"] = round(total / elapsed, 1)
    benchmark.extra_info["p50_ms"] = round(
        quantile(latencies, 0.50) * 1e3, 3)
    benchmark.extra_info["p99_ms"] = round(
        quantile(latencies, 0.99) * 1e3, 3)
    assert len(latencies) == total
