"""E17 — the compile service: cold vs. warm compile latency.

Not a paper artifact but a scaling claim for the reproduction itself
(see ROADMAP): the pipeline is deterministic (E17's precondition,
``tests/test_determinism.py``), so a cache keyed on the request as sent
can serve repeated compilations without re-running parsing, the §5/§6
dependence tests, or §8 scheduling.  The memory tier looks the request
key up as a tuple, so a hit neither parses nor hashes whatever its kind.
Asserted shape: a warm hit is at least 10x faster than a cold pipeline
run for a wavefront definition (with ``kind="definition"`` and with the
default ``kind="auto"``) and for a whole program
(``program_jacobi_steps``, ``kind="auto"``), and a batch of duplicates
compiles exactly once.
"""

import time

import pytest

import repro
from repro import CompileRequest, CompileService
from repro.kernels import PROGRAM_CATALOG, SOR, SQUARES, WAVEFRONT

PARAMS = {"n": 30}
JACOBI_STEPS = PROGRAM_CATALOG["program_jacobi_steps"]


def cold_compile(src=WAVEFRONT, params=PARAMS):
    """One full pipeline run (no cache)."""
    return repro.compile(src, strategy="array", params=params)


def cached_compile(service, src=WAVEFRONT, params=PARAMS,
                   kind="definition"):
    """One request through the service's cache."""
    return service.submit(CompileRequest(src, params, kind=kind)).value()


def best_of(fn, repeat=5):
    """Best wall time over ``repeat`` runs (noise-resistant floor)."""
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


@pytest.mark.benchmark(group="E17-cold")
def test_e17_cold_compile(benchmark):
    compiled = benchmark(cold_compile)
    assert compiled.report.strategy == "thunkless"


@pytest.mark.benchmark(group="E17-warm")
def test_e17_warm_hit(benchmark):
    service = CompileService()
    cached_compile(service)
    compiled = benchmark(cached_compile, service)
    assert compiled.report.strategy == "thunkless"
    stats = service.stats()["requests"]
    assert stats["misses"] == 1
    assert stats["hits"] >= 1


def warm_speedup(label, cold_fn, warm_fn):
    """Cold best-of over warm best-of, after one warming call."""
    cold = best_of(cold_fn)
    warm_fn()
    warm = best_of(warm_fn)
    speedup = cold / warm
    print(f"\nE17 {label}: cold {cold * 1e3:.3f}ms  "
          f"warm {warm * 1e6:.1f}us  speedup {speedup:.0f}x")
    assert speedup >= 10.0, (
        f"{label}: warm hit only {speedup:.1f}x faster than cold compile"
    )


def test_e17_warm_speedup_at_least_10x():
    service = CompileService()
    warm_speedup("definition", cold_compile,
                 lambda: cached_compile(service))
    # A hit returns the same artifact a cold compile would produce.
    assert cached_compile(service).source == cold_compile().source


def test_e17_auto_kind_hit_at_least_10x():
    """The default kind: the hit must not parse to detect it."""
    service = CompileService()
    warm_speedup("auto definition", cold_compile,
                 lambda: cached_compile(service, kind="auto"))
    assert service.stats()["requests"]["misses"] == 1


def test_e17_program_hit_at_least_10x():
    src, params = JACOBI_STEPS["source"], JACOBI_STEPS["params"]
    service = CompileService()
    warm_speedup(
        "auto program",
        lambda: repro.compile_program(src, params=params),
        lambda: cached_compile(service, src, params, kind="auto"),
    )
    hit = service.submit(CompileRequest(src, params))
    assert hit.kind == "program" and hit.tier == "memory"


def test_e17_batch_throughput_dedup():
    service = CompileService()
    requests = [CompileRequest(WAVEFRONT, PARAMS),
                CompileRequest(SQUARES, {"n": 50}),
                CompileRequest(SOR, {"m": 10, "omega": 1})] * 4
    started = time.perf_counter()
    results = service.submit(requests, max_workers=4)
    batch_time = time.perf_counter() - started
    assert all(result.ok for result in results)
    stats = service.stats()["requests"]
    # 12 requests, 3 distinct compilations: dedup did the rest.
    assert stats["misses"] == 3
    assert stats["hits"] + stats["coalesced"] == 9
    # Throughput sanity: the batch costs about 3 compiles, not 12.
    serial_estimate = sum(
        best_of(lambda src=s, p=prm: cold_compile(src, p), repeat=1)
        for s, prm in [(WAVEFRONT, PARAMS), (SQUARES, {"n": 50}),
                       (SOR, {"m": 10, "omega": 1})]
    )
    print(f"\nE17 batch: 12 requests in {batch_time * 1e3:.1f}ms "
          f"(3 unique compiles ~{serial_estimate * 1e3:.1f}ms)")
    assert batch_time < serial_estimate * 4


def test_e17_disk_tier_faster_than_pipeline(tmp_path):
    cached_compile(CompileService(disk_dir=tmp_path))
    cold = best_of(cold_compile)

    def disk_hit():
        service = CompileService(disk_dir=tmp_path)  # empty memory tier
        cached_compile(service)
        assert service.stats()["requests"]["disk_hits"] == 1

    warm_disk = best_of(disk_hit)
    print(f"\nE17 disk: cold {cold * 1e3:.3f}ms  "
          f"disk hit {warm_disk * 1e3:.3f}ms")
    # Disk hits re-exec source but skip analysis; they must beat a
    # full pipeline run comfortably (shape, not absolute numbers).
    assert warm_disk < cold
