"""E20 (extension) — what observability costs at run time.

The compile-time spans replaced bookkeeping the pipeline already did
(``Report.timings`` was always filled from ``perf_counter`` pairs), so
the interesting price is the runtime side: the ``REPRO_TRACE``-gated
counters in ``alloc_buffer`` and the program driver's sweep counters.
Disabled, each site costs one module-global boolean test; enabled, a
dict upsert per *allocation or sweep* — never per cell.

Asserted shape, on the E18 SOR kernel:

* results are **bit-identical** with tracing on and off (counters
  observe, they never steer);
* enabling ``REPRO_TRACE=1`` slows the compiled kernel by **< 3%**
  (the median, over k adjacent traced/untraced pairs of runs, of each
  pair's time ratio; the relaxed ``REPRO_BENCH_FAST`` bound is 15%
  because small meshes amplify fixed noise);
* the counters actually count: an SOR run records its buffer
  allocation, a program convergence run its sweeps.

Set ``REPRO_BENCH_FAST=1`` for a CI-sized run (n = 48).
"""

import gc
import os
import statistics
import time

import pytest

import repro
from repro import FlatArray
from repro.dist.pool import shutdown_pools
from repro.kernels import PROGRAM_JACOBI_STEPS, SOR_MONOLITHIC, mesh_cells
from repro.obs.trace import (
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
)

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
N = 48 if FAST else 192
#: Traced/untraced pairs.  The fast mesh's ~1 ms call sits in this
#: host class's noise, so it takes more pairs.
REPEAT = 15 if FAST else 9
MAX_OVERHEAD = 0.15 if FAST else 0.03


def traced_overhead(fn, set_tracing, repeat=REPEAT):
    """Fractional cost of tracing ``fn``: the median over ``repeat``
    adjacent pairs of runs of traced time / untraced time, minus one.

    An earlier module's dist worker pool (E24) competes for the cores
    and its garbage awaits a collection, so both go before the clock
    starts.  A pair's two runs sit side by side, so load from another
    process slows both alike; the median drops the few pairs a burst
    splits, and alternating which arm runs first cancels any order
    effect.  A best-of floor per arm would not: one lucky run sets an
    arm's floor, and a burst over one arm's runs reads as overhead.
    """
    shutdown_pools()
    gc.collect()
    ratios = []
    for pair in range(repeat):
        seconds = {}
        for enabled in ((False, True) if pair % 2 == 0 else (True, False)):
            set_tracing(enabled)
            started = time.perf_counter()
            fn()
            seconds[enabled] = time.perf_counter() - started
        ratios.append(seconds[True] / seconds[False])
    return statistics.median(ratios) - 1.0


def sor_env(n):
    return {
        "m": n,
        "u": FlatArray.from_list(((1, 1), (n, n)), mesh_cells(n)),
        "omega": 1.5,
    }


@pytest.fixture
def tracing_env(monkeypatch):
    """Flip ``REPRO_TRACE`` and restore the gate afterwards."""

    def set_tracing(enabled):
        if enabled:
            monkeypatch.setenv("REPRO_TRACE", "1")
        else:
            monkeypatch.delenv("REPRO_TRACE", raising=False)
        return refresh_runtime_tracing()

    yield set_tracing
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    refresh_runtime_tracing()


def test_e20_trace_overhead_and_identity(tracing_env):
    """The headline claim: < 3% overhead, bit-identical results."""
    compiled = repro.compile(SOR_MONOLITHIC, params={"m": N})
    env = sor_env(N)

    reset_runtime_counters()
    overhead = traced_overhead(lambda: compiled(env), tracing_env)
    counters = runtime_counters()
    assert tracing_env(False) is False
    untraced = compiled(env).to_list()
    assert tracing_env(True) is True
    traced_result = compiled(env).to_list()

    assert traced_result == untraced  # counters observe, never steer
    assert counters.get("alloc.arrays", 0) >= 1
    assert overhead <= MAX_OVERHEAD, (
        f"REPRO_TRACE=1 cost {overhead:.1%} "
        f"(bound {MAX_OVERHEAD:.0%}, median of {REPEAT} pairs)"
    )


def test_e20_program_sweep_counters(tracing_env):
    """A convergence run records its sweeps and buffer recycling."""
    n = 16
    program = repro.compile_program(PROGRAM_JACOBI_STEPS,
                                    params={"m": n, "k": 8})
    assert tracing_env(True) is True
    reset_runtime_counters()
    result = program({"m": n, "k": 8})
    counters = runtime_counters()
    assert len(result.to_list()) == n * n
    assert counters.get("iterate.sweeps.double", 0) == 8
    assert counters.get("alloc.arrays", 0) >= 1


@pytest.mark.benchmark(group="E20-trace")
def test_e20_traced_run(benchmark, tracing_env):
    """The traced configuration, timed for the BENCH_<host> record."""
    compiled = repro.compile(SOR_MONOLITHIC, params={"m": N})
    env = sor_env(N)
    assert tracing_env(True) is True
    benchmark.extra_info["kernel"] = "SOR_MONOLITHIC"
    benchmark.extra_info["n"] = N
    benchmark.extra_info["strategy"] = compiled.report.strategy
    result = benchmark(lambda: compiled(env))
    assert len(result.to_list()) == N * N
