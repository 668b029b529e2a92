"""E24 (extension) — distributed block-parallel execution, measured.

The workload is Jacobi iterated a fixed k sweeps on an m x m mesh
(m = 1024), plus SOR's wavefront variant: the two distributable
iterate shapes.  Two ways to run each:

* **single process** — the program driver's compiled sweeps: Jacobi
  runs as the one-block placement (the vectorized block kernel on two
  float64 buffers), SOR as true in-place sweeps;
* **distributed** — the same sweeps block-partitioned over a
  persistent fork pool writing shared ``float64`` buffers, halo reads
  served from the neighbor's block of the previous-sweep buffer.
  Jacobi's blocks run the same block kernel as the single process, so
  its speedup measures the partition alone, not vectorization too.

Asserted shape:

* on a machine with >= 4 cores, distributed Jacobi at m = 1024 is at
  least **2x faster** end-to-end than the single-process driver
  (below 4 cores the speedup assertion is skipped — block dispatch
  cannot beat the sweep it is spreading);
* results are **bit-identical** to the single-process run and the
  lazy oracle — including the *sweep count* when iterating to
  convergence, because ``max_abs_diff`` over float64 is reduced
  exactly;
* worker-side trace counters and allocation stats fold back into the
  parent trace.

Set ``REPRO_BENCH_FAST=1`` for a CI-sized run (m = 64; timing pairs
still run so the records land in the baseline, but no speedup is
claimed).
"""

import os
import time

import pytest

import repro
from repro.dist.pool import fork_available, shutdown_pools
from repro.kernels import PROGRAM_JACOBI, PROGRAM_JACOBI_STEPS, PROGRAM_SOR
from repro.obs.trace import (
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
)
from repro.program import compile_program

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
M = 64 if FAST else 1024
K = 10 if FAST else 50
CORES = os.cpu_count() or 1
WORKERS = 4
MIN_SPEEDUP = 2.0

SOR_M = 32 if FAST else 256
SOR_PARAMS = {"m": SOR_M, "k": K, "omega": 1.2}

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="distribution needs fork"
)


def teardown_module(module):
    shutdown_pools()


def best_of(fn, repeat=3):
    """Best wall time over ``repeat`` runs (noise-resistant floor)."""
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def jacobi(dist=False):
    return compile_program(
        PROGRAM_JACOBI_STEPS, params={"m": M, "k": K},
        dist=dist, workers=WORKERS if dist else 0,
    )


def sor(dist=False):
    return compile_program(
        PROGRAM_SOR, params=SOR_PARAMS,
        dist=dist, workers=WORKERS if dist else 0,
    )


@pytest.mark.benchmark(group="E24-jacobi")
def test_e24_jacobi_single_process(benchmark):
    program = jacobi()
    result = benchmark(program)
    assert (result.bounds.low, result.bounds.high) == ((1, 1), (M, M))


@needs_fork
@pytest.mark.benchmark(group="E24-jacobi")
def test_e24_jacobi_distributed(benchmark):
    program = jacobi(dist=True)
    assert program.steps[-1].iterate.dist is not None
    result = benchmark(program)
    assert result.to_list() == jacobi()().to_list()


@needs_fork
@pytest.mark.benchmark(group="E24-sor")
def test_e24_sor_distributed(benchmark):
    program = sor(dist=True)
    plan = program.steps[-1].iterate.dist
    assert plan is not None and plan.kind == "wavefront"
    result = benchmark(program)
    assert result.to_list() == sor()().to_list()


@needs_fork
@pytest.mark.skipif(CORES < 4, reason="speedup claim needs >= 4 cores")
@pytest.mark.skipif(FAST, reason="tiny meshes cannot amortize dispatch")
def test_e24_speedup_floor():
    """The headline claim: >= 2x end-to-end on >= 4 cores."""
    single, dist = jacobi(), jacobi(dist=True)
    assert dist().to_list() == single().to_list()
    speedup = best_of(single) / best_of(dist)
    assert speedup >= MIN_SPEEDUP, speedup


@needs_fork
def test_e24_convergence_sweep_counts_identical(monkeypatch):
    """Iterating *to convergence*: the distributed driver must take
    the same number of sweeps — its tree-reduced ``max_abs_diff`` is
    the exact float the single-process loop computes."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    refresh_runtime_tracing()
    params = {"m": 16, "tol": 1e-3}
    try:
        reset_runtime_counters()
        expect = compile_program(PROGRAM_JACOBI, params=params)()
        base = dict(runtime_counters())
        reset_runtime_counters()
        program = compile_program(PROGRAM_JACOBI, params=params,
                                  dist=True, workers=WORKERS)
        got = program()
        counters = dict(runtime_counters())
    finally:
        monkeypatch.delenv("REPRO_TRACE")
        refresh_runtime_tracing()
    assert got.to_list() == expect.to_list()
    assert (counters["iterate.sweeps.double"]
            == base["iterate.sweeps.double"])
    assert counters["dist.blocks"] == WORKERS
    # Worker-side counters folded into this (parent) trace.
    assert (counters["dist.worker.sweeps"]
            == WORKERS * counters["iterate.sweeps.double"])


@needs_fork
def test_e24_matches_lazy_oracle():
    """Bit-identity with ``run_program`` at an oracle-sized mesh."""
    params = {"m": 10, "k": 5}
    program = compile_program(PROGRAM_JACOBI_STEPS, params=params,
                              dist=True, workers=WORKERS)
    assert program.steps[-1].iterate.dist is not None
    oracle = repro.run_program(PROGRAM_JACOBI_STEPS,
                               bindings=dict(params), deep=False)
    got = program()
    assert got.bounds == oracle.bounds
    assert got.to_list() == oracle.to_list()


@needs_fork
def test_e24_plan_recorded():
    """The report names the partition, the halo, and the stages."""
    program = jacobi(dist=True)
    assert any("stencil" in line for line in program.report.dist)
    assert any("halo" in line for line in program.report.dist)
    staged = sor(dist=True)
    assert any("wavefront" in line for line in staged.report.dist)
