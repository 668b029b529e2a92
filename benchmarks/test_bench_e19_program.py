"""E19 (extension) — the whole-program compiler, measured.

The workload is Jacobi iterated to convergence on an m x m mesh
(m = 128): a seed binding, a five-clause sweep function, and a
``converge`` head.  The seed carries a mid-frequency perturbation of
the harmonic fixpoint ``u(i,j) = i + j``, so Jacobi damps it in a
bounded number of sweeps and "to convergence" stays benchmarkable.

Two ways to run it:

* **program pipeline** — ``repro.compile_program`` compiles each
  binding once, schedules them, and runs the convergence loop as the
  one-block placement of the vectorized block kernel: two float64
  buffers, swapped each sweep;
* **naive per-binding compile+materialize** — what the workload costs
  without the subsystem: every sweep re-enters ``repro.compile`` for
  the step binding, materializes a fresh array, and checks convergence
  over ``to_list()`` snapshots at the Python level.

Asserted shape, at m = 128:

* the pipeline is at least **2x faster** end-to-end (its compile is
  amortized once; the naive loop pays analysis every sweep);
* the pipeline allocates **strictly fewer** arrays (the seed plus two
  float64 buffers, at any sweep count, versus one fresh array per
  sweep), counted by the support layer's ``ALLOC_STATS``;
* both paths and the lazy ``run_program`` oracle agree bit-for-bit.

Set ``REPRO_BENCH_FAST=1`` for a CI-sized run (m = 48; the speedup
assertion is skipped because per-sweep compile costs dominate tiny
meshes in both directions).
"""

import os
import time

import pytest

import repro
from repro.codegen.support import ALLOC_STATS
from repro.program import CONVERGE_CAP, compile_program

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
M = 48 if FAST else 128
TOL = 1e-4
ORACLE_M = 10
MIN_SPEEDUP = 2.0

#: The fixpoint of the sweep is u(i,j) = i + j (it is discretely
#: harmonic); the interior perturbation is the (m/2, m/2)-frequency
#: mode s(i)s(j), which plain Jacobi damps by ~cos(pi/2) = 0 per
#: sweep — convergence arrives in dozens of sweeps, not thousands.
BENCH_JACOBI = """
u0 = array ((1,1),(m,m))
  [ (i,j) := if i == 1 || i == m || j == 1 || j == m
             then 1.0 * (i + j)
             else 1.0 * (i + j)
                  + (if i % 4 == 1 then 1.0
                     else if i % 4 == 3 then 0.0 - 1.0 else 0.0)
                  * (if j % 4 == 1 then 1.0
                     else if j % 4 == 3 then 0.0 - 1.0 else 0.0)
  | i <- [1..m], j <- [1..m] ];
step u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
main = converge step u0 tol
"""

#: The same two bindings as standalone expressions, for the naive path.
SEED_EXPR = BENCH_JACOBI.split(";")[0].split("=", 1)[1]
STEP_EXPR = BENCH_JACOBI.split(";")[1].split("=", 1)[1]


def best_of(fn, repeat=3):
    """Best wall time over ``repeat`` runs (noise-resistant floor)."""
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def run_pipeline(m, tol=TOL):
    """End-to-end: whole-program compile + converge-driven execution."""
    program = compile_program(BENCH_JACOBI, params={"m": m})
    return program({"m": m, "tol": tol})


def run_naive(m, tol=TOL):
    """Per-binding compile+materialize, sweep by sweep.

    Each sweep re-enters the single-definition front door (no cache —
    there is no program fingerprint to key one on), materializes a
    fresh array, and compares ``to_list()`` snapshots in Python.
    """
    u = repro.compile(SEED_EXPR, params={"m": m})({"m": m})
    for _ in range(CONVERGE_CAP):
        step = repro.compile(STEP_EXPR, params={"m": m})
        new = step({"m": m, "u": u})
        worst = max(
            abs(fresh - stale)
            for fresh, stale in zip(new.to_list(), u.to_list())
        )
        u = new
        if worst <= tol:
            return u
    raise AssertionError("naive Jacobi failed to converge")


@pytest.mark.benchmark(group="E19-program")
def test_e19_program_pipeline(benchmark):
    result = benchmark(lambda: run_pipeline(M))
    # converged to the harmonic fixpoint i + j
    mid = M // 2
    assert abs(result.at((mid, mid)) - float(2 * mid)) < 1.0


@pytest.mark.benchmark(group="E19-program")
def test_e19_naive_per_binding(benchmark):
    result = benchmark(lambda: run_naive(M))
    assert result.to_list() == run_pipeline(M).to_list()


def test_e19_speedup_floor():
    """The headline claim: >= 2x end-to-end at m = 128."""
    assert run_pipeline(M).to_list() == run_naive(M).to_list()
    if FAST:
        return
    speedup = (best_of(lambda: run_naive(M))
               / best_of(lambda: run_pipeline(M)))
    assert speedup >= MIN_SPEEDUP, speedup


def test_e19_strictly_fewer_allocations():
    """Dozens of sweeps, three arrays: the float seed runs the one-block
    placement, which copies it once into the first of two float64
    buffers and swaps them every sweep, while the naive loop
    materializes a fresh array every sweep."""
    program = compile_program(BENCH_JACOBI, params={"m": M})
    ALLOC_STATS.reset()
    program({"m": M, "tol": TOL})
    pipeline_allocs = ALLOC_STATS.arrays_allocated

    ALLOC_STATS.reset()
    run_naive(M)
    naive_allocs = ALLOC_STATS.arrays_allocated

    assert pipeline_allocs == 3  # seed + two float64 block buffers
    assert pipeline_allocs < naive_allocs
    assert naive_allocs > 10  # one per sweep: the contrast is real


def test_e19_matches_lazy_oracle():
    """Bit-identity with ``run_program`` — same sweeps, same floats
    (the driver and the interpreter's ``converge`` builtin share the
    metric and the cap)."""
    params = {"m": ORACLE_M, "tol": 1e-3}
    compiled = run_pipeline(ORACLE_M, tol=1e-3)
    oracle = repro.run_program(BENCH_JACOBI, bindings=params)
    assert compiled.bounds == oracle.bounds
    assert compiled.to_list() == oracle.to_list()


def test_e19_decisions_recorded():
    """The report names the schedule and the convergence-loop mode."""
    program = compile_program(BENCH_JACOBI, params={"m": M})
    summary = program.report.summary()
    assert "topo order: u0 -> step -> main" in summary
    assert "iterate:" in summary
    assert any("recycling on" in line for line in program.report.iterate)
