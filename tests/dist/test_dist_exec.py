"""End-to-end distributed execution: bit-identical results, identical
sweep counts, aggregated counters, and every runtime fallback path.

The differential frame: the same program runs through the lazy oracle,
the single-process compiled driver, and the distributed driver at
several worker counts — all three must agree exactly (cells *and*
convergence sweep counts).
"""

import pytest

import repro
from repro.codegen.support import ALLOC_STATS
from repro.dist.pool import fork_available, shutdown_pools
from repro.kernels import PROGRAM_JACOBI, PROGRAM_JACOBI_STEPS
from repro.obs.trace import (
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="distribution needs fork"
)


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    refresh_runtime_tracing()
    reset_runtime_counters()
    yield
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    refresh_runtime_tracing()


def _run(src, params, **compile_kw):
    prog = repro.compile_program(src, params=params, **compile_kw)
    return prog, prog()


def _sweeps(counters, mode):
    return counters.get(f"iterate.sweeps.{mode}", 0)


class TestJacobiConverge:
    PARAMS = {"m": 8, "tol": 1e-3}

    @pytest.mark.parametrize("workers", [2, 3])
    def test_identical_to_single_process(self, traced, workers):
        single, expect = _run(PROGRAM_JACOBI, self.PARAMS)
        base = dict(runtime_counters())
        reset_runtime_counters()
        dist, got = _run(PROGRAM_JACOBI, self.PARAMS,
                         dist=True, workers=workers)
        counters = dict(runtime_counters())
        assert dist.steps[-1].iterate.dist is not None
        assert got.to_list() == expect.to_list()
        assert got.bounds == expect.bounds
        # Convergence decisions — and therefore the sweep count — are
        # bit-identical (max over float64 is exact and associative).
        assert _sweeps(counters, "double") == _sweeps(base, "double")
        assert counters["dist.blocks"] == workers

    def test_identical_to_oracle(self):
        oracle = repro.run_program(
            PROGRAM_JACOBI, bindings=dict(self.PARAMS), deep=False
        )
        _, got = _run(PROGRAM_JACOBI, self.PARAMS, dist=True, workers=2)
        assert got.to_list() == oracle.to_list()

    def test_counter_aggregation_from_workers(self, traced):
        # Satellite: worker-side runtime counters fold back into the
        # parent trace — dist.worker.sweeps is counted only inside
        # worker processes, so seeing workers * sweeps here proves the
        # aggregation round-trip.
        _, _ = _run(PROGRAM_JACOBI, self.PARAMS, dist=True, workers=2)
        counters = dict(runtime_counters())
        sweeps = _sweeps(counters, "double")
        assert sweeps > 0
        assert counters["dist.worker.sweeps"] == 2 * sweeps
        assert counters["dist.halo.cells"] > 0

    def test_alloc_stats_aggregate_and_stay_bounded(self):
        # Workers allocate nothing in steady state (kernels write the
        # shared buffers); the parent's accounting covers the shared
        # segments. Whatever a worker *did* allocate is folded in, so
        # the total is never less than a fresh single-process run's.
        prog = repro.compile_program(PROGRAM_JACOBI, params=self.PARAMS,
                                     dist=True, workers=2)
        ALLOC_STATS.reset()
        prog()
        assert prog.steps[-1].iterate.dist is not None
        dist_allocs = ALLOC_STATS.arrays_allocated
        assert dist_allocs > 0
        # Steady-state bound: a convergence run of ~70 sweeps must not
        # allocate per sweep.
        assert dist_allocs < 10


class TestJacobiSteps:
    @pytest.mark.parametrize("m,workers", [(10, 3), (9, 2), (5, 4)])
    def test_non_divisible_and_narrow_blocks(self, m, workers):
        params = {"m": m, "k": 7}
        _, expect = _run(PROGRAM_JACOBI_STEPS, params)
        dist, got = _run(PROGRAM_JACOBI_STEPS, params,
                         dist=True, workers=workers)
        assert dist.steps[-1].iterate.dist is not None
        assert got.to_list() == expect.to_list()

    def test_more_workers_than_rows(self):
        # Empty blocks still hit every barrier and report diff 0.0.
        params = {"m": 4, "k": 5}
        _, expect = _run(PROGRAM_JACOBI_STEPS, params)
        dist, got = _run(PROGRAM_JACOBI_STEPS, params,
                         dist=True, workers=6)
        plan = dist.steps[-1].iterate.dist
        assert plan is not None
        assert any(hi < lo for lo, hi in plan.row_blocks)
        assert got.to_list() == expect.to_list()

    def test_zero_steps_falls_back_to_seed(self, traced):
        params = {"m": 6, "k": 0}
        _, expect = _run(PROGRAM_JACOBI_STEPS, params)
        dist, got = _run(PROGRAM_JACOBI_STEPS, params,
                         dist=True, workers=2)
        assert dist.steps[-1].iterate.dist is not None
        assert got.to_list() == expect.to_list()
        assert runtime_counters().get("dist.fallback.runtime", 0) >= 1

    def test_steps_override_still_distributes(self):
        params = {"m": 8, "k": 3}
        single = repro.compile_program(PROGRAM_JACOBI_STEPS,
                                       params=params)
        dist = repro.compile_program(PROGRAM_JACOBI_STEPS, params=params,
                                     dist=True, workers=2)
        assert (dist(steps=9).to_list()
                == single(steps=9).to_list())


#: A double-mode rank-2 step over an *external* seed: the ±1 row
#: reads force double buffering (in-place would need snapshots), and
#: the seed's cells are only known at run time.
EXTERNAL_SEED = """
step u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,j) := 0.5 * (u!(i-1,j) + u!(i+1,j))
      | i <- [2..m-1], j <- [1..m] ])
  in a;
main = iterate step u0 k
"""


class TestRuntimeFallbacks:
    def test_int_seed_cells_fall_back(self, traced):
        # A program whose seed contains non-floats at run time must
        # fall back (shared float64 buffers would coerce) and still
        # produce the single-process answer.
        params = {"m": 4, "k": 3}
        single = repro.compile_program(EXTERNAL_SEED, params=params)
        dist = repro.compile_program(EXTERNAL_SEED, params=params,
                                     dist=True, workers=2)
        assert dist.steps[-1].iterate.dist is not None
        seed = repro.FlatArray.from_list(
            ((1, 1), (4, 4)), list(range(16))
        )
        expect = single({"u0": seed})
        reset_runtime_counters()
        got = dist({"u0": seed})
        assert got.to_list() == expect.to_list()
        assert runtime_counters().get("dist.fallback.runtime", 0) >= 1

    def test_float_seed_distributes(self):
        params = {"m": 4, "k": 3}
        single = repro.compile_program(EXTERNAL_SEED, params=params)
        dist = repro.compile_program(EXTERNAL_SEED, params=params,
                                     dist=True, workers=2)
        seed = repro.FlatArray.from_list(
            ((1, 1), (4, 4)), [float(x) for x in range(16)]
        )
        assert (dist({"u0": seed}).to_list()
                == single({"u0": seed}).to_list())

    def test_pool_survives_across_programs(self):
        # The cached pool is reused by consecutive compiled programs.
        params = {"m": 6, "tol": 1e-2}
        a = repro.compile_program(PROGRAM_JACOBI, params=params,
                                  dist=True, workers=2)
        first = a().to_list()
        second = a().to_list()
        assert first == second

    def teardown_class(self):
        shutdown_pools()
