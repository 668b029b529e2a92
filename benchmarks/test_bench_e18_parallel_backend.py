"""E18 (extension) — the §10 hyperplane wavefronts, *executed*.

E16 verified the analytic profiles (critical path O(n) for O(n^2)
work); this experiment runs them.  ``CodegenOptions(vectorize=True)``
turns the fully dependence-carried SOR / float-wavefront interiors
into one strided numpy slice assignment per (1,1) anti-diagonal, and
the border clauses into whole-dimension slices.

Asserted shape, at n = 256:

* the wavefront lowering is at least **3x faster** than the generated
  scalar schedule on the same kernel;
* its output is **bit-identical** to the scalar schedule (float64
  elementwise ops associate exactly like the emitted Python scalars)
  and to the lazy reference interpreter.

Set ``REPRO_BENCH_FAST=1`` for a CI-sized run (n = 64; the speedup
assertion is skipped because slice overheads dominate small meshes).
"""

import os
import time

import pytest

import repro
from repro import CodegenOptions, FlatArray
from repro.kernels import SOR_MONOLITHIC, WAVEFRONT_F, mesh_cells

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
N = 64 if FAST else 256
ORACLE_N = 24 if FAST else 48
OMEGA = 1.5
MIN_SPEEDUP = 3.0


def best_of(fn, repeat=5):
    """Best wall time over ``repeat`` runs (noise-resistant floor)."""
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def sor_env(n):
    return {
        "m": n,
        "u": FlatArray.from_list(((1, 1), (n, n)), mesh_cells(n)),
        "omega": OMEGA,
    }


VEC = CodegenOptions(vectorize=True)


def compile_pair(src, params):
    par = repro.compile(src, params=params, options=VEC)
    seq = repro.compile(src, params=params)
    return par, seq


@pytest.mark.benchmark(group="E18-wavefront")
def test_e18_sor_wavefront_backend(benchmark):
    par, seq = compile_pair(SOR_MONOLITHIC, {"m": N})
    assert any("wavefront h=(1,1)" in line
               for line in par.report.parallel)
    env = sor_env(N)
    result = benchmark(lambda: par(env))
    assert result.to_list() == seq(env).to_list()  # bit-identical


@pytest.mark.benchmark(group="E18-wavefront")
def test_e18_sor_scalar_schedule(benchmark):
    seq = repro.compile(SOR_MONOLITHIC, params={"m": N})
    env = sor_env(N)
    result = benchmark(lambda: seq(env))
    assert len(result.to_list()) == N * N


def test_e18_speedup_floor():
    """The headline claim: >= 3x over the scalar schedule at n=256."""
    for src, params, env in [
        (SOR_MONOLITHIC, {"m": N}, sor_env(N)),
        (WAVEFRONT_F, {"n": N}, {"n": N}),
    ]:
        par, seq = compile_pair(src, params)
        assert par(env).to_list() == seq(env).to_list()
        if FAST:
            continue
        speedup = best_of(lambda: seq(env)) / best_of(lambda: par(env))
        assert speedup >= MIN_SPEEDUP, (src[:40], speedup)


def test_e18_matches_lazy_oracle():
    """Bit-identity against the reference interpreter (row-major
    forcing keeps the thunk recursion shallow)."""
    par = repro.compile(WAVEFRONT_F, params={"n": ORACLE_N},
                        options=VEC)
    lazy = repro.evaluate(WAVEFRONT_F, bindings={"n": ORACLE_N},
                          deep=False)
    vals = [lazy.at((i, j)) for i in range(1, ORACLE_N + 1)
            for j in range(1, ORACLE_N + 1)]
    assert par({"n": ORACLE_N}).to_list() == vals

    par_sor = repro.compile(SOR_MONOLITHIC, params={"m": ORACLE_N},
                            options=VEC)
    env = sor_env(ORACLE_N)
    lazy = repro.evaluate(SOR_MONOLITHIC, bindings=dict(env), deep=False)
    vals = [lazy.at((i, j)) for i in range(1, ORACLE_N + 1)
            for j in range(1, ORACLE_N + 1)]
    assert par_sor(env).to_list() == vals


def test_e18_decisions_recorded():
    """Every clause gets a decision; fallbacks carry their reason."""
    par, _ = compile_pair(SOR_MONOLITHIC, {"m": N})
    decisions = "\n".join(par.report.parallel)
    assert "wavefront h=(1,1)" in decisions
    assert "steps" in decisions          # critical path surfaced
    # The four border clauses are slice statements: the only loop left
    # is the interior's sweep over anti-diagonals.
    loops = [line.strip() for line in par.source.splitlines()
             if line.strip().startswith("for ")]
    assert len(loops) == 1 and loops[0].startswith("for _wt")

    from repro.kernels import FORWARD_RECURRENCE

    fallback = repro.compile(FORWARD_RECURRENCE, params={"n": 100},
                             options=VEC)
    assert any("sequential" in line and "critical path" in line
               for line in fallback.report.parallel)
