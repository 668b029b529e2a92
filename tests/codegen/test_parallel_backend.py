"""The parallel execution backend (§10 hyperplanes, executed).

Three codegen paths hang off ``CodegenOptions(parallel=True)``:

* **wavefront** — a fully dependence-carried rank-2 nest with legal
  hyperplane (1,1) becomes one strided slice assignment per
  anti-diagonal;
* **dep-free** — clauses with no loop-carried dependence become
  whole-dimension slice assignments; a body that resists slice
  translation keeps its scalar loop, logged;
* **sequential fallback** — everything else keeps the scalar schedule
  and the reason is recorded in ``report.parallel``.

Results must be *bit-identical* to the scalar schedule (numpy float64
elementwise ops associate exactly like the emitted Python scalars).
"""

import pytest

import repro
from repro import CodegenOptions, FlatArray, kernels
from repro.codegen.emit import CodegenError
from repro.core.parallel import (
    DEP_FREE,
    SEQUENTIAL,
    WAVEFRONT,
    plan_parallelism,
)

M = 20
ENV_SOR = {
    "m": M,
    "u": FlatArray.from_list(((1, 1), (M, M)), kernels.mesh_cells(M)),
    "omega": 1.5,
}


def compile_pair(src, params, env):
    """Compile with and without the backend; assert identical output."""
    par = repro.compile(src, params=params,
                        options=CodegenOptions(parallel=True))
    seq = repro.compile(src, params=params)
    assert par(env).to_list() == seq(env).to_list()
    return par


class TestPlanning:
    def _plan(self, src, params):
        report = repro.analyze(src, params)
        return plan_parallelism(report.comp, report.edges,
                                report.parallelism)

    def test_sor_interior_is_wavefront(self):
        plan = self._plan(kernels.SOR_MONOLITHIC, {"m": M})
        kinds = {e.clause.index: e.kind for e in plan.clauses}
        assert kinds[4] == WAVEFRONT
        assert all(kinds[k] == DEP_FREE for k in range(4))
        assert plan.any_parallel

    def test_recurrence_is_sequential_with_reason(self):
        plan = self._plan(kernels.FORWARD_RECURRENCE, {"n": 30})
        entry = [e for e in plan.clauses if e.clause.index == 1][0]
        assert entry.kind == SEQUENTIAL
        assert "critical path equals work" in entry.reason

    def test_unsupported_hyperplane_names_itself(self):
        plan = self._plan(kernels.PASCAL, {"n": 10})
        entry = [e for e in plan.clauses if e.clause.index == 1][0]
        assert entry.kind == SEQUENTIAL
        assert "unsupported by codegen" in entry.reason

    def test_non_constant_distances_sequential(self):
        src = """
        letrec a = array (1,40)
          [* [ i := (if i > 1 then a!(div i 2) else 0) + 1 ]
           | i <- [1..40] *]
        in a
        """
        plan = self._plan(src, {})
        assert plan.clauses[0].kind == SEQUENTIAL
        assert not plan.any_parallel


class TestWavefront:
    def test_sor_emits_antidiagonal_sweep(self):
        par = compile_pair(kernels.SOR_MONOLITHIC, {"m": M}, ENV_SOR)
        decisions = "\n".join(par.report.parallel)
        assert "wavefront h=(1,1) over loops (i, j)" in decisions
        assert "anti-diagonal" in decisions
        # One slice assignment per diagonal, not a scalar j-loop.
        assert "_vslice" in par.source

    def test_wavefront_f_matches_reference(self):
        n = 24
        par = compile_pair(kernels.WAVEFRONT_F, {"n": n}, {"n": n})
        ref = kernels.ref_wavefront_f(n)
        flat = [ref[i][j] for i in range(1, n + 1)
                for j in range(1, n + 1)]
        assert par({"n": n}).to_list() == flat

    def test_wavefront_matches_lazy_oracle(self):
        n = 16
        par = repro.compile(kernels.WAVEFRONT_F, params={"n": n},
                            options=CodegenOptions(parallel=True))
        lazy = repro.evaluate(kernels.WAVEFRONT_F, bindings={"n": n},
                              deep=False)
        vals = [lazy.at((i, j)) for i in range(1, n + 1)
                for j in range(1, n + 1)]
        assert par({"n": n}).to_list() == vals

    def test_degenerate_sizes(self):
        for m in (3, 4):
            env = {
                "m": m,
                "u": FlatArray.from_list(((1, 1), (m, m)),
                                         kernels.mesh_cells(m)),
                "omega": 1.5,
            }
            compile_pair(kernels.SOR_MONOLITHIC, {"m": m}, env)

    def test_checks_disable_backend(self):
        par = repro.compile(
            kernels.SOR_MONOLITHIC, params={"m": M},
            options=CodegenOptions(parallel=True, bounds_checks=True),
        )
        assert "_vslice(" not in par.source
        assert any("disabled" in line for line in par.report.parallel)
        seq = repro.compile(kernels.SOR_MONOLITHIC, params={"m": M})
        assert par(ENV_SOR).to_list() == seq(ENV_SOR).to_list()


class TestDepFree:
    def test_squares_sliced(self):
        par = compile_pair(kernels.SQUARES, {"n": 40}, {"n": 40})
        assert any("dep-free" in line for line in par.report.parallel)

    def test_unchunkable_scalar_loop_logs_hint(self):
        n = 6
        x = FlatArray.from_list(((1, 1), (n, n)),
                                [float(k) for k in range(n * n)])
        y = FlatArray.from_list(((1, 1), (n, n)),
                                [float(k) * 0.5 for k in range(n * n)])
        par = compile_pair(kernels.MATMUL, {"n": n},
                           {"n": n, "x": x, "y": y})
        assert ("loop i (clause 1): dep-free but not slice-translatable; "
                "scalar loop kept" in par.report.parallel)
        assert not any("thread" in line for line in par.report.parallel)


class TestSequentialFallback:
    def test_recurrence_keeps_scalar_schedule(self):
        n = 30
        b = FlatArray.from_list((1, n), [float(k) * 0.01
                                         for k in range(n)])
        c = FlatArray.from_list((1, n), [0.5] * n)
        par = compile_pair(kernels.FORWARD_RECURRENCE, {"n": n},
                           {"n": n, "b": b, "c": c})
        decisions = "\n".join(par.report.parallel)
        assert "sequential" in decisions
        assert "critical path equals work" in decisions

    def test_summary_carries_decisions(self):
        par = repro.compile(kernels.FORWARD_RECURRENCE,
                            params={"n": 10},
                            options=CodegenOptions(parallel=True))
        assert "parallel: " in par.report.summary()


class TestOptionConflicts:
    def test_from_flags_all_default_is_none(self):
        assert CodegenOptions.from_flags() is None

    def test_from_flags_parallel(self):
        options = CodegenOptions.from_flags(parallel=True)
        assert options.parallel

    def test_from_flags_rejects_parallel_inplace(self):
        with pytest.raises(CodegenError, match="--inplace"):
            CodegenOptions.from_flags(parallel=True, inplace=True)

    def test_from_flags_accepts_vectorize_inplace(self):
        # The vectorize/inplace conflict is diagnosed later, per-loop,
        # inside the in-place emitter (some in-place nests vectorize).
        options = CodegenOptions.from_flags(vectorize=True, inplace=True)
        assert options.vectorize

    def test_inplace_emitter_rejects_parallel(self):
        # The facade rejects this combination up front (see
        # tests/test_facade.py); the emitter's own guard is the
        # defence for direct callers.
        from repro.core.pipeline import CompileError, _drive

        with pytest.raises(CompileError, match="in-place"):
            _drive("inplace", kernels.JACOBI, params={"m": 8},
                   options=CodegenOptions(parallel=True), old_array="u")


class TestVectorizeInteraction:
    def test_parallel_supersedes_vectorize_on_dep_free(self):
        par = repro.compile(
            kernels.SQUARES, params={"n": 30},
            options=CodegenOptions(parallel=True, vectorize=True),
        )
        vec = repro.compile(kernels.SQUARES, params={"n": 30},
                            options=CodegenOptions(vectorize=True))
        assert par({"n": 30}).to_list() == vec({"n": 30}).to_list()

    def test_fingerprints_differ_between_backends(self):
        base = repro.fingerprint(kernels.SQUARES, params={"n": 30},
                                 options=CodegenOptions(vectorize=True))
        par = repro.fingerprint(
            kernels.SQUARES, params={"n": 30},
            options=CodegenOptions(parallel=True),
        )
        assert base != par
