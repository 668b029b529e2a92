"""§10 hyperplanes, executed by ``CodegenOptions(vectorize=True)``.

The vectorizer lowers a scheduled nest one of three ways:

* **wavefront** — a fully dependence-carried rank-2 nest with legal
  hyperplane (1,1) becomes one strided slice assignment per
  anti-diagonal;
* **dep-free** — clauses with no loop-carried dependence become
  whole-nest slice assignments; a body that resists slice
  translation keeps its scalar loop, logged;
* **sequential fallback** — everything else keeps the scalar schedule
  and the reason is recorded in ``report.parallel``.

Results must be *bit-identical* to the scalar schedule (numpy float64
elementwise ops associate exactly like the emitted Python scalars).
"""

import pytest

import repro
from repro import CodegenOptions, FlatArray, kernels
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


VEC = CodegenOptions(vectorize=True)


def compile_pair(src, params, env):
    """Compile with and without vectorize; assert identical output."""
    par = repro.compile(src, params=params, options=VEC)
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
                            options=VEC)
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
            options=CodegenOptions(vectorize=True, bounds_checks=True),
        )
        assert "_vslice(" not in par.source
        assert "_np.zeros" not in par.source
        assert ("vectorize disabled: runtime checks need per-store "
                "bookkeeping that slice assignment cannot maintain, so "
                "the unit stays scalar") in par.report.parallel
        seq = repro.compile(kernels.SOR_MONOLITHIC, params={"m": M})
        assert par(ENV_SOR).to_list() == seq(ENV_SOR).to_list()


class TestDepFree:
    def test_squares_sliced(self):
        par = compile_pair(kernels.SQUARES, {"n": 40}, {"n": 40})
        assert "_vslice(" in par.source and "for i in" not in par.source
        assert par.report.parallel == []

    def test_unchunkable_scalar_loop_logs_hint(self):
        n = 6
        x = FlatArray.from_list(((1, 1), (n, n)),
                                [float(k) for k in range(n * n)])
        y = FlatArray.from_list(((1, 1), (n, n)),
                                [float(k) * 0.5 for k in range(n * n)])
        par = compile_pair(kernels.MATMUL, {"n": n},
                           {"n": n, "x": x, "y": y})
        assert ("loops i, j (clause 1): no rank-2 slices (function call "
                "in vector value); loop i stays scalar"
                in par.report.parallel)
        assert "for i in range" in par.source


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
                            params={"n": 10}, options=VEC)
        assert "parallel: " in par.report.summary()

    def test_refused_wavefront_leaves_no_trace(self, monkeypatch):
        # ``exp`` is not libm-exact in numpy, so the planned wavefront
        # refuses the clause after drawing its names; the module must
        # be the one the vectorizer emits when no wavefront is tried.
        from repro.codegen import vectorize

        src = """
        letrec* a = array ((1,1),(n,n))
          ([ (1,j) := 1.0 | j <- [1..n] ] ++
           [ (i,1) := 1.0 | i <- [2..n] ] ++
           [ (i,j) := exp (0.01 * (a!(i-1,j) + a!(i,j-1)))
             | i <- [2..n], j <- [2..n] ])
        in a
        """
        par = compile_pair(src, {"n": 6}, {"n": 6})
        assert ("clause 3: wavefront planned but fell back to the scalar "
                "schedule (function call in vector value)"
                in par.report.parallel)
        monkeypatch.setattr(vectorize, "_try_wavefront",
                            lambda *args: False)
        untried = repro.compile(src, params={"n": 6}, options=VEC)
        assert par.source == untried.source


class TestOptionConflicts:
    def test_from_flags_all_default_is_none(self, tmp_path, monkeypatch):
        # The CLI with no option flag builds ``CodegenOptions()``, which
        # compiles exactly as ``options=None`` does.
        from repro import __main__ as cli

        real, built = cli._options, []
        monkeypatch.setattr(
            cli, "_options",
            lambda args: built.append(real(args)) or built[-1])
        path = tmp_path / "squares.hs"
        path.write_text(kernels.SQUARES)
        assert cli.main(["compile", str(path), "-p", "n=6"]) == 0
        assert built == [CodegenOptions()]
        default = repro.compile(kernels.SQUARES, params={"n": 6},
                                options=built[0])
        auto = repro.compile(kernels.SQUARES, params={"n": 6})
        assert default.source == auto.source
        assert default.report.summary() == auto.report.summary()

    def test_no_parallel_option(self):
        # ``vectorize`` runs the wavefronts: there is no second knob.
        assert "parallel" not in CodegenOptions.__dataclass_fields__
        with pytest.raises(TypeError, match="parallel"):
            CodegenOptions(parallel=True)

    def test_vectorize_inplace_compiles(self):
        # The vectorize/inplace conflict is diagnosed later, per-loop,
        # inside the in-place emitter (some in-place nests vectorize).
        compiled = repro.compile(kernels.SWAP, old_array="a",
                                 params={"m": 5, "n": 7, "i": 2, "k": 4},
                                 options=VEC)
        assert compiled.report.strategy == "inplace"

    def test_inplace_emitter_rejects_parallel(self):
        # The in-place emitter plans no wavefront, and refuses a
        # vectorized loop: its reads would see the buffer it mutates.
        from repro.core.pipeline import CompileError, _drive

        with pytest.raises(CompileError, match="in-place code generation "
                           "cannot vectorize loop"):
            _drive("inplace", kernels.SOR, params={"m": 8},
                   options=VEC, old_array="u")


class TestVectorizeInteraction:
    def test_fingerprints_differ_between_backends(self):
        base = repro.fingerprint(
            repro.CompileRequest(kernels.SQUARES, params={"n": 30}))
        vec = repro.fingerprint(repro.CompileRequest(
            kernels.SQUARES, params={"n": 30}, options=VEC))
        assert base != vec
