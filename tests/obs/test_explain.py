"""Decision-trace golden tests: the explain layer tells the truth."""

import json

import pytest

import repro
from repro.backends.native import toolchain_status
from repro.codegen.emit import CodegenOptions
from repro.kernels import (
    HISTOGRAM,
    PERMUTATION_SCATTER,
    PROGRAM_JACOBI_STEPS,
    PROGRAM_SOR,
    SOR,
    SOR_MONOLITHIC,
    WAVEFRONT,
    WAVEFRONT_F,
)
from repro.obs.explain import (
    ACCEPTED,
    FALLBACK,
    INFO,
    REJECTED,
    Decision,
    Explanation,
    explain,
    explain_report,
)

#: One index write per iteration onto a fixed cell: collision CERTAIN.
COLLIDING = "letrec* a = array (1,6) [ 3 := i | i <- [1..6] ] in a"


def lines_for(explanation, area):
    return [str(d) for d in explanation.by_area(area)]


class TestExplanationShape:
    def test_decision_rendering(self):
        d = Decision("schedule", "loop i", ACCEPTED, "because")
        assert str(d) == "[schedule] loop i: accepted — because"
        assert d.to_dict()["verdict"] == ACCEPTED

    def test_json_round_trip(self):
        ex = explain(WAVEFRONT_F, params={"n": 6})
        blob = json.dumps(ex.to_json())
        data = json.loads(blob)
        assert data["kind"] == "definition"
        assert all(set(d) == {"area", "subject", "verdict", "reason"}
                   for d in data["decisions"])

    def test_render_groups_by_area(self):
        ex = Explanation(kind="definition")
        ex.add("schedule", "s", ACCEPTED, "r1")
        ex.add("checks", "c", FALLBACK, "r2")
        text = ex.render()
        assert text.index("schedule:") < text.index("checks:")


class TestSorInplaceGolden:
    """SOR with old_array='u': §9 in-place accepted, and it says so."""

    def test_inplace_accepted(self):
        ex = explain(SOR, params={"n": 8, "omega": 1.0}, old_array="u")
        [decision] = ex.by_area("inplace")
        assert decision.verdict == ACCEPTED
        assert "input's buffer" in decision.reason
        [strategy] = ex.by_area("strategy")
        assert strategy.verdict == ACCEPTED
        assert "inplace" in strategy.reason

    def test_schedule_directions_surface(self):
        ex = explain(SOR, params={"n": 8, "omega": 1.0}, old_array="u")
        [schedule] = ex.by_area("schedule")
        assert schedule.verdict == ACCEPTED
        assert "i forward" in schedule.reason

    def test_matches_report_explanation(self):
        compiled = repro.compile(SOR, strategy="inplace", old_array="u",
                                 params={"n": 8, "omega": 1.0})
        from_report = explain_report(compiled.report)
        direct = explain(SOR, params={"n": 8, "omega": 1.0},
                         old_array="u")
        assert ([d.to_dict() for d in from_report.decisions]
                == [d.to_dict() for d in direct.decisions])


class TestCollisionRejectedGolden:
    """A certain write collision is a *rejected* decision, not a crash."""

    def test_rejection_with_reason(self):
        ex = explain(COLLIDING)
        [compile_decision] = ex.by_area("compile")
        assert compile_decision.verdict == REJECTED
        assert "collision" in compile_decision.reason
        checks = {d.subject: d for d in ex.by_area("checks")}
        assert checks["collisions"].verdict == REJECTED
        assert "certain" in checks["collisions"].reason

    def test_analysis_decisions_still_present(self):
        """The rest of the story (schedule, vectorize) still renders."""
        ex = explain(COLLIDING)
        assert ex.by_area("schedule")
        assert ex.by_area("vectorize")


class TestMonolithicAndWavefront:
    def test_sor_monolithic_covers_required_areas(self):
        ex = explain(SOR_MONOLITHIC, params={"m": 8, "omega": 1.0})
        for area in ("strategy", "schedule", "checks", "parallel"):
            assert ex.by_area(area), area
        assert any(d.verdict == REJECTED for d in ex.by_area("parallel"))

    def test_wavefront_parallel_accepted(self):
        ex = explain(WAVEFRONT_F, params={"n": 8},
                     options=repro.CodegenOptions(vectorize=True))
        accepted = [d for d in ex.by_area("parallel")
                    if d.verdict == ACCEPTED]
        assert any("wavefront h=" in d.reason for d in accepted)
        assert any("speedup bound" in d.reason for d in accepted)


class TestProgramGolden:
    def test_jacobi_program_decisions(self):
        ex = explain(PROGRAM_JACOBI_STEPS, params={"m": 6, "k": 2})
        assert ex.kind == "program"
        [topo] = ex.by_area("compile")
        assert "topo order" in topo.reason
        [inplace] = ex.by_area("inplace")
        assert inplace.verdict == REJECTED
        assert "in-place sweeps rejected" in inplace.reason
        assert any(d.verdict in (ACCEPTED, INFO)
                   for d in ex.by_area("iterate"))

    def test_program_fuse_edge_accepted(self):
        # A distance-zero sole-consumer chain fuses outright: the
        # producer is never allocated, so there is no reuse edge —
        # the decision lands in the 'fuse' area instead.
        src = """
        a = array (1,40) [ i := i * i | i <- [1..40] ];
        b = array (1,40) [ i := a!i + 1 | i <- [1..40] ]
        """
        ex = explain(src)
        fused = [d for d in ex.by_area("fuse")
                 if d.verdict == ACCEPTED]
        assert any("b <- a" in d.subject for d in fused)
        assert not [d for d in ex.by_area("reuse")
                    if d.verdict == ACCEPTED]

    def test_program_reuse_edges_accepted(self):
        # A two-clause producer cannot fuse (recorded rejection), so
        # §9 buffer reuse still fires and is explained as before.
        src = """
        a = array (1,40) ([ i := 1.0 * (i * i) | i <- [1..20] ]
                       ++ [ i := 1.0 * i | i <- [21..40] ]);
        b = array (1,40) [ i := a!i + 1 | i <- [1..40] ]
        """
        ex = explain(src)
        reuse = [d for d in ex.by_area("reuse")
                 if d.verdict == ACCEPTED]
        assert any("b <- a" in d.subject for d in reuse)
        assert any("2 clauses" in d.reason
                   for d in ex.by_area("fuse"))

    def test_per_binding_decisions_prefixed(self):
        ex = explain(PROGRAM_JACOBI_STEPS, params={"m": 6, "k": 2})
        subjects = [d.subject for d in ex.decisions]
        assert any(s.startswith("u0: ") for s in subjects)

    def test_program_backend_fallback_in_backend_area(self):
        # An index array stays on python whatever the backend: the
        # program-level fallback is a backend decision, not a reuse one.
        src = """
        k = array (1,n) [ i := (i * 3) - 6 | i <- [1..n] ];
        main = accumArray (\\a b -> a + b) 0 (1,m)
                 [ (k!i) := 1 | i <- [1..n] ]
        """
        ex = explain(src, params={"n": 4, "m": 6},
                     options=CodegenOptions(backend="c"))
        assert "[backend] program: rejected — backend 'k': stays on " \
            "python — its cells subscript a later binding" in \
            "\n".join(lines_for(ex, "backend"))
        assert not any("backend 'k'" in line
                       for line in lines_for(ex, "reuse"))

    def test_program_vectorize_fallback_in_vectorize_area(self):
        # An index array stays scalar under vectorize: float64 cells
        # cannot index the consumer.
        src = """
        k = array (1,n) [ i := i | i <- [1..n] ];
        main = accumArray (\\a b -> a + b) 0 (1,m)
                 [ (k!i) := 1 | i <- [1..n] ]
        """
        ex = explain(src, params={"n": 4, "m": 6},
                     options=CodegenOptions(vectorize=True))
        assert "[vectorize] program: rejected — vectorize 'k': stays " \
            "scalar — its cells subscript a later binding" in \
            "\n".join(lines_for(ex, "vectorize"))
        assert not any("'k'" in line for line in lines_for(ex, "reuse"))


class TestIterateDriverGolden:
    """The in-place iterate line says where the sweeps run, and why."""

    PREFIX = ("[iterate] driver: accepted — main: true in-place sweeps "
              "— 'sweep' runs in the seed buffer (zero steady-state "
              "allocations); ")
    needs_cc = pytest.mark.skipif(
        toolchain_status() is not None,
        reason=f"native toolchain unavailable: {toolchain_status()}",
    )

    def _line(self, options=None):
        ex = explain(PROGRAM_SOR, params={"m": 8, "k": 5, "omega": 1.25},
                     options=options)
        [line] = lines_for(ex, "iterate")
        return line

    def test_python_step_runs_in_the_python_driver(self):
        assert self._line() == self.PREFIX + (
            "sweeps run in the Python driver (the step lowered to "
            "python: the python backend was requested)")

    @needs_cc
    def test_c_step_runs_in_one_native_call(self):
        assert self._line(CodegenOptions(backend="c")) == self.PREFIX + (
            "all sweeps run in one native call (the step lowered to C)")

    @needs_cc
    def test_c_fallback_gives_the_backend_reason(self):
        options = CodegenOptions(backend="c", bounds_checks=True)
        assert self._line(options) == self.PREFIX + (
            "sweeps run in the Python driver (the step lowered to "
            "python: backend c fell back on inplace lowering: "
            "bounds_checks on — runtime bounds checks are not "
            "lowered; python emitter used)")


class TestDoubleBufferDriverGolden:
    """The double-buffer iterate line names the one-block placement,
    or why it was refused, and keeps the list path's recycling."""

    PREFIX = ("[iterate] driver: info — main: double-buffer sweeps "
              "(in-place rejected: split plan needs snapshot/hoisted "
              "temporaries, re-allocated every sweep); ")
    BLOCK = ("one-block placement: float seeds run the vectorized block "
             "kernel on two float64 buffers")

    def _line(self, options=None):
        ex = explain(PROGRAM_JACOBI_STEPS, params={"m": 8, "k": 5},
                     options=options)
        [line] = lines_for(ex, "iterate")
        return line

    def test_python_step_runs_as_one_block(self):
        assert self._line() == self.PREFIX + self.BLOCK + (
            "; other seeds run the list path, buffer recycling on")

    @pytest.mark.parametrize("options, superseded, recycling", [
        (CodegenOptions(vectorize=True), " (superseding vectorize)",
         "off"),
        # tile= blocks no python loop, so the block supersedes nothing.
        (CodegenOptions(tile=4), "", "on"),
    ], ids=["vectorize", "tile"])
    def test_superseded_options_are_named(self, options, superseded,
                                          recycling):
        assert self._line(options) == self.PREFIX + self.BLOCK + (
            f"{superseded}; other seeds run the list path, buffer "
            f"recycling {recycling}")

    @TestIterateDriverGolden.needs_cc
    def test_c_step_refuses_the_block(self):
        assert self._line(CodegenOptions(backend="c")) == self.PREFIX + (
            "one-block placement refused (the step lowered to C, and its "
            "per-sweep native call is faster); list path, buffer "
            "recycling on")


class TestCompileExplainKwarg:
    def test_compile_attaches_explanation(self):
        compiled = repro.compile(WAVEFRONT_F, params={"n": 6},
                                 explain=True)
        assert isinstance(compiled.explanation, Explanation)
        assert compiled.explanation.by_area("schedule")

    def test_compile_without_kwarg_has_no_explanation(self):
        compiled = repro.compile(WAVEFRONT_F, params={"n": 6})
        assert not hasattr(compiled, "explanation")


#: Backward-running recurrence: tiles would run against the carried
#: dependence, so the tiling pass must reject with this exact reason.
BACKWARD = ("letrec* a = array (1,8) [ i := "
            "if i == 8 then 1.0 else a!(i+1) + 1.0 "
            "| i <- [1..8] ] in a")


class TestTileArea:
    """Tiles are C loops; the python emitter blocks none."""

    def _options(self, tile, backend="c"):
        return CodegenOptions(tile=tile, backend=backend)

    @TestIterateDriverGolden.needs_cc
    def test_accepted_stencil_names_sizes_and_kind(self):
        src = ("array (1,16) [ i := if i == 1 || i == 16 then b!i "
               "else (b!(i-1) + b!(i+1)) / 2.0 | i <- [1..16] ]")
        ex = explain(src, options=self._options(4))
        accepted = [d for d in ex.by_area("tile")
                    if d.verdict == ACCEPTED]
        assert len(accepted) == 1
        assert "rect tiles [i:4]" in accepted[0].reason
        assert "direction vectors" in accepted[0].reason

    def test_golden_rejection_line(self):
        ex = explain(BACKWARD, options=self._options(4))
        lines = [str(d) for d in ex.by_area("tile")
                 if d.verdict == FALLBACK]
        assert lines == [
            "[tile] cache blocking: fallback — untiled loops emitted: "
            "loop i runs backward; only forward nests are tiled"
        ]

    def test_untiled_compile_has_no_tile_area(self):
        ex = explain(BACKWARD)
        assert not ex.by_area("tile")

    def test_python_unit_gets_one_reasoned_fallback(self):
        ex = explain(BACKWARD, options=self._options(4, "python"))
        assert [str(d) for d in ex.by_area("tile")] == [
            "[tile] cache blocking: fallback — untiled loops emitted: "
            "only the C backend blocks loops: python loops are "
            "interpreter-bound, not memory-bound, so they run untiled "
            "(an out-of-core program takes tile= as its rows per tile)"
        ]

    def test_program_rejection_reaches_tile_area(self):
        from repro.kernels import PROGRAM_SOR

        ex = explain(PROGRAM_SOR,
                     params={"m": 8, "k": 5, "omega": 1.25},
                     options=self._options(4))
        falls = [d for d in ex.by_area("tile")
                 if d.verdict == FALLBACK]
        assert any("main" in d.subject for d in falls)
        assert any("perfect loop chain" in d.reason for d in falls)


def _claims_compiled(reason):
    """Whether a ``checks`` line says a runtime check was compiled."""
    if "no runtime collision checks" in reason \
            or "no definedness sweep" in reason:
        return False
    return "checks compiled" in reason or "sweep compiled" in reason


class TestChecksAreaMatchesCompiledChecks:
    """The ``checks`` area states what ``report.checks`` compiled, and
    says why an inconclusive analysis compiled nothing."""

    ALL_CHECKS = repro.CodegenOptions(
        bounds_checks=True, collision_checks=True, empties_check=True,
    )
    CASES = {
        "histogram": (HISTOGRAM, {"n": 8, "m": 4}, {}),
        "sor-inplace": (SOR, {"n": 8, "omega": 1.0},
                        {"old_array": "u"}),
        "wavefront-all-checks": (WAVEFRONT, {"n": 6},
                                 {"options": ALL_CHECKS}),
        "scatter-guarded": (PERMUTATION_SCATTER, {"n": 6}, {}),
        "partial-auto": (
            "letrec a = array (1,n) [ i := 0 | i <- [1..n-1] ] in a",
            {}, {},
        ),
        "partial-vectorize": (
            "letrec a = array (1,n) [ i := 0 | i <- [1..n-1] ] in a",
            {}, {"options": repro.CodegenOptions(vectorize=True)},
        ),
    }

    def _checks(self, case):
        src, params, kwargs = self.CASES[case]
        report = repro.compile(src, params=params, **kwargs).report
        decisions = explain_report(report).by_area("checks")
        return report.checks, {d.subject: d.reason for d in decisions}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_claims_follow_report_checks(self, case):
        checks, reasons = self._checks(case)
        assert _claims_compiled(reasons["collisions"]) \
            == checks.collision_checks
        assert _claims_compiled(reasons["empties"]) == checks.empties_check

    def test_histogram_says_accumulation(self):
        _, reasons = self._checks("histogram")
        assert reasons["collisions"].endswith(
            "colliding stores combine; accumulation has no collisions "
            "to reject")
        assert reasons["empties"].endswith(
            "every cell starts at the initial value")

    def test_inplace_says_old_values_remain(self):
        _, reasons = self._checks("sor-inplace")
        assert reasons["empties"].endswith(
            "unwritten cells keep the input's values")

    def test_forced_checks_on_proven_definition(self):
        _, reasons = self._checks("wavefront-all-checks")
        assert reasons["collisions"] == (
            "proven collision-free; runtime collision checks compiled "
            "as requested")
        assert reasons["empties"] == (
            "proven total; definedness sweep compiled as requested")

    def test_guarded_kernel_names_its_fallback(self):
        _, reasons = self._checks("scatter-guarded")
        assert "guarded kernel's checked fallback" in reasons["collisions"]

    def test_true_lines_unchanged(self):
        _, reasons = self._checks("partial-auto")
        assert reasons["collisions"] == (
            "proven collision-free; runtime checks elided")
        assert reasons["empties"] == (
            "totality not proven; runtime definedness sweep compiled")

    def test_an_options_object_gets_the_sweep_too(self):
        checks, reasons = self._checks("partial-vectorize")
        assert checks.empties_check
        assert reasons == self._checks("partial-auto")[1]
