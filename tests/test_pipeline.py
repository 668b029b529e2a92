"""The compiler driver: reports, strategies, and the §10 extensions."""

import pytest

import repro
from repro import CodegenOptions, CompileError, analyze
from repro import kernels
from repro.report import render_dot, render_edges, render_schedule


class TestAnalyze:
    def test_report_fields(self):
        report = analyze(kernels.WAVEFRONT, {"n": 8})
        assert report.comp.name == "a"
        assert report.collision.status == "none"
        assert report.empties.status == "none"
        assert report.schedule.ok
        assert report.edges

    def test_summary_is_readable(self):
        compiled = repro.compile(kernels.WAVEFRONT, strategy="array",
                                 params={"n": 8})
        text = compiled.report.summary()
        assert "strategy: thunkless" in text
        assert "collisions: none" in text
        assert "loop" in text

    def test_accepts_parsed_ast(self):
        from repro.lang.parser import parse_expr

        report = analyze(parse_expr(kernels.SQUARES), {"n": 5})
        assert report.schedule.ok


class TestVectorizationReport:
    """Paper §10: innermost loops without carried dependences."""

    def test_squares_vectorizable(self):
        report = analyze(kernels.SQUARES, {"n": 10})
        assert "i" in report.vectorizable

    def test_forward_recurrence_not_vectorizable(self):
        report = analyze(kernels.FORWARD_RECURRENCE, {"n": 10})
        # The recurrence loop carries a (<) dependence.
        interior_loop = report.comp.clauses[1].loops[0]
        assert interior_loop.var not in report.vectorizable or (
            # the border clause has no loop named i
            report.vectorizable.count("i") == 0
        )

    def test_wavefront_inner_not_vectorizable(self):
        report = analyze(kernels.WAVEFRONT, {"n": 8})
        # Border loops are vectorizable; the interior j loop is not.
        # (Names repeat; count occurrences.)
        assert report.vectorizable.count("j") == 1
        assert report.vectorizable.count("i") == 1


class TestCompileArray:
    def test_default_strategy_thunkless_when_safe(self):
        compiled = repro.compile(kernels.SQUARES, strategy="array",
                                 params={"n": 5})
        assert compiled.report.strategy == "thunkless"

    def test_notes_explain_fallback(self):
        compiled = repro.compile(kernels.CYCLIC_FALLBACK, strategy="array")
        assert compiled.report.strategy == "thunked"
        assert any("thunk fallback" in n for n in compiled.report.notes)

    def test_source_is_inspectable(self):
        compiled = repro.compile(kernels.SQUARES, strategy="array",
                                 params={"n": 5})
        assert "def _build(_env):" in compiled.source

    def test_certain_collision_rejected_with_witness(self):
        with pytest.raises(CompileError) as exc_info:
            repro.compile(
                "letrec a = array (1,9) [* [ 3 := i ] | i <- [1..2] *] in a",
                strategy="array",
            )
        assert "collision" in str(exc_info.value)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(CompileError):
            repro.compile(kernels.SQUARES, strategy="array", params={"n": 5},
                          force_strategy="mystery")

    def test_uncompilable_value_reported(self):
        # A lambda inside the element value has no codegen.
        src = "letrec a = array (1,2) [ i := (\\x -> x) i | i <- [1..2] ] in a"
        with pytest.raises(CompileError):
            repro.compile(src, strategy="array")


class TestCompileInplace:
    def test_report_carries_plan(self):
        compiled = repro.compile(kernels.JACOBI, strategy="inplace",
                                 old_array="u", params={"m": 8})
        assert compiled.report.inplace_plan is not None
        assert compiled.report.strategy == "inplace"
        assert any("node-splitting" in n for n in compiled.report.notes)

    def test_whole_copy_noted(self):
        compiled = repro.compile(kernels.REVERSE, strategy="inplace",
                                 old_array="a", params={"n": 6})
        assert compiled.report.strategy == "inplace-copy"
        assert any("whole-copy" in n for n in compiled.report.notes)

    def test_unschedulable_flow_rejected(self):
        # A flow cycle that node-splitting cannot break.
        src = """
        letrec a = array (1,20)
          [* [ 2*i := a!(2*i+1) + u!i,
               2*i+1 := a!(2*i) + u!i ] | i <- [1..10] *]
        in a
        """
        with pytest.raises(CompileError):
            repro.compile(src, strategy="inplace", old_array="u", params={})


class TestRendering:
    def test_render_edges_paper_style(self):
        report = analyze(kernels.STRIDE3_SCHEMATIC)
        text = render_edges(report.edges)
        assert "1 -> 2 (<)" in text
        assert "1 -> 3 (=)" in text

    def test_render_dot(self):
        report = analyze(kernels.STRIDE3_SCHEMATIC)
        dot = render_dot(report.edges)
        assert dot.startswith("digraph")
        assert "c1 -> c2" in dot

    def test_render_schedule_fallback_banner(self):
        report = analyze(kernels.CYCLIC_FALLBACK)
        text = render_schedule(report.schedule)
        assert "UNSCHEDULABLE" in text


class TestOptionsPlumbing:
    def test_explicit_options_respected(self):
        options = CodegenOptions(bounds_checks=True)
        compiled = repro.compile(kernels.SQUARES, strategy="array",
                                 params={"n": 4}, options=options)
        assert "_CS.bounds_checks" in compiled.source
        from repro.codegen.support import CHECK_STATS

        CHECK_STATS.reset()
        compiled({"n": 4})
        assert CHECK_STATS.bounds_checks == 4

    def test_symbolic_compile_concrete_run(self):
        # no params at all
        compiled = repro.compile(kernels.WAVEFRONT, strategy="array")
        out = compiled({"n": 5})
        want = kernels.ref_wavefront(5)
        assert out.to_list() == [
            want[i][j] for i in range(1, 6) for j in range(1, 6)
        ]
