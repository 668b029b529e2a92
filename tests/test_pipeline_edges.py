"""Pipeline edge cases: symbolic analysis, error paths, option plumbing."""

import dataclasses

import pytest

import repro
from repro import CodegenOptions, analyze
from repro.comprehension.build import BuildError


class TestSymbolicAnalysis:
    def test_symbolic_sizes_stay_conservative(self):
        from repro.kernels import WAVEFRONT

        report = analyze(WAVEFRONT)  # no params at all
        # Directions still provable (coefficients suffice)...
        assert report.schedule.ok
        # ...but counting-based proofs degrade to possible.
        assert report.empties.status == "possible"

    def test_verify_exact_false_is_superset(self):
        from repro.core.dependence import flow_edges
        from repro.kernels import STRIDE3_SCHEMATIC

        comp = analyze(STRIDE3_SCHEMATIC).comp
        loose_set = {(e.src.index, e.dst.index, e.direction)
                     for e in flow_edges(comp, verify_exact=False)}
        tight_set = {(e.src.index, e.dst.index, e.direction)
                     for e in flow_edges(comp, verify_exact=True)}
        assert tight_set <= loose_set

    def test_partial_params(self):
        # Only one of two sizes given: still compiles, runs with both.
        src = """
        letrec a = array ((1,1),(m,n))
          [ (i,j) := i * 100 + j | i <- [1..m], j <- [1..n] ]
        in a
        """
        compiled = repro.compile(src, strategy="array", params={"m": 3})
        out = compiled({"m": 3, "n": 2})
        assert out.to_list() == [101, 102, 201, 202, 301, 302]


class TestErrorPaths:
    def test_not_an_array_definition(self):
        with pytest.raises(BuildError):
            analyze("1 + 2")

    def test_generator_over_list_rejected(self):
        with pytest.raises(BuildError):
            analyze("array (1,3) [ i := 0 | i <- [1, 3, 2] ]")

    def test_missing_env_key_at_runtime(self):
        compiled = repro.compile(
            "letrec a = array (1,3) [ i := q * i | i <- [1..3] ] in a",
            strategy="array",
        )
        with pytest.raises(KeyError):
            compiled({})

    def test_inplace_needs_old_array_in_env(self):
        from repro.kernels import SCALE_ROW

        compiled = repro.compile(SCALE_ROW, strategy="inplace", old_array="a",
                                 params={"m": 2, "n": 2, "i": 1, "s": 2})
        with pytest.raises(KeyError):
            compiled({"s": 2})

    def test_letrec_inside_pairs_rejected(self):
        with pytest.raises(BuildError):
            analyze(
                "array (1,3) (letrec v = [ 1 := 0 ] in v)"
            )


class TestReportPlumbing:
    def test_compiled_repr(self):
        from repro.kernels import SQUARES

        compiled = repro.compile(SQUARES, strategy="array", params={"n": 3})
        assert "thunkless" in repr(compiled)

    def test_source_reexecutable(self):
        from repro.codegen.compile import compile_source
        from repro.kernels import SQUARES

        compiled = repro.compile(SQUARES, strategy="array", params={"n": 4})
        rebuilt = compile_source(compiled.source)
        assert rebuilt({"n": 4}).to_list() == [1, 4, 9, 16]

    def test_options_default_independence(self):
        # Options are frozen: no instance can leak a change into
        # another, or into the default request.
        first = CodegenOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.bounds_checks = True
        assert not CodegenOptions().bounds_checks

    def test_analysis_report_repr_safe(self):
        from repro.kernels import SQUARES

        report = analyze(SQUARES, params={"n": 3})
        text = report.summary()
        assert "analysis only" in text
