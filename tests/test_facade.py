"""The unified ``repro.compile`` facade (strategy dispatch).

One entry point covers every compilation mode: ``strategy=`` selects
the pass list, ``"auto"`` detects it from the source.  These tests pin
(a) the dispatch matrix — auto detection compiles what the resolved
strategy does — and (b) the facade's argument
validation, which is the single place strategy/option conflicts are
rejected.
"""

import pytest

import repro
from repro import CompileError, FlatArray, kernels
from repro.core.pipeline import STRATEGIES, detect_strategy
from repro.service.fingerprint import fingerprint

BIGUPD = "bigupd a [* i := 2.0 * a!i | i <- [1..n] *]"
ACCUM = """
letrec h = accumArray (\\x y -> x + y) 0 (0,3)
  [ mod i 4 := i | i <- [1..10] ]
in h
"""


#: strategy -> (source, old_array, params)
MATRIX = {
    "array": (kernels.WAVEFRONT, None, {"n": 6}),
    "inplace": (kernels.JACOBI, "u", {"m": 8}),
    "bigupd": (BIGUPD, None, {"n": 5}),
    "accum": (ACCUM, None, {}),
}


class TestDispatchMatrix:
    def test_auto_compiles_like_resolved(self, tmp_path):
        # Two requests with two keys, and one module; a cached facade
        # call is stored under the fingerprint of its own arguments,
        # defaults included.
        auto = repro.compile(BIGUPD, params={"n": 5}, cache=str(tmp_path))
        assert auto.source == repro.compile(
            BIGUPD, params={"n": 5}, strategy="bigupd").source
        key = fingerprint(BIGUPD, params={"n": 5})
        assert [path.stem for path in tmp_path.glob("*/*.pkl")] == [key]
        assert key == fingerprint(BIGUPD, params={"n": 5},
                                  strategy="auto")
        assert key != fingerprint(BIGUPD, params={"n": 5},
                                  strategy="bigupd")

    def test_strategies_cover_detection(self):
        assert set(STRATEGIES) == {"auto", "array", "inplace",
                                   "bigupd", "accum"}


class TestAutoDetection:
    def test_detects_array(self):
        assert detect_strategy(kernels.SQUARES) == "array"

    def test_detects_bigupd(self):
        assert detect_strategy(BIGUPD) == "bigupd"

    def test_detects_accum(self):
        assert detect_strategy(ACCUM) == "accum"

    def test_auto_compiles_each_shape(self):
        assert repro.compile(kernels.SQUARES, params={"n": 4})(
            {"n": 4}).to_list() == [1, 4, 9, 16]
        assert repro.compile(ACCUM).report.strategy == "accumulate"
        up = repro.compile(BIGUPD, params={"n": 3})
        arr = FlatArray.from_list((1, 3), [1.0, 2.0, 3.0])
        up({"a": arr, "n": 3})
        assert arr.to_list() == [2.0, 4.0, 6.0]

    def test_old_array_forces_inplace(self):
        compiled = repro.compile(kernels.JACOBI, old_array="u",
                                 params={"m": 8})
        assert compiled.report.strategy == "inplace"


class TestValidation:
    def test_unknown_strategy(self):
        with pytest.raises(CompileError, match="unknown strategy"):
            repro.compile(kernels.SQUARES, strategy="fortran")

    def test_inplace_needs_old_array(self):
        with pytest.raises(CompileError, match="old_array"):
            repro.compile(kernels.JACOBI, strategy="inplace")

    def test_old_array_only_for_inplace(self):
        with pytest.raises(CompileError, match="old_array"):
            repro.compile(kernels.SQUARES, strategy="array",
                          old_array="a")

    def test_force_strategy_only_monolithic(self):
        with pytest.raises(CompileError, match="force_strategy"):
            repro.compile(BIGUPD, strategy="bigupd",
                          force_strategy="thunked")

    def test_unknown_force_strategy(self):
        # Rejected by the facade, before any pass runs.
        with pytest.raises(CompileError, match="force_strategy"):
            repro.compile(kernels.SQUARES, force_strategy="guarded")


class TestReportStability:
    """Satellite fix: summary() has the same line kinds everywhere."""

    def _kinds(self, summary):
        kinds = []
        for line in summary.splitlines():
            kind = line.split(":", 1)[0]
            if kind.startswith("loop "):
                kind = "loop"
            if kind.startswith("edge"):
                kind = "edge"
            if kind not in kinds:
                kinds.append(kind)
        return kinds

    def test_every_strategy_reports_analysis_sections(self):
        for strategy, (src, old, params) in MATRIX.items():
            report = repro.compile(src, strategy=strategy,
                                   old_array=old, params=params).report
            summary = report.summary()
            assert summary.startswith("strategy: "), strategy
            assert "collisions: " in summary, strategy
            assert "empties: " in summary, strategy
            # Normalized reports: every strategy computes the
            # vectorizability and parallelism analyses.
            assert report.vectorizable is not None, strategy
            assert report.parallelism is not None, strategy

    def test_every_strategy_runs_the_shared_passes(self):
        # One pass list: every strategy records the same analysis and
        # codegen spans (in-place updates included).
        shared = ("parse", "build", "subscripts", "collisions",
                  "dependence", "schedule", "parallelism", "codegen",
                  "exec")
        for strategy, (src, old, params) in MATRIX.items():
            timings = repro.compile(src, strategy=strategy,
                                    old_array=old,
                                    params=params).report.timings
            assert set(shared) <= set(timings), strategy

    def test_section_order_is_stable(self):
        orders = {}
        for strategy, (src, old, params) in MATRIX.items():
            summary = repro.compile(src, strategy=strategy,
                                    old_array=old,
                                    params=params).report.summary()
            orders[strategy] = self._kinds(summary)
        reference = [
            "strategy", "collisions", "empties", "checks compiled",
            "edge", "loop", "vectorizable inner loops", "parallel",
            "note",
        ]
        for strategy, kinds in orders.items():
            positions = [reference.index(k) for k in kinds
                         if k in reference]
            assert positions == sorted(positions), (strategy, kinds)
