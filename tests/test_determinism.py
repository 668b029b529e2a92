"""Compilation is deterministic: same input, byte-identical output.

This is the correctness precondition for the compile service's
fingerprint cache (``repro.service``): a cached artifact may be
substituted for a fresh pipeline run only because two runs over the
same (source, params, options) always produce the same generated
source and the same report.  Covers the scheduled wavefront, both
in-place relaxation kernels (node-splitting and zero-copy paths), and
the E5 thunked fallback — within one process and across processes
with different hash seeds.
"""

import os
import subprocess
import sys

import repro
from repro import CodegenOptions, kernels


def assert_deterministic(compile_once):
    first = compile_once()
    second = compile_once()
    assert first.source == second.source, "generated source drifted"
    assert first.report.summary() == second.report.summary()
    assert first.report.strategy == second.report.strategy


class TestMonolithicDeterminism:
    def test_wavefront(self):
        assert_deterministic(
            lambda: repro.compile(kernels.WAVEFRONT, strategy="array",
                                  params={"n": 8})
        )

    def test_wavefront_vectorized(self):
        assert_deterministic(
            lambda: repro.compile(kernels.WAVEFRONT, strategy="array",
                                  params={"n": 8},
                                  options=CodegenOptions(vectorize=True))
        )

    def test_thunked_fallback_e5(self):
        # The E5 kernel: cyclic dependences force the thunked strategy.
        def compile_once():
            compiled = repro.compile(kernels.CYCLIC_FALLBACK, strategy="array")
            assert compiled.report.strategy == "thunked"
            return compiled

        assert_deterministic(compile_once)

    def test_forced_strategies_each_deterministic(self):
        for strategy in ("thunkless", "thunked"):
            assert_deterministic(
                lambda s=strategy: repro.compile(
                    kernels.SQUARES, strategy="array", params={"n": 6},
                    force_strategy=s)
            )


class TestInPlaceDeterminism:
    def test_jacobi(self):
        def compile_once():
            compiled = repro.compile(kernels.JACOBI, strategy="inplace",
                                     old_array="u", params={"m": 8})
            assert compiled.report.strategy == "inplace"
            return compiled

        assert_deterministic(compile_once)

    def test_sor(self):
        assert_deterministic(
            lambda: repro.compile(kernels.SOR, strategy="inplace",
                                  old_array="u", params={"m": 8})
        )

    def test_whole_copy_fallback(self):
        def compile_once():
            compiled = repro.compile(kernels.REVERSE, strategy="inplace",
                                     old_array="a", params={"n": 8})
            assert compiled.report.strategy == "inplace-copy"
            return compiled

        assert_deterministic(compile_once)


class TestAcrossProcesses:
    """Serve workers and the disk tier share artifacts between
    processes, so the output must not depend on ``PYTHONHASHSEED``."""

    SCRIPT = (
        "import repro\n"
        "from repro import kernels\n"
        "print(repro.compile(kernels.REVERSE, strategy='inplace',\n"
        "                    old_array='a', params={'n': 6})"
        ".report.summary())\n"
    )

    def _summary(self, seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env, check=True,
            capture_output=True, text=True,
        ).stdout

    def test_edge_order_independent_of_hash_seed(self):
        first = self._summary(1)
        assert "-a->" in first
        assert first == self._summary(2)


class TestReportTimings:
    """Timings ride on the report but never affect its semantics."""

    def test_pipeline_records_pass_timings(self):
        compiled = repro.compile(kernels.WAVEFRONT, strategy="array",
                                 params={"n": 6})
        timings = compiled.report.timings
        for name in ("parse", "build", "dependence", "schedule",
                     "codegen", "total"):
            assert name in timings
            assert timings[name] >= 0.0

    def test_summary_does_not_include_timings(self):
        compiled = repro.compile(kernels.WAVEFRONT, strategy="array",
                                 params={"n": 6})
        assert "total" not in compiled.report.summary().lower()
