"""E3 — the §3 wavefront recurrence, compiled three ways.

Paper claim: with a safe static schedule the non-strict array compiles
to plain loops "with performance comparable to Fortran"; without it,
thunks dominate.  Series: hand-coded loops (the Fortran stand-in),
compiled thunkless, compiled thunked, and the lazy interpreter.
Expected shape: hand ~= thunkless << thunked << interpreter.
"""

import pytest

import repro
from repro import evaluate
from repro.kernels import WAVEFRONT, ref_wavefront

N = 60


def expected_flat():
    want = ref_wavefront(N)
    return [want[i][j] for i in range(1, N + 1) for j in range(1, N + 1)]


@pytest.mark.benchmark(group="E3-wavefront")
def test_e3_hand_coded(benchmark):
    result = benchmark(ref_wavefront, N)
    assert result[N][N] > 0


@pytest.mark.benchmark(group="E3-wavefront")
def test_e3_compiled_thunkless(benchmark):
    compiled = repro.compile(WAVEFRONT, strategy="array", params={"n": N})
    assert compiled.report.strategy == "thunkless"
    result = benchmark(compiled, {"n": N})
    assert result.to_list() == expected_flat()


@pytest.mark.benchmark(group="E3-wavefront")
def test_e3_compiled_thunked(benchmark):
    compiled = repro.compile(WAVEFRONT, strategy="array", params={"n": N},
                             force_strategy="thunked")
    result = benchmark(compiled, {"n": N})
    assert result.to_list() == expected_flat()


@pytest.mark.benchmark(group="E3-wavefront")
def test_e3_lazy_interpreter(benchmark):
    small = 24  # the interpreter is orders slower; keep the run sane

    def run():
        return evaluate(WAVEFRONT, bindings={"n": small}, deep=False)

    result = benchmark(run)
    want = ref_wavefront(small)
    assert result.at((small, small)) == want[small][small]
