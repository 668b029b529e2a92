"""E14 (extension) — §10 vectorization of dependence-free loops.

Paper direction: "this analysis can also be extended to the
vectorization and parallelization of functional language programs ...
such transformations need to focus on finding innermost loops with no
loop-carried dependences."  We measure scalar vs vectorized compiled
code on loops the analysis proves dependence-free, and confirm that a
carried dependence keeps its loop scalar: a forward recurrence stays a
loop, and the wavefront's interior becomes one scalar sweep over the
anti-diagonals of its (1,1) wavefront, one slice per diagonal.
"""

import pytest

import repro
from repro import CodegenOptions, FlatArray
from repro.kernels import SQUARES

N = 4000

SAXPY = """
letrec y = array (1,n)
  [ i := a0 * x!i + y0!i | i <- [1..n] ]
in y
"""

STENCIL_FREE = """
letrec s = array (1,n)
  [ i := 0.5 * (x!i + x!(n+1-i)) | i <- [1..n] ]
in s
"""


def vector_env():
    return {
        "n": N,
        "a0": 2.5,
        "x": FlatArray.from_list((1, N), [float(k) for k in range(N)]),
        "y0": FlatArray.from_list((1, N), [1.0] * N),
    }


@pytest.mark.benchmark(group="E14-saxpy")
def test_e14_saxpy_scalar(benchmark):
    compiled = repro.compile(SAXPY, strategy="array", params={"n": N})
    result = benchmark(compiled, vector_env())
    assert result.at(10) == 2.5 * 9.0 + 1.0


@pytest.mark.benchmark(group="E14-saxpy")
def test_e14_saxpy_vectorized(benchmark):
    compiled = repro.compile(SAXPY, strategy="array", params={"n": N},
                             options=CodegenOptions(vectorize=True))
    assert "_vslice(" in compiled.source
    result = benchmark(compiled, vector_env())
    assert result.at(10) == 2.5 * 9.0 + 1.0


@pytest.mark.benchmark(group="E14-squares")
def test_e14_squares_scalar(benchmark):
    compiled = repro.compile(SQUARES, strategy="array", params={"n": N})
    result = benchmark(compiled, {"n": N})
    assert result.at(N) == N * N


@pytest.mark.benchmark(group="E14-squares")
def test_e14_squares_vectorized(benchmark):
    compiled = repro.compile(SQUARES, strategy="array", params={"n": N},
                             options=CodegenOptions(vectorize=True))
    result = benchmark(compiled, {"n": N})
    assert result.at(N) == float(N * N)


@pytest.mark.benchmark(group="E14-gather")
def test_e14_reversed_gather_vectorized(benchmark):
    compiled = repro.compile(STENCIL_FREE, strategy="array", params={"n": N},
                             options=CodegenOptions(vectorize=True))
    assert "_vslice(" in compiled.source
    env = vector_env()
    result = benchmark(compiled, env)
    assert result.at(1) == 0.5 * (0.0 + float(N - 1))


def test_e14_carried_loops_never_vectorize():
    from repro.kernels import FORWARD_RECURRENCE, WAVEFRONT

    recurrence = repro.compile(FORWARD_RECURRENCE, strategy="array",
                               params={"n": 50},
                               options=CodegenOptions(vectorize=True))
    assert "for i in range" in recurrence.source

    wavefront = repro.compile(WAVEFRONT, strategy="array", params={"n": 20},
                              options=CodegenOptions(vectorize=True))
    # The interior's carried loops become a scalar anti-diagonal sweep.
    assert "for j in range" not in wavefront.source
    assert "for _wt" in wavefront.source
