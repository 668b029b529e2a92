"""E10 — §4's thunk-overhead claim, across the kernel suite.

Paper claim: representing elements as thunks costs creation, testing,
and collection overhead that thunkless scheduling removes entirely.
For each schedulable kernel we time thunkless vs thunked compiled code
and record the thunk traffic; the deforestation companion measures the
cons-cell traffic that the §3.1 fold fusion removes.
"""

import pytest

import repro
from repro.interp import Interpreter
from repro.interp.values import CONS_STATS
from repro.kernels import FORWARD_RECURRENCE, SQUARES, WAVEFRONT
from repro.lang.parser import parse_expr
from repro.runtime.thunks import STATS as THUNK_STATS
from repro import FlatArray

N = 50


def _env(src):
    if src is FORWARD_RECURRENCE:
        return {
            "n": N,
            "b": FlatArray.from_list((1, N), [float(k) for k in range(N)]),
            "c": FlatArray.from_list((1, N), [0.25] * N),
        }
    return {"n": N}


@pytest.mark.benchmark(group="E10-thunks")
@pytest.mark.parametrize(
    "name,src",
    [("squares", SQUARES), ("wavefront", WAVEFRONT),
     ("recurrence", FORWARD_RECURRENCE)],
)
def test_e10_thunkless(benchmark, name, src):
    compiled = repro.compile(src, strategy="array", params={"n": N})
    THUNK_STATS.reset()
    result = benchmark(compiled, _env(src))
    assert THUNK_STATS.created == 0
    assert len(result) >= N


@pytest.mark.benchmark(group="E10-thunks")
@pytest.mark.parametrize(
    "name,src",
    [("squares", SQUARES), ("wavefront", WAVEFRONT),
     ("recurrence", FORWARD_RECURRENCE)],
)
def test_e10_thunked(benchmark, name, src):
    compiled = repro.compile(src, strategy="array", params={"n": N},
                             force_strategy="thunked")
    THUNK_STATS.reset()
    result = benchmark(compiled, _env(src))
    assert THUNK_STATS.created > 0
    assert len(result) >= N


def test_e10_thunk_traffic_accounting():
    """One thunk per element in thunked mode; zero in thunkless."""
    thunked = repro.compile(WAVEFRONT, strategy="array", params={"n": 20},
                            force_strategy="thunked")
    THUNK_STATS.reset()
    thunked({"n": 20})
    assert THUNK_STATS.created >= 400
    assert THUNK_STATS.forced >= 400

    thunkless = repro.compile(WAVEFRONT, strategy="array", params={"n": 20})
    THUNK_STATS.reset()
    thunkless({"n": 20})
    assert THUNK_STATS.created == 0


@pytest.mark.benchmark(group="E10-deforestation")
def test_e10_fold_deforested(benchmark):
    interp = Interpreter(deforest=True)
    expr = parse_expr("sum [ i * j | i <- [1..60], j <- [1..60] ]")

    def run():
        return interp.eval(expr, interp.globals)

    CONS_STATS.reset()
    result = benchmark(run)
    assert CONS_STATS.allocated == 0
    assert result == sum(i * j for i in range(1, 61) for j in range(1, 61))


@pytest.mark.benchmark(group="E10-deforestation")
def test_e10_fold_with_lists(benchmark):
    interp = Interpreter(deforest=False)
    expr = parse_expr("sum [ i * j | i <- [1..60], j <- [1..60] ]")

    def run():
        return interp.eval(expr, interp.globals)

    CONS_STATS.reset()
    result = benchmark(run)
    assert CONS_STATS.allocated > 3600
    assert result == sum(i * j for i in range(1, 61) for j in range(1, 61))
