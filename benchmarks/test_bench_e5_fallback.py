"""E5 — §8.1.2's cycle with both (<) and (>) edges: thunk fallback.

Paper artifact: ``A -> B (<), B -> A (>)`` admits no static schedule;
the compiler "has no choice but to compile using thunks".  The bench
verifies detection and prices the fallback against a schedulable
variant of the same size.
"""

import pytest

import repro
from repro import analyze, evaluate
from repro.kernels import CYCLIC_FALLBACK
from repro.runtime.thunks import STATS as THUNK_STATS

# The same two-clause shape with the (>) edge removed: schedulable.
SCHEDULABLE_VARIANT = """
letrec* a = array (2,21)
  [* [ 2*i := (if i > 1 then a!(2*(i-1)+1) else 0) + 1,
       2*i+1 := (if i > 1 then a!(2*(i-1)) else 0) + 1 ]
   | i <- [1..10] *]
in a
"""


@pytest.mark.benchmark(group="E5-detection")
def test_e5_fallback_detected(benchmark):
    report = benchmark(analyze, CYCLIC_FALLBACK)
    assert not report.schedule.ok
    edges = {
        (e.src.index + 1, e.dst.index + 1, e.direction)
        for e in report.edges
    }
    assert (1, 2, ("<",)) in edges
    assert (2, 1, (">",)) in edges


@pytest.mark.benchmark(group="E5-execution")
def test_e5_thunked_fallback_runs(benchmark):
    compiled = repro.compile(CYCLIC_FALLBACK, strategy="array")
    assert compiled.report.strategy == "thunked"
    THUNK_STATS.reset()
    result = benchmark(compiled, {})
    assert THUNK_STATS.created > 0
    oracle = evaluate(CYCLIC_FALLBACK, deep=False)
    assert result.to_list() == [
        oracle.at(s) for s in oracle.bounds.range()
    ]


@pytest.mark.benchmark(group="E5-execution")
def test_e5_schedulable_variant_thunkless(benchmark):
    compiled = repro.compile(SCHEDULABLE_VARIANT, strategy="array")
    assert compiled.report.strategy == "thunkless"
    THUNK_STATS.reset()
    result = benchmark(compiled, {})
    assert THUNK_STATS.created == 0
    oracle = evaluate(SCHEDULABLE_VARIANT, deep=False)
    assert result.to_list() == [
        oracle.at(s) for s in oracle.bounds.range()
    ]
