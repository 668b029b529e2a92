"""E15 (extension) — §3/§7 accumulated arrays.

Paper direction: "An interesting direction for further work would be
to extend this analysis to general accumulated arrays."  We compile
histograms with commutative and ordered combiners and compare against
the interpreter's accumArray; the ordered case asserts that the
compiled loops preserve the fold order exactly.
"""

import pytest

import repro
from repro import evaluate

HISTOGRAM = """
letrec h = accumArray (\\a b -> a + b) 0 (0,63)
  [ mod (k * 37 + 11) 64 := 1 | k <- [1..n] ]
in h
"""

ORDERED = """
letrec d = accumArray (\\a b -> a * 2 + b) 0 (1,8)
  [* [ mod i 8 + 1 := mod i 2 ] | i <- [1..n] *]
in d
"""

N = 2000


@pytest.mark.benchmark(group="E15-accum")
def test_e15_compiled_histogram(benchmark):
    compiled = repro.compile(HISTOGRAM, strategy="accum", params={"n": N})
    result = benchmark(compiled, {"n": N})
    assert sum(result.to_list()) == N


@pytest.mark.benchmark(group="E15-accum")
def test_e15_interpreted_histogram(benchmark):
    def run():
        return evaluate(HISTOGRAM, bindings={"n": 200}, deep=False)

    result = benchmark(run)
    assert sum(result.to_list()) == 200


@pytest.mark.benchmark(group="E15-ordered")
def test_e15_ordered_combiner(benchmark):
    compiled = repro.compile(ORDERED, strategy="accum", params={"n": 64})
    assert any("source order" in note for note in compiled.report.notes)
    result = benchmark(compiled, {"n": 64})
    oracle = evaluate(ORDERED, bindings={"n": 64}, deep=False)
    assert result.to_list() == oracle.to_list()
