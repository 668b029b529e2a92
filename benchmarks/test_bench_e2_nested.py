"""E2 — §5 example 2: nested i/j loops with a backward inner loop.

Paper artifact: the second dependence-graph figure — edges
``2 -> 1 (=,>)``, ``1 -> 2 (<,>)``, ``2 -> 3 (<)``; the schedule runs
i forward and j backward, clause 3 after the inner loop.
"""

import pytest

from repro import analyze
from repro.codegen.compile import CompiledComp
from repro.codegen.emit import emit_thunkless
from repro.kernels import EXAMPLE2

EXPECTED_EDGES = {
    (2, 1, ("=", ">")),
    (1, 2, ("<", ">")),
    (2, 3, ("<",)),
}


@pytest.mark.benchmark(group="E2-analysis")
def test_e2_analysis(benchmark):
    report = benchmark(analyze, EXAMPLE2)
    edges = {
        (e.src.index + 1, e.dst.index + 1, e.direction)
        for e in report.edges
    }
    assert edges == EXPECTED_EDGES
    directions = report.schedule.loop_directions()
    assert directions["i"] == ["forward"]
    assert directions["j"] == ["backward"]


@pytest.mark.benchmark(group="E2-execution")
def test_e2_execution(benchmark):
    # Example 2 is partial, as the paper's schematic is: the facade
    # compiles its empties check, and a call raises on the first
    # unwritten cell.  The emitter layer, which compiles no checks,
    # gives the plain loop nest this experiment times.
    report = analyze(EXAMPLE2)
    compiled = CompiledComp(
        emit_thunkless(report.comp, report.schedule, edges=report.edges),
        report,
    )
    result = benchmark(compiled, {})
    # Spot-check a value chain: clause 2 feeds clause 3 across i.
    assert result.at(100 * 2 + 51) == result.at(100 * 1 + 2 * 5) + 0
