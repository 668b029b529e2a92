"""E4 — §8.1.2's acyclic A/B/C example: pass-splitting.

Paper artifact: an acyclic graph with both (<) and (>) edges is
scheduled as consecutive loop passes, and passes that agree on a
direction collapse — three clauses need only two passes.  The bench
times scheduling and runs the two-pass code.
"""

import pytest

import repro
from repro import analyze, evaluate
from repro.core.schedule import ScheduledLoop
from repro.kernels import ABC_ACYCLIC


@pytest.mark.benchmark(group="E4-schedule")
def test_e4_pass_structure(benchmark):
    report = benchmark(analyze, ABC_ACYCLIC)
    schedule = report.schedule
    assert schedule.ok
    loops = [item for item in schedule.items
             if isinstance(item, ScheduledLoop)]
    assert len(loops) == 2  # collapsed from three per-clause loops
    first_pass = [c.clause.index for c in loops[0].body]
    second_pass = [c.clause.index for c in loops[1].body]
    assert first_pass == [0, 1]
    assert second_pass == [2]
    assert loops[0].direction == "forward"


@pytest.mark.benchmark(group="E4-execution")
def test_e4_two_pass_execution(benchmark):
    compiled = repro.compile(ABC_ACYCLIC, strategy="array")
    result = benchmark(compiled, {})
    oracle = evaluate(ABC_ACYCLIC, deep=False)
    assert result.to_list() == [
        oracle.at(s) for s in oracle.bounds.range()
    ]
