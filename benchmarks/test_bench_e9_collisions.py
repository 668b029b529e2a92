"""E9 — §7 write-collision analysis: what eliding the checks buys.

Paper claim: "If subscript analysis shows us that no two s/v clause
instances can write to the same element, we do not compile any runtime
code to check for collisions."  Series: wavefront with checks elided
(the default after analysis) vs the same code with collision + empties
+ bounds checks forced on — the price a naive compiler pays per
element.
"""

import pytest

import repro
from repro import CodegenOptions, analyze
from repro.codegen.support import CHECK_STATS
from repro.kernels import WAVEFRONT

N = 50


@pytest.mark.benchmark(group="E9-checks")
def test_e9_checks_elided(benchmark):
    report = analyze(WAVEFRONT, {"n": N})
    assert report.collision.status == "none"
    assert report.empties.status == "none"
    compiled = repro.compile(WAVEFRONT, strategy="array", params={"n": N})
    CHECK_STATS.reset()
    result = benchmark(compiled, {"n": N})
    assert CHECK_STATS.collision_checks == 0
    assert CHECK_STATS.bounds_checks == 0
    assert len(result) == N * N


@pytest.mark.benchmark(group="E9-checks")
def test_e9_checks_forced(benchmark):
    options = CodegenOptions(
        bounds_checks=True, collision_checks=True, empties_check=True
    )
    compiled = repro.compile(WAVEFRONT, strategy="array", params={"n": N},
                             options=options)
    CHECK_STATS.reset()
    result = benchmark(compiled, {"n": N})
    rounds = max(1, CHECK_STATS.collision_checks // (N * N))
    assert CHECK_STATS.collision_checks == rounds * N * N
    assert CHECK_STATS.bounds_checks == rounds * N * N
    assert len(result) == N * N


def test_e9_analysis_elides_on_every_paper_kernel():
    from repro import kernels

    for src, params in [
        (kernels.STRIDE3_SCHEMATIC, None),
        (kernels.WAVEFRONT, {"n": 20}),
        (kernels.EXAMPLE2, None),
        (kernels.SQUARES, {"n": 20}),
        (kernels.ABC_ACYCLIC, None),
    ]:
        report = analyze(src, params)
        assert report.collision.status == "none", src
