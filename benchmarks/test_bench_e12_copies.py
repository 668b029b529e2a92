"""E12 — §9's copy-traffic comparison across update strategies.

Paper context: runtime schemes (copy semantics, trailers, reference
counts) vs compile-time scheduling with node-splitting.  For a bulk
update touching half the array we count exact cell-copy traffic per
strategy and time each.  Expected shape:

    copy semantics >> trailers ~ refcount ~ compiled in-place (0)
"""

import pytest

import repro
from repro import FlatArray
from repro.runtime import incremental
from repro.runtime.incremental import (
    RefCountedArray,
    TrailerArray,
    VersionedArray,
    bigupd,
)

SIZE = 400
UPDATES = [(i, float(-i)) for i in range(1, SIZE // 2 + 1)]

# The same bulk update as a comprehension compiled for in-place
# execution (no reads, so no anti dependences at all).
INPLACE_SRC = """
array (1,n)
  [* i := 0 - fromIntegral i | i <- [1..half] *]
"""


def base():
    return [float(v) for v in range(SIZE)]


@pytest.mark.benchmark(group="E12-copies")
def test_e12_copy_semantics(benchmark):
    def run():
        return bigupd(VersionedArray.from_list((1, SIZE), base()), UPDATES)

    incremental.STATS.reset()
    result = benchmark(run)
    per_run = len(UPDATES) * SIZE
    assert incremental.STATS.cells_copied % per_run == 0
    assert result.at(1) == -1.0


@pytest.mark.benchmark(group="E12-copies")
def test_e12_trailers_single_threaded(benchmark):
    def run():
        return bigupd(TrailerArray.from_list((1, SIZE), base()), UPDATES)

    incremental.STATS.reset()
    result = benchmark(run)
    assert incremental.STATS.cells_copied == 0
    assert result.at(1) == -1.0


@pytest.mark.benchmark(group="E12-copies")
def test_e12_refcount_single_threaded(benchmark):
    def run():
        return bigupd(RefCountedArray.from_list((1, SIZE), base()), UPDATES)

    incremental.STATS.reset()
    result = benchmark(run)
    assert incremental.STATS.cells_copied == 0
    assert result.at(1) == -1.0


@pytest.mark.benchmark(group="E12-copies")
def test_e12_compiled_inplace(benchmark):
    compiled = repro.compile(INPLACE_SRC, strategy="inplace", old_array="a",
                             params={"n": SIZE, "half": SIZE // 2})

    def run():
        arr = FlatArray.from_list((1, SIZE), base())
        compiled({"a": arr})
        return arr

    incremental.STATS.reset()
    result = benchmark(run)
    assert incremental.STATS.cells_copied == 0
    assert result.at(1) == -1.0


@pytest.mark.benchmark(group="E12-shared")
def test_e12_trailers_degrade_when_shared(benchmark):
    """Trailer reads through old versions degrade with chain length —
    the paper's caveat about non-single-threaded use."""

    def run():
        a = TrailerArray.from_list((1, SIZE), base())
        newest = bigupd(a, UPDATES)
        # Read the *old* version after many updates: walks trailers.
        return sum(a.at(i) for i in range(1, SIZE // 2 + 1)), newest

    total, _ = benchmark(run)
    # The old version still shows the original values.
    assert total == float(sum(range(SIZE // 2)))


@pytest.mark.benchmark(group="E12-shared")
def test_e12_refcount_copies_when_shared(benchmark):
    def run():
        a = RefCountedArray.from_list((1, SIZE), base())
        a.share()  # another live reference: first update must copy
        return bigupd(a, UPDATES)

    incremental.STATS.reset()
    result = benchmark(run)
    rounds = max(1, incremental.STATS.arrays_copied)
    assert incremental.STATS.cells_copied == rounds * SIZE  # one copy
    assert result.at(1) == -1.0
