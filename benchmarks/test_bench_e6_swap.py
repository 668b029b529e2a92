"""E6 — §9 LINPACK row swap: node-splitting equals hand-coded cost.

Paper claim: the within-instance anti-dependence cycle is broken by
node-splitting and "requires exactly as much copying as a hand-coded
program" — one temporary per element pair.  Series: compiled in-place
swap vs hand-coded swap vs naive functional update (whole-array copy
per element update).
"""

import pytest

import repro
from repro import FlatArray
from repro.kernels import SWAP, ref_swap
from repro.runtime import incremental
from repro.runtime.incremental import VersionedArray, bigupd

M, N = 40, 60
ROW_I, ROW_K = 3, 31
PARAMS = {"m": M, "n": N, "i": ROW_I, "k": ROW_K}


def base_cells():
    return [float(v) for v in range(M * N)]


@pytest.mark.benchmark(group="E6-swap")
def test_e6_compiled_inplace(benchmark):
    compiled = repro.compile(SWAP, strategy="inplace", old_array="a",
                             params=PARAMS)
    assert compiled.report.strategy == "inplace"

    def run():
        arr = FlatArray.from_list(((1, 1), (M, N)), base_cells())
        compiled({"a": arr})
        return arr

    incremental.STATS.reset()
    result = benchmark(run)
    rounds = max(1, incremental.STATS.cells_copied // N)
    # Exactly one temporary per column per run: hand-coded cost.
    assert incremental.STATS.cells_copied == rounds * N
    assert result.to_list() == ref_swap(base_cells(), M, N, ROW_I, ROW_K)


@pytest.mark.benchmark(group="E6-swap")
def test_e6_hand_coded(benchmark):
    def run():
        return ref_swap(base_cells(), M, N, ROW_I, ROW_K)

    result = benchmark(run)
    assert result[(ROW_I - 1) * N] == base_cells()[(ROW_K - 1) * N]


@pytest.mark.benchmark(group="E6-swap")
def test_e6_naive_copy_semantics(benchmark):
    pairs = (
        [((ROW_I, j), None) for j in range(1, N + 1)]
        + [((ROW_K, j), None) for j in range(1, N + 1)]
    )

    def run():
        a = VersionedArray.from_list(((1, 1), (M, N)), base_cells())
        updates = [
            (sub, a.at((ROW_K if sub[0] == ROW_I else ROW_I, sub[1])))
            for sub, _ in pairs
        ]
        return bigupd(a, updates)

    incremental.STATS.reset()
    result = benchmark(run)
    assert result.at((ROW_I, 1)) == base_cells()[(ROW_K - 1) * N]
    # Whole-array copy per element update: 2*N*M*N cells per run.
    per_run = 2 * N * M * N
    assert incremental.STATS.cells_copied % per_run == 0
