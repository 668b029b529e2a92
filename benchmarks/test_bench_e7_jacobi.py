"""E7 — §9 Jacobi step: node-splitting temporaries vs copying.

Paper claim: the (=,>) anti self-cycle needs a scalar temporary, the
(>,=) one a row-vector temporary; per outer iteration node-splitting
copies O(row) cells where the naive strategy copies the whole array —
"a factor n fewer copies ... where the outer loop has n instances".
Series: compiled node-split in-place, whole-copy-per-sweep, and naive
copy-semantics bigupd.
"""

import pytest

import repro
from repro import FlatArray
from repro.kernels import JACOBI, mesh_cells, ref_jacobi
from repro.runtime import incremental
from repro.runtime.incremental import VersionedArray

M = 32
INTERIOR = (M - 2) ** 2


@pytest.mark.benchmark(group="E7-jacobi")
def test_e7_compiled_node_split(benchmark, mesh_factory):
    compiled = repro.compile(JACOBI, strategy="inplace", old_array="u",
                             params={"m": M})
    assert compiled.report.strategy == "inplace"

    def run():
        arr = mesh_factory(M)
        compiled({"u": arr})
        return arr

    incremental.STATS.reset()
    result = benchmark(run)
    rounds = max(1, incremental.STATS.cells_copied // (2 * INTERIOR))
    # 2 buffered cells per interior element (scalar ring + row ring).
    assert incremental.STATS.cells_copied == rounds * 2 * INTERIOR
    assert result.to_list() == ref_jacobi(mesh_cells(M), M)


@pytest.mark.benchmark(group="E7-jacobi")
def test_e7_whole_copy_per_sweep(benchmark):
    def run():
        cells = mesh_cells(M)
        return ref_jacobi(cells, M)  # reads a full copy of the mesh

    result = benchmark(run)
    assert len(result) == M * M


@pytest.mark.benchmark(group="E7-jacobi")
def test_e7_naive_copy_semantics(benchmark):
    small = 12  # naive is O(n^4); keep it tractable

    def run():
        a = VersionedArray.from_list(
            ((1, 1), (small, small)), mesh_cells(small)
        )
        out = a
        for i in range(2, small):
            for j in range(2, small):
                value = 0.25 * (
                    a.at((i - 1, j)) + a.at((i + 1, j))
                    + a.at((i, j - 1)) + a.at((i, j + 1))
                )
                out = out.update((i, j), value)
        return out

    incremental.STATS.reset()
    result = benchmark(run)
    per_sweep = (small - 2) ** 2 * small * small
    assert incremental.STATS.cells_copied % per_sweep == 0
    assert result.to_list() == ref_jacobi(mesh_cells(small), small)


def test_e7_factor_n_claim():
    """Copies per outer iteration: node-split O(n) vs naive O(n^2)."""
    ratios = []
    for m in (16, 32):
        compiled = repro.compile(JACOBI, strategy="inplace", old_array="u",
                                 params={"m": m})
        arr = FlatArray.from_list(((1, 1), (m, m)), mesh_cells(m))
        incremental.STATS.reset()
        compiled({"u": arr})
        split_per_outer = incremental.STATS.cells_copied / (m - 2)
        naive_per_outer = m * m  # whole-array copy each outer iteration
        ratios.append(naive_per_outer / split_per_outer)
    # The savings factor grows linearly with n (factor-n claim).
    assert ratios[1] > ratios[0] * 1.8
