"""E26 (extension) — cache-blocked tiling + out-of-core streaming, measured.

Two workloads, two claims:

**Cache blocking.** A three-stage symmetrize chain on an m x m mesh
(m = 2048): ``s1`` folds the mesh with its transpose (``b!(i,j)`` +
``b!(j,i)``), ``s2``/``main`` are pointwise follow-ups.  Fusion
collapses all three into one nest, so the fused loop walks ``b`` both
row-major *and* column-major — at m = 2048 a column step touches a new
cache line every point.  Tiling the fused nest into 128x128 blocks
keeps both access patterns inside the block, reusing each line ~16x.
Asserted: the cache-blocked native kernel is at least **1.3x faster**
than the unblocked one, and bit-identical to it and to the oracle.
(The assertion is gated: skipped under ``REPRO_BENCH_FAST`` and
without a C toolchain — pure-python loops are interpreter-bound, not
memory-bound, so blocking cannot show there.)

**Out-of-core streaming.** Jacobi on a mesh, with ``ooc=True``
streaming the sweeps through row tiles kept in two spill files.  The
timed rows run a *fixed-step* ``iterate`` (deterministic sweep cost
at m = 96); the convergence-loop claims run ``converge`` at a smaller
mesh, where Jacobi's O(m^2) sweep count stays CI-sized.  Asserted: bit-identity
with the in-memory driver *including the sweep count*, the
``ooc.bytes.resident`` gauge bounded by the tile (not the mesh), and
— via the harness's tracemalloc sampler — a Python-heap peak for the
streaming run that stays below the two full-mesh float64 buffers the
in-memory one-block placement keeps live.

Set ``REPRO_BENCH_FAST=1`` for a CI-sized run (m = 128; timing rows
still land in the baseline but no speedup is claimed).
"""

import os
import time

import pytest

import repro
from repro.backends.native import toolchain_status
from repro.codegen.emit import CodegenOptions
from repro.codegen.support import FlatArray
from repro.obs.trace import (
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
)
from repro.program import compile_program
from repro.runtime.bounds import Bounds

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    np = None

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
M = 128 if FAST else 2048
TILE = 32 if FAST else 128
ORACLE_M = 12
MIN_SPEEDUP = 1.3

OOC_M = 24 if FAST else 96
OOC_STEPS = 10 if FAST else 40
OOC_TILE = 4
#: Convergence-loop mesh: Jacobi needs ~O(m^2) sweeps to converge, so
#: the sweep-count-parity runs use a mesh small enough for CI.
OOC_CONV_M = 16 if FAST else 24
OOC_CONV_PARAMS = {"tol": 1e-3}

#: Fusible chain whose fused nest reads the mesh transposed — the
#: cache-hostile access pattern blocking repairs.
SYM_CHAIN = """
s1 = array ((1,1),(m,m)) [ (i,j) := 0.5 * (b!(i,j) + b!(j,i))
                         | i <- [1..m], j <- [1..m] ];
s2 = array ((1,1),(m,m)) [ (i,j) := s1!(i,j) * 1.5 + 0.1
                         | i <- [1..m], j <- [1..m] ];
main = array ((1,1),(m,m)) [ (i,j) := if s2!(i,j) > 0.9
                                      then 0.9 else s2!(i,j)
                           | i <- [1..m], j <- [1..m] ]
"""

JACOBI = """
u0 = array ((1,1),(m,m))
  [ (i,j) := if i == 1 || i == m || j == 1 || j == m
             then 1.0 * (i + j) else 0.0
  | i <- [1..m], j <- [1..m] ];
step u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
main = converge step u0 tol
"""

#: Same step, fixed sweep count — deterministic cost for timed rows.
JACOBI_STEPS = JACOBI.replace("main = converge step u0 tol",
                              "main = iterate step u0 k")

needs_native = pytest.mark.skipif(
    toolchain_status() is not None,
    reason=f"native toolchain unavailable: {toolchain_status()}",
)


def mesh_input(m):
    cells = (np.arange(m * m, dtype=np.float64) * 1e-7
             if np is not None
             else [k * 1e-7 for k in range(m * m)])
    return FlatArray(Bounds((1, 1), (m, m)), cells)


def compile_chain(m, tile):
    options = CodegenOptions(backend="c", tile=tile)
    return compile_program(SYM_CHAIN, params={"m": m}, options=options)


def best_of(fn, repeat=3):
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


@needs_native
@pytest.mark.benchmark(group="E26-tiling")
def test_e26_blocked_chain(benchmark):
    program = compile_chain(M, TILE)
    b = mesh_input(M)
    result = benchmark(lambda: program({"b": b}))
    assert result.bounds.size() == M * M
    benchmark.extra_info["m"] = M
    benchmark.extra_info["tile"] = TILE


@needs_native
@pytest.mark.benchmark(group="E26-tiling")
def test_e26_unblocked_chain(benchmark):
    program = compile_chain(M, None)
    b = mesh_input(M)
    result = benchmark(lambda: program({"b": b}))
    assert result.bounds.size() == M * M
    benchmark.extra_info["m"] = M


@needs_native
def test_e26_speedup_floor():
    """The headline claim: blocking the fused transposed chain buys
    >= 1.3x at m = 2048 on the native backend."""
    blocked = compile_chain(M, TILE)
    unblocked = compile_chain(M, None)
    b = mesh_input(M)
    assert blocked({"b": b}).to_list() == unblocked({"b": b}).to_list()
    if FAST:
        return
    speedup = (best_of(lambda: unblocked({"b": b}))
               / best_of(lambda: blocked({"b": b})))
    assert speedup >= MIN_SPEEDUP, speedup


def test_e26_blocked_matches_oracle():
    """Tiling reorders loops; it must never change a float — on either
    emitter."""
    b = mesh_input(ORACLE_M)
    oracle = repro.run_program(
        SYM_CHAIN, bindings={"m": ORACLE_M, "b": b}
    )
    for options in (CodegenOptions(tile=5),
                    CodegenOptions(backend="c", tile=5)):
        program = compile_program(SYM_CHAIN, params={"m": ORACLE_M},
                                  options=options)
        got = program({"b": b})
        assert got.bounds == oracle.bounds
        for subscript in got.bounds.range():
            assert got.at(subscript) == oracle.at(subscript)


@pytest.mark.benchmark(group="E26-ooc")
def test_e26_ooc_jacobi(benchmark):
    params = {"m": OOC_M, "k": OOC_STEPS}
    program = compile_program(JACOBI_STEPS, params=params,
                              options=CodegenOptions(tile=OOC_TILE),
                              ooc=True)
    result = benchmark(lambda: program({}))
    assert result.bounds.size() == OOC_M * OOC_M
    benchmark.extra_info["m"] = OOC_M
    benchmark.extra_info["sweeps"] = OOC_STEPS
    benchmark.extra_info["tile_rows"] = OOC_TILE


def test_e26_ooc_bit_identical_fixed_steps(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    refresh_runtime_tracing()
    params = {"m": OOC_M, "k": OOC_STEPS}
    streaming = compile_program(JACOBI_STEPS, params=params,
                                options=CodegenOptions(tile=OOC_TILE),
                                ooc=True)
    in_memory = compile_program(JACOBI_STEPS, params=params)

    reset_runtime_counters()
    got = streaming({})
    streamed = runtime_counters()
    reset_runtime_counters()
    want = in_memory({})

    monkeypatch.delenv("REPRO_TRACE", raising=False)
    refresh_runtime_tracing()

    assert got.bounds == want.bounds
    assert got.to_list() == want.to_list()
    # The gauge: window + destination tile, far below the mesh.
    mesh_bytes = OOC_M * OOC_M * 8
    resident = streamed["ooc.bytes.resident"]
    assert resident <= (2 * OOC_TILE + 2) * OOC_M * 8
    assert resident < mesh_bytes


def test_e26_ooc_converge_sweep_counts_match(monkeypatch):
    """The convergence loop streamed: same result, same *sweep count*
    as the in-memory driver (exact per-tile max reduction)."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    refresh_runtime_tracing()
    params = {"m": OOC_CONV_M, **OOC_CONV_PARAMS}
    streaming = compile_program(JACOBI, params=params,
                                options=CodegenOptions(tile=OOC_TILE),
                                ooc=True)
    in_memory = compile_program(JACOBI, params=params)

    reset_runtime_counters()
    got = streaming({})
    streamed = runtime_counters()
    reset_runtime_counters()
    want = in_memory({})
    resident_counters = runtime_counters()

    monkeypatch.delenv("REPRO_TRACE", raising=False)
    refresh_runtime_tracing()

    assert got.to_list() == want.to_list()
    assert (streamed["iterate.sweeps.double"]
            == resident_counters["iterate.sweeps.double"])


def test_e26_ooc_heap_peak_stays_bounded(peak_resident):
    """tracemalloc view of the same claim: during the sweeps the
    streaming run keeps only (window + destination tile) buffers
    live, so its heap peak stays below the in-memory run's, which
    holds two full float64 meshes (the one-block placement's
    buffers).  Both runs pay the same result-list materialization at
    the end, so the comparison isolates the sweeps' resident set."""
    if np is None:
        pytest.skip("streaming needs numpy")
    params = {"m": OOC_M, "k": OOC_STEPS}
    streaming = compile_program(JACOBI_STEPS, params=params,
                                options=CodegenOptions(tile=OOC_TILE),
                                ooc=True)
    in_memory = compile_program(JACOBI_STEPS, params=params)
    streaming({})   # warm caches (kernel compile, spill dir)
    in_memory({})
    streamed, resident = {}, {}
    with peak_resident(streamed):
        result = streaming({})
    assert result.bounds.size() == OOC_M * OOC_M
    del result
    with peak_resident(resident):
        in_memory({})
    assert streamed["peak_bytes"] < resident["peak_bytes"]
