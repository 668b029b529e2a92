"""Out-of-core streaming execution vs the in-memory path and oracle.

``ooc=True`` streams a program's iterate/converge sweeps through row
tiles held in spill files.  The contract is *bit-identity* with the
in-memory double-buffer path — and hence with the lazy oracle —
including the exact sweep count of a convergence loop, while the
resident working set stays bounded by the tile, not the mesh.  A spill
I/O failure raises; it never falls back to the in-memory sweeps.
"""

import errno
import os
import random

import pytest

import repro
from repro.backends.native import toolchain_status
from repro.codegen.emit import CodegenOptions
from repro.codegen.support import FlatArray
from repro.kernels import PROGRAM_JACOBI, PROGRAM_JACOBI_STEPS, PROGRAM_SOR
from repro.obs.trace import (
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
)
from repro.program.compile import compile_program

needs_cc = pytest.mark.skipif(
    toolchain_status() is not None,
    reason=f"native toolchain unavailable: {toolchain_status()}",
)

JACOBI_PARAMS = {"m": 12, "tol": 1e-3}
STEPS_PARAMS = {"m": 12, "k": 7}


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    refresh_runtime_tracing()
    reset_runtime_counters()
    yield
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    refresh_runtime_tracing()


def identical(got, want):
    assert got.bounds == want.bounds
    for subscript in got.bounds.range():
        assert got.at(subscript) == want.at(subscript)


class TestOocBitIdentity:
    @pytest.mark.parametrize("tile", [1, 3, 5, 100, None])
    def test_jacobi_converge(self, tile):
        options = CodegenOptions(tile=tile) if tile else None
        ooc = compile_program(PROGRAM_JACOBI, params=JACOBI_PARAMS,
                              options=options, ooc=True)
        # The convergence loop itself streamed — no fallback for it.
        assert not [f for f in ooc.report.fallbacks
                    if f.startswith("ooc 'main'")]
        plain = compile_program(PROGRAM_JACOBI, params=JACOBI_PARAMS)
        identical(ooc({}), plain({}))

    def test_jacobi_matches_oracle(self):
        ooc = compile_program(PROGRAM_JACOBI, params=JACOBI_PARAMS,
                              options=CodegenOptions(tile=4), ooc=True)
        oracle = repro.run_program(PROGRAM_JACOBI,
                                   bindings=dict(JACOBI_PARAMS))
        identical(ooc({}), oracle)

    @pytest.mark.parametrize("tile", [1, 4, 100])
    def test_jacobi_fixed_steps(self, tile):
        ooc = compile_program(PROGRAM_JACOBI_STEPS, params=STEPS_PARAMS,
                              options=CodegenOptions(tile=tile), ooc=True)
        plain = compile_program(PROGRAM_JACOBI_STEPS, params=STEPS_PARAMS)
        identical(ooc({}), plain({}))

    def test_sweep_counts_identical(self, traced):
        ooc = compile_program(PROGRAM_JACOBI, params=JACOBI_PARAMS,
                              options=CodegenOptions(tile=4), ooc=True)
        ooc({})
        streamed = runtime_counters().get("iterate.sweeps.double")
        assert streamed is not None
        reset_runtime_counters()
        plain = compile_program(PROGRAM_JACOBI, params=JACOBI_PARAMS)
        plain({})
        in_memory = runtime_counters().get("iterate.sweeps.double")
        assert streamed == in_memory


class TestResidentBound:
    def test_resident_bytes_bounded_by_tile(self, traced):
        # m=12 rows of 12 doubles; 2-row tiles with a 1-row halo each
        # side keep (window + destination) well under the full mesh.
        ooc = compile_program(PROGRAM_JACOBI, params=JACOBI_PARAMS,
                              options=CodegenOptions(tile=2), ooc=True)
        ooc({})
        counters = runtime_counters()
        resident = counters.get("ooc.bytes.resident")
        mesh_bytes = 12 * 12 * 8
        assert resident is not None
        # window (tile + two halo rows) + destination tile, in bytes.
        assert resident <= (4 + 2) * 12 * 8
        assert resident < mesh_bytes
        assert counters.get("ooc.tiles", 0) >= 6
        assert counters.get("tile.halo.cells", 0) > 0

    def test_spill_files_cleaned_up(self, tmp_path, monkeypatch):
        spill = tmp_path / "spill"
        monkeypatch.setenv("REPRO_OOC_DIR", str(spill))
        ooc = compile_program(PROGRAM_JACOBI, params=JACOBI_PARAMS,
                              options=CodegenOptions(tile=3), ooc=True)
        ooc({})
        assert os.listdir(spill) == []


class TestOocFallbacks:
    def test_sor_inplace_sweeps_fall_back_with_reason(self):
        # SOR's sweep mutates one buffer; its tiles cannot stream
        # independently, so ooc falls back — loudly and correctly.
        ooc = compile_program(PROGRAM_SOR,
                              params={"m": 8, "k": 5, "omega": 1.25},
                              ooc=True)
        reasons = [f for f in ooc.report.fallbacks
                   if f.startswith("ooc 'main'")]
        assert reasons
        assert "double-buffer" in reasons[0]
        plain = compile_program(PROGRAM_SOR,
                                params={"m": 8, "k": 5, "omega": 1.25})
        identical(ooc({}), plain({}))

    def test_one_shot_bindings_report_nothing_to_stream(self):
        src = "a = array (1,4) [ i := 2.0 | i <- [1..4] ]; main = a"
        ooc = compile_program(src, ooc=True)
        reasons = [f for f in ooc.report.fallbacks
                   if f.startswith("ooc ")]
        assert reasons
        assert any("nothing to stream" in r or "executes once" in r
                   for r in reasons)

    def test_single_definition_ooc_is_a_loud_error(self):
        with pytest.raises(repro.CompileError):
            repro.compile("array (1,4) [ i := 2.0 | i <- [1..4] ]",
                          ooc=True)


class TestOocComposesWithOverrides:
    def test_tol_override_still_streams(self):
        ooc = compile_program(PROGRAM_JACOBI, params=JACOBI_PARAMS,
                              options=CodegenOptions(tile=4), ooc=True)
        plain = compile_program(PROGRAM_JACOBI, params=JACOBI_PARAMS)
        identical(ooc({}, tol=1e-2), plain({}, tol=1e-2))

    def test_steps_override_still_streams(self):
        ooc = compile_program(PROGRAM_JACOBI, params=JACOBI_PARAMS,
                              options=CodegenOptions(tile=4), ooc=True)
        plain = compile_program(PROGRAM_JACOBI, params=JACOBI_PARAMS)
        identical(ooc({}, steps=9), plain({}, steps=9))


# A rank-1 stencil with halo 2 on both sides that also reads an input
# array and a scalar: the other shape the tile kernel must stream.
STENCIL_STEP = """
step u = letrec a = array (1,n)
   ([ 1 := u!1 ] ++ [ 2 := u!2 ] ++ [ n-1 := u!(n-1) ] ++ [ n := u!n ] ++
    [ i := w * (u!(i-2) + u!(i+2)) + (0.5 - 2.0 * w) * (u!(i-1) + u!(i+1))
           + c!i
      | i <- [3..n-2] ])
  in a;
"""
STENCIL_STEPS = STENCIL_STEP + "main = iterate step u0 k\n"
STENCIL_CONVERGE = STENCIL_STEP + "main = converge step u0 tol\n"
STENCIL_N = 23


def stencil_inputs():
    rng = random.Random(23)
    return {
        "u0": FlatArray.from_list(
            (1, STENCIL_N), [rng.uniform(-1.0, 1.0) for _ in range(STENCIL_N)]
        ),
        "c": FlatArray.from_list(
            (1, STENCIL_N), [rng.uniform(0.0, 0.1) for _ in range(STENCIL_N)]
        ),
    }


def streamed(counters):
    """The run went through the tile driver: no silent fallback."""
    assert counters.get("ooc.tiles", 0) > 0
    assert "ooc.fallback.runtime" not in counters


class TestOocRank1Stencil:
    params = {"n": STENCIL_N, "w": 0.1}

    @pytest.mark.parametrize("tile", [1, 4, 5, 100])
    def test_iterate_matches_memory_and_oracle(self, tile, traced):
        params = dict(self.params, k=6)
        inputs = stencil_inputs()
        ooc = compile_program(STENCIL_STEPS, params=params,
                              options=CodegenOptions(tile=tile), ooc=True)
        got = ooc(dict(inputs))
        streamed(runtime_counters())
        plain = compile_program(STENCIL_STEPS, params=params)
        identical(got, plain(dict(inputs)))
        oracle = repro.run_program(STENCIL_STEPS,
                                   bindings=dict(params, **inputs))
        identical(got, oracle)

    @pytest.mark.parametrize("tile", [1, 4, 5, 100])
    def test_converge_sweep_counts_match(self, tile, traced):
        params = dict(self.params, tol=1e-9)
        inputs = stencil_inputs()
        ooc = compile_program(STENCIL_CONVERGE, params=params,
                              options=CodegenOptions(tile=tile), ooc=True)
        got = ooc(dict(inputs))
        counters = runtime_counters()
        streamed(counters)
        sweeps = counters["iterate.sweeps.double"]
        reset_runtime_counters()
        plain = compile_program(STENCIL_CONVERGE, params=params)
        identical(got, plain(dict(inputs)))
        assert runtime_counters()["iterate.sweeps.double"] == sweeps
        oracle = repro.run_program(STENCIL_CONVERGE,
                                   bindings=dict(params, **inputs))
        identical(got, oracle)

    def test_dist_runs_the_same_block_kernel(self, traced):
        from repro.dist.pool import fork_available

        if not fork_available():
            pytest.skip("dist needs fork")
        params = dict(self.params, k=6)
        inputs = stencil_inputs()
        dist = compile_program(STENCIL_STEPS, params=params, dist=True,
                               workers=2)
        got = dist(dict(inputs))
        counters = runtime_counters()
        assert counters.get("dist.blocks", 0) > 0
        assert "dist.fallback.runtime" not in counters
        plain = compile_program(STENCIL_STEPS, params=params)
        identical(got, plain(dict(inputs)))


# Jacobi whose seed is the caller's array, so a test can check that a
# failed run leaves it untouched.
JACOBI_INPUT_SEED = """
step u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
main = iterate step u0 k
"""


def open_fds():
    """This process's open descriptors, or None where /proc is absent."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    return sorted(os.listdir("/proc/self/fd"))


class TestSpillFaults:
    params = {"m": 12, "k": 3}

    def run_failing(self, tmp_path, monkeypatch, expected_errno):
        """Run 3-tile Jacobi out of core with the patched spill I/O;
        the run must raise, clean up, and leave the seed alone."""
        spill = tmp_path / "spill"
        monkeypatch.setenv("REPRO_OOC_DIR", str(spill))
        ooc = compile_program(JACOBI_INPUT_SEED, params=self.params,
                              options=CodegenOptions(tile=4), ooc=True)
        (plan,) = [s.iterate for s in ooc.steps if s.iterate]
        assert plan.ooc is not None
        m = self.params["m"]
        cells = [float(i % 7) for i in range(m * m)]
        seed = FlatArray.from_list(((1, 1), (m, m)), cells)
        before = open_fds()
        with pytest.raises(OSError) as err:
            ooc({"u0": seed})
        assert err.value.errno == expected_errno
        assert "ooc.fallback.runtime" not in runtime_counters()
        assert os.listdir(spill) == []
        if before is not None:
            assert open_fds() == before
        assert seed.cells == cells

    @pytest.mark.parametrize("failing_write", [2, 5])
    def test_enospc_raises_and_cleans_up(self, failing_write, tmp_path,
                                         monkeypatch, traced):
        # Write 2 is the seed copy's second tile, write 5 the first
        # sweep's second tile.
        real = os.pwrite
        calls = []

        def pwrite(fd, data, offset):
            calls.append(offset)
            if len(calls) == failing_write:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", pwrite)
        self.run_failing(tmp_path, monkeypatch, errno.ENOSPC)

    def test_short_write_raises(self, tmp_path, monkeypatch, traced):
        # Only the seed copy's middle tile comes up short, so the file
        # keeps its full length and no later read can notice the hole.
        real = os.pwrite
        calls = []

        def pwrite(fd, data, offset):
            calls.append(offset)
            return real(fd, data[:-1] if len(calls) == 2 else data,
                        offset)

        monkeypatch.setattr(os, "pwrite", pwrite)
        self.run_failing(tmp_path, monkeypatch, errno.EIO)

    def test_short_read_raises(self, tmp_path, monkeypatch, traced):
        real = os.preadv
        monkeypatch.setattr(
            os, "preadv",
            lambda fd, buffers, offset: real(fd, buffers, offset) - 8,
        )
        self.run_failing(tmp_path, monkeypatch, errno.EIO)


# Jacobi whose interior calls a program function: no block kernel can
# fetch an interpreter closure, so neither placement may attach.
JACOBI_CALLS_HALF = """
u0 = array ((1,1),(m,m))
  [ (i,j) := if i == 1 || i == m || j == 1 || j == m
             then 1.0 * (i + j) else 0.0
  | i <- [1..m], j <- [1..m] ];
half x = 0.5 * x;
step u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := 0.5 * half (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
main = iterate step u0 k
"""

JACOBI_CONVERGE_INPUT_SEED = JACOBI_INPUT_SEED.replace(
    "main = iterate step u0 k", "main = converge step u0 tol")


def jacobi_seed(m, cell_type):
    return FlatArray.from_list(((1, 1), (m, m)), [
        cell_type(i + j if i in (1, m) or j in (1, m) else 0)
        for i in range(1, m + 1) for j in range(1, m + 1)
    ])


class TestBlockPlacements:
    """dist row blocks and out-of-core row tiles share one placement
    hook at compile time and one admission check at run time."""

    def test_program_function_call_keeps_both_off(self):
        params = {"m": 8, "k": 3}
        oracle = repro.run_program(JACOBI_CALLS_HALF,
                                   bindings=dict(params))
        placements = [
            ("dist", {"dist": True, "workers": 2},
             "interpreter closures cannot ship to workers"),
            ("ooc", {"ooc": True, "options": CodegenOptions(tile=3)},
             "only scalars and arrays ride the streamed tile "
             "environment"),
        ]
        for prefix, kwargs, why in placements:
            program = compile_program(JACOBI_CALLS_HALF, params=params,
                                      **kwargs)
            assert (f"{prefix} 'main': step calls program function "
                    f"'half' — {why}") in program.report.fallbacks
            (plan,) = [s.iterate for s in program.steps if s.iterate]
            assert plan.dist is None and plan.ooc is None
            # The call also keeps the interior loop scalar, which is
            # the one-block placement's first reason.
            assert plan.block is None
            assert ("one-block placement refused (the block kernel leaves "
                    "loop(s) j scalar" in program.report.iterate[0])
            identical(program(dict(params)), oracle)

    def test_planned_ooc_rejects_dist_with_a_reason(self, traced):
        # Both placements admit the same seeds and out-of-core runs
        # first, so a dist plan next to it could never run.
        m = 8
        params = {"m": m, "tol": 1e-3}
        program = compile_program(
            JACOBI_CONVERGE_INPUT_SEED, params=params, dist=True,
            workers=2, ooc=True, options=CodegenOptions(tile=3))
        (plan,) = [s.iterate for s in program.steps if s.iterate]
        assert plan.ooc is not None and plan.dist is None
        assert ("dist 'main': out-of-core streaming is planned and runs "
                "first; it admits the same seeds, so dist would never "
                "run") in program.report.fallbacks
        assert not any("row block" in note
                       for note in program.report.dist)

        # A float seed streams.
        seed = jacobi_seed(m, float)
        got = program({"u0": seed})
        counters = runtime_counters()
        streamed(counters)
        assert not [name for name in counters if name.startswith("dist.")]
        identical(got, repro.run_program(
            JACOBI_CONVERGE_INPUT_SEED, bindings=dict(params, u0=seed)))

        # An int seed fails the admission check once, and the list
        # path runs.
        reset_runtime_counters()
        seed = jacobi_seed(m, int)
        got = program({"u0": seed})
        counters = runtime_counters()
        assert counters.get("ooc.fallback.runtime") == 1
        assert "ooc.tiles" not in counters
        assert "iterate.block.sweeps" not in counters
        assert not [name for name in counters if name.startswith("dist.")]
        identical(got, repro.run_program(
            JACOBI_CONVERGE_INPUT_SEED, bindings=dict(params, u0=seed)))

    @needs_cc
    @pytest.mark.parametrize("source, params", [
        (PROGRAM_JACOBI_STEPS, {"m": 8, "k": 5}),
        (PROGRAM_SOR, {"m": 8, "k": 5, "omega": 1.25}),
    ], ids=["jacobi", "sor"])
    def test_c_step_rejects_dist_with_a_reason(self, source, params,
                                               traced):
        # Dist blocks run the numpy block kernel; the C step in one
        # process is faster, so it keeps the binding.
        program = compile_program(source, params=params, dist=True,
                                  workers=2,
                                  options=CodegenOptions(backend="c"))
        (plan,) = [s.iterate for s in program.steps if s.iterate]
        assert plan.dist is None and plan.block is None
        assert plan.step.report.backend_used == "c"
        assert ("dist 'main': the step lowered to C, and dist blocks run "
                "the numpy block kernel — the C step in one process is "
                "faster") in program.report.fallbacks
        assert program.report.dist == []
        got = program(dict(params))
        counters = runtime_counters()
        assert not [name for name in counters if name.startswith("dist.")]
        # One native call for the seed binding ``u0``, then one per
        # sweep (Jacobi), or one for every sweep of the in-place native
        # loop (SOR).
        calls = 1 if plan.native_sweeps else params["k"]
        assert counters.get("backend.c.kernel_calls") == 1 + calls
        identical(got, repro.run_program(source, bindings=dict(params)))

    @needs_cc
    def test_c_step_streams_with_an_ooc_reason(self, traced):
        # Streaming keeps its memory bound; the report says the tiles
        # run the numpy block kernel instead of the C step.
        params = {"m": 8, "k": 5}
        program = compile_program(PROGRAM_JACOBI_STEPS, params=params,
                                  ooc=True,
                                  options=CodegenOptions(backend="c",
                                                         tile=3))
        (plan,) = [s.iterate for s in program.steps if s.iterate]
        assert plan.ooc is not None and plan.block is None
        assert ("ooc 'main': tiles run the numpy block kernel, not the C "
                "step — streaming keeps the memory bound it was asked "
                "for") in program.report.fallbacks
        got = program(dict(params))
        counters = runtime_counters()
        streamed(counters)
        # The seed binding ``u0`` is the only native call.
        assert counters.get("backend.c.kernel_calls") == 1
        identical(got, repro.run_program(PROGRAM_JACOBI_STEPS,
                                         bindings=dict(params)))
