"""Differential tests: cache-blocked (tiled) C kernels vs the oracle.

Tiling reorders the iteration space into blocks; §5 direction vectors
say when that reordering preserves every dependence.  Only the C
backend blocks loops (python loops are interpreter-bound, so a python
unit runs untiled with a reasoned fallback).  These tests pin the
other half of the contract: whenever ``plan_tiling`` accepts a nest,
the C kernel's blocked loops are *bit-identical* to the untiled python
kernel and to the lazy oracle — including tile sizes that do not
divide the extent, degenerate 1x1 tiles, and tiles larger than the
array.  The differential cases need a C toolchain and skip without
one, as ``tests/backends/test_differential.py`` does; the plan's
kinds, sizes and reasons are asserted either way.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.backends.native import toolchain_status
from repro.codegen.emit import CodegenOptions
from repro.codegen.support import FlatArray
from repro.core.tiling import plan_tiling
from repro.kernels import PROGRAM_SOR, PROGRAM_STENCIL_CHAIN
from repro.runtime.bounds import Bounds

NO_CC = toolchain_status() is not None
needs_cc = pytest.mark.skipif(
    NO_CC, reason=f"native toolchain unavailable: {toolchain_status()}"
)

#: Fused-style 1-D smoothing stencil with boundary clauses folded in.
STENCIL = (
    "array (1,m) [ i := if i == 1 then b!1 else "
    "if i == m then b!m else (b!(i-1) + b!i + b!(i+1)) / 3.0 "
    "| i <- [1..m] ]"
)

#: 2-D Gauss-Seidel-style recurrence: all-'<'/'=' directions, so the
#: nest tiles in lexicographic tile order ("lex" kind).
GAUSS_SEIDEL = (
    "letrec* a = array ((1,1),(m,m)) [ (i,j) := "
    "if i == 1 || j == 1 then 1.0 else "
    "(a!(i-1,j) + a!(i,j-1)) / 2.0 "
    "| i <- [1..m], j <- [1..m] ] in a"
)

#: A backward-running recurrence: tiles would run against it.
BACKWARD = ("letrec* a = array (1,8) [ i := "
            "if i == 8 then 1.0 else a!(i+1) + 1.0 "
            "| i <- [1..8] ] in a")


def arr(vals, lo=1):
    return FlatArray(Bounds(lo, lo + len(vals) - 1), list(vals))


def input_for(m):
    return arr([float((7 * k) % 11) - 3.0 for k in range(m)])


def cells_1d(result, m):
    return [result[i] for i in range(1, m + 1)]


def cells_2d(result, m):
    return [result[(i, j)]
            for i in range(1, m + 1) for j in range(1, m + 1)]


def c_tiles(src, params, tile):
    """Compile for C tile loops; the C backend must have run them."""
    compiled = repro.compile(src, params=params,
                             options=CodegenOptions(tile=tile, backend="c"))
    assert compiled.report.backend_used == "c", compiled.report.backend
    assert compiled.report.tiling.ok
    assert "_ts0" in compiled.source  # the tile loops, in the C source
    return compiled


def c_plan(src, params, tile):
    """``plan_tiling``'s verdict for a C unit; needs no toolchain."""
    report = repro.analyze(src, params)
    return plan_tiling(report.schedule, report.edges, mode="thunkless",
                       tile=tile)


class TestTiledStencil:
    @needs_cc
    @pytest.mark.parametrize("tile", [1, 3, 5, 100])
    def test_bit_identical_all_tile_shapes(self, tile):
        # 13 is prime: no tile size above divides it evenly, 1 is the
        # degenerate tile, 100 swallows the whole array.
        m = 13
        b = input_for(m)
        tiled = c_tiles(STENCIL, {"m": m}, tile)
        assert tiled.report.tiling.kind == "rect"
        plain = repro.compile(STENCIL, params={"m": m})
        oracle = repro.evaluate(STENCIL, {"m": m, "b": b})
        got = cells_1d(tiled({"b": b}), m)
        assert got == cells_1d(plain({"b": b}), m)
        assert got == cells_1d(oracle, m)

    @needs_cc
    def test_auto_tile_matches_untiled(self):
        m = 17
        b = input_for(m)
        tiled = c_tiles(STENCIL, {"m": m}, "auto")
        assert tiled.report.tiling.source == "auto"
        plain = repro.compile(STENCIL, params={"m": m})
        assert cells_1d(tiled({"b": b}), m) == cells_1d(plain({"b": b}), m)

    @needs_cc
    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 24), tile=st.integers(1, 30))
    def test_random_sizes(self, m, tile):
        b = input_for(m)
        tiled = c_tiles(STENCIL, {"m": m}, tile)
        plain = repro.compile(STENCIL, params={"m": m})
        assert cells_1d(tiled({"b": b}), m) == cells_1d(plain({"b": b}), m)


class TestTiledGaussSeidel:
    @needs_cc
    @pytest.mark.parametrize("tile", [1, 2, 4, 50])
    def test_lex_tiles_bit_identical(self, tile):
        m = 9
        tiled = c_tiles(GAUSS_SEIDEL, {"m": m}, tile)
        assert tiled.report.tiling.kind == "lex"
        plain = repro.compile(GAUSS_SEIDEL, params={"m": m})
        oracle = repro.evaluate(GAUSS_SEIDEL, {"m": m})
        got = cells_2d(tiled({}), m)
        assert got == cells_2d(plain({}), m)
        assert got == cells_2d(oracle, m)

    @needs_cc
    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 10), tile=st.integers(1, 12))
    def test_random_sizes(self, m, tile):
        tiled = c_tiles(GAUSS_SEIDEL, {"m": m}, tile)
        plain = repro.compile(GAUSS_SEIDEL, params={"m": m})
        assert cells_2d(tiled({}), m) == cells_2d(plain({}), m)


class TestPlans:
    """What ``plan_tiling`` decides for a C unit, with or without cc."""

    @pytest.mark.parametrize("tile", [1, 3, 100])
    def test_stencil_is_rect_with_the_explicit_edge(self, tile):
        plan = c_plan(STENCIL, {"m": 13}, tile)
        assert plan.ok and plan.kind == "rect"
        assert (plan.loop_vars, plan.sizes) == (("i",), (tile,))
        assert plan.source == "explicit"

    def test_gauss_seidel_is_lex_on_both_axes(self):
        plan = c_plan(GAUSS_SEIDEL, {"m": 9}, 4)
        assert plan.ok and plan.kind == "lex"
        assert (plan.loop_vars, plan.sizes) == (("i", "j"), (4, 4))

    def test_auto_sizes_come_from_the_cache_model(self):
        plan = c_plan(STENCIL, {"m": 17}, "auto")
        assert plan.ok and plan.source == "auto"
        assert plan.sizes[0] >= 8

    def test_python_units_are_never_tiled(self):
        # The nest is legal (the C plan above accepts it); the python
        # emitter still runs it untiled, and says so once.
        compiled = repro.compile(STENCIL, params={"m": 13},
                                 options=CodegenOptions(tile=4))
        tiling = compiled.report.tiling
        assert not tiling.ok
        assert tiling.note.startswith("only the C backend blocks loops")
        assert "_ts0" not in compiled.source
        assert [note for note in compiled.report.notes
                if note.startswith("til")] == [
            f"tile fallback: {tiling.note}"]

    def test_a_c_fallback_names_the_backend_reason(self):
        # The C tier refuses an environment function call, so the
        # python emitter runs the nest untiled, and the report must
        # not claim the tiles the legality pass accepted.
        src = "array (1,m) [ i := f (b!i) | i <- [1..m] ]"
        compiled = repro.compile(
            src, params={"m": 6},
            options=CodegenOptions(tile=2, backend="c"))
        assert compiled.report.backend_used == "python"
        tiling = compiled.report.tiling
        assert not tiling.ok
        (reason,) = compiled.report.backend
        assert tiling.note == f"{reason}, which blocks no loops"
        assert not any(note.startswith("tiled:")
                       for note in compiled.report.notes)
        b = input_for(6)
        got = compiled({"b": b, "f": lambda x: 2.0 * x})
        assert cells_1d(got, 6) == [2.0 * x for x in cells_1d(b, 6)]


class TestTiledPrograms:
    def params_match(self, src, params, tile):
        tiled = repro.compile_program(
            src, params=params,
            options=CodegenOptions(tile=tile, backend="c"),
        )
        plain = repro.compile_program(src, params=params)
        got, want = tiled({}), plain({})
        oracle = repro.run_program(src, bindings=dict(params))
        assert got.bounds == want.bounds
        assert got.bounds == oracle.bounds
        for subscript in got.bounds.range():
            assert got.at(subscript) == want.at(subscript)
            assert got.at(subscript) == oracle.at(subscript)
        return tiled

    @needs_cc
    @pytest.mark.parametrize("tile", [1, 3, "auto"])
    def test_stencil_chain(self, tile):
        tiled = self.params_match(PROGRAM_STENCIL_CHAIN, {"m": 10}, tile)
        assert any("_ts0" in src for src in tiled.sources().values())

    def test_sor_rejects_with_reason_but_stays_identical(self):
        # The SOR step's schedule (boundary clauses around the
        # interior sweep) is not a perfect chain — the binding must
        # fall back untiled, say why, and still match the oracle.
        tiled = self.params_match(
            PROGRAM_SOR, {"m": 8, "k": 5, "omega": 1.25}, 4
        )
        tile_falls = [f for f in tiled.report.fallbacks
                      if f.startswith("tile 'main'")]
        assert tile_falls
        assert "perfect loop chain" in tile_falls[0]


class TestTilingRejections:
    def test_backward_nest_rejected(self):
        compiled = repro.compile(
            BACKWARD, options=CodegenOptions(tile=4, backend="c"))
        assert not compiled.report.tiling.ok
        assert "backward" in compiled.report.tiling.note
        # ... and the untiled kernel still matches the oracle.
        oracle = repro.evaluate(BACKWARD, {})
        out = compiled({})
        assert cells_1d(out, 8) == cells_1d(oracle, 8)

    def test_accumulate_rejected(self):
        src = ("accumArray (\\a b -> a + b) 0 (1,5) "
               "[ (k!i) := 1 | i <- [1..10] ]")
        compiled = repro.compile(
            src, options=CodegenOptions(tile=4, backend="c"))
        assert not compiled.report.tiling.ok
        assert "re-associate" in compiled.report.tiling.note

    def test_rejection_never_changes_results(self):
        plain = repro.compile(BACKWARD)
        tiled = repro.compile(
            BACKWARD, options=CodegenOptions(tile=3, backend="c"))
        assert cells_1d(tiled({}), 8) == cells_1d(plain({}), 8)
