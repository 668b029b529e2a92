"""Guarded dual-schedule kernels: fast/fallback selection and errors.

The generated module runs the O(n) subscript verifier per call; a
clean index array takes the unchecked fast path, anything else replays
the loops with the full check battery and fails with the oracle's
error — never a raw ``IndexError`` or a silently wrapped write.
"""

import pytest

import repro
from repro.codegen.emit import CodegenOptions
from repro.codegen.support import VERIFY_STATS, FlatArray
from repro.runtime.bounds import Bounds
from repro.runtime.errors import (
    BoundsError,
    IndexTypeError,
    WriteCollisionError,
)

SCATTER = "letrec* a = array (1,8) [ (p!i) := b!i | i <- [1..8] ] in a"
HIST = "accumArray (\\a b -> a + b) 0 (1,5) [ (k!i) := 1 | i <- [1..10] ]"


def arr(vals, lo=1):
    return FlatArray(Bounds(lo, lo + len(vals) - 1), list(vals))


def cells(result, lo, hi):
    return [result[i] for i in range(lo, hi + 1)]


class TestGuardedScatter:
    def test_strategy_is_guarded(self):
        compiled = repro.compile(SCATTER)
        assert compiled.report.strategy == "guarded"
        assert compiled.report.subscripts.guarded
        assert "_verify" in compiled.source

    def test_valid_permutation_takes_fast_path(self):
        compiled = repro.compile(SCATTER)
        p = arr([3, 1, 4, 2, 8, 6, 5, 7])
        b = arr([10, 20, 30, 40, 50, 60, 70, 80])
        VERIFY_STATS.reset()
        out = compiled({"p": p, "b": b})
        assert VERIFY_STATS.fast_path == 1
        assert VERIFY_STATS.fallbacks == 0
        oracle = repro.evaluate(SCATTER, {"p": p, "b": b})
        assert cells(out, 1, 8) == cells(oracle, 1, 8)

    def test_duplicate_index_raises_collision(self):
        compiled = repro.compile(SCATTER)
        p = arr([3, 1, 4, 2, 8, 6, 5, 3])
        b = arr([10, 20, 30, 40, 50, 60, 70, 80])
        VERIFY_STATS.reset()
        with pytest.raises(WriteCollisionError):
            compiled({"p": p, "b": b})
        assert VERIFY_STATS.fallbacks == 1

    def test_out_of_bounds_raises_loudly(self):
        compiled = repro.compile(SCATTER)
        p = arr([3, 1, 4, 2, 8, 6, 5, 9])
        b = arr([10, 20, 30, 40, 50, 60, 70, 80])
        with pytest.raises(BoundsError):
            compiled({"p": p, "b": b})

    def test_negative_index_never_wraps(self):
        # Python list indexing would silently wrap -1; the fallback
        # path must raise instead.
        compiled = repro.compile(SCATTER)
        p = arr([3, 1, 4, 2, 8, 6, 5, -1])
        b = arr([10, 20, 30, 40, 50, 60, 70, 80])
        with pytest.raises(BoundsError):
            compiled({"p": p, "b": b})

    def test_non_int_index_raises_type_error(self):
        compiled = repro.compile(SCATTER)
        b = arr([10, 20, 30, 40, 50, 60, 70, 80])
        p = arr([3, 1, 4, 2, 8, 6, 5, 7.0])
        with pytest.raises(TypeError):
            compiled({"p": p, "b": b})

    def test_bool_index_raises_type_error(self):
        compiled = repro.compile(SCATTER)
        b = arr([10, 20, 30, 40, 50, 60, 70, 80])
        p = arr([3, 1, 4, 2, 8, 6, 5, True])
        with pytest.raises(IndexTypeError):
            compiled({"p": p, "b": b})

    def test_verifier_never_raises_on_oversized_index_array(self):
        # Nine-cell index array whose *read* slice (cells 1..8) is a
        # valid permutation, but whose extra cell 0 holds an
        # out-of-range value.  The whole-array scan is conservative,
        # so the call falls back to the checked schedule — and
        # succeeds, because the loops never read the bad cell.
        compiled = repro.compile(SCATTER)
        p = arr([0, 3, 1, 4, 2, 8, 6, 5, 7], lo=0)
        b = arr([10, 20, 30, 40, 50, 60, 70, 80])
        VERIFY_STATS.reset()
        out = compiled({"p": p, "b": b})
        assert VERIFY_STATS.fallbacks == 1
        oracle = repro.evaluate(SCATTER, {"p": p, "b": b})
        assert cells(out, 1, 8) == cells(oracle, 1, 8)

    def test_parallel_rides_the_fast_path(self):
        compiled = repro.compile(
            SCATTER,
            options=CodegenOptions(parallel=True, parallel_threads=4),
        )
        assert compiled.report.strategy == "guarded"
        p = arr([3, 1, 4, 2, 8, 6, 5, 7])
        b = arr([10, 20, 30, 40, 50, 60, 70, 80])
        out = compiled({"p": p, "b": b})
        oracle = repro.evaluate(SCATTER, {"p": p, "b": b})
        assert cells(out, 1, 8) == cells(oracle, 1, 8)

    def test_explicit_checks_disable_guarding(self):
        compiled = repro.compile(
            SCATTER, options=CodegenOptions(bounds_checks=True,
                                            collision_checks=True,
                                            empties_check=True),
        )
        assert compiled.report.strategy == "thunkless"
        p = arr([3, 1, 4, 2, 8, 6, 5, 3])
        b = arr([10, 20, 30, 40, 50, 60, 70, 80])
        with pytest.raises(WriteCollisionError):
            compiled({"p": p, "b": b})


class TestGuardedAccum:
    def test_histogram_fast_path(self):
        compiled = repro.compile(HIST)
        assert compiled.report.strategy == "accumulate"
        assert compiled.report.subscripts.guarded
        k = arr([1, 2, 2, 3, 3, 3, 4, 5, 5, 1])
        VERIFY_STATS.reset()
        out = compiled({"k": k})
        assert VERIFY_STATS.fast_path == 1
        assert cells(out, 1, 5) == [2, 2, 3, 1, 2]

    def test_duplicates_accumulate_not_collide(self):
        compiled = repro.compile(HIST)
        k = arr([1] * 10)
        out = compiled({"k": k})
        assert cells(out, 1, 5) == [10, 0, 0, 0, 0]

    def test_accum_out_of_bounds_raises(self):
        compiled = repro.compile(HIST)
        k = arr([1, 2, 2, 3, 3, 3, 4, 5, 5, 6])
        VERIFY_STATS.reset()
        with pytest.raises(BoundsError):
            compiled({"k": k})
        assert VERIFY_STATS.fallbacks == 1

    def test_accum_non_int_raises(self):
        compiled = repro.compile(HIST)
        k = arr([1, 2, 2, 3, 3, 3, 4, 5, 5, 2.5])
        with pytest.raises(TypeError):
            compiled({"k": k})

    def test_matches_oracle(self):
        compiled = repro.compile(HIST)
        k = arr([5, 4, 3, 2, 1, 1, 2, 3, 4, 5])
        out = compiled({"k": k})
        oracle = repro.evaluate(HIST, {"k": k})
        assert cells(out, 1, 5) == cells(oracle, 1, 5)


class TestEdgeShapes:
    def test_empty_index_array(self):
        src = ("letrec* a = array (1,n) "
               "[ (p!i) := b!i | i <- [1..n] ] in a")
        compiled = repro.compile(src, params={"n": 0})
        out = compiled({
            "p": FlatArray(Bounds(1, 0), []),
            "b": FlatArray(Bounds(1, 0), []),
        })
        assert out.bounds.size() == 0

    def test_single_element(self):
        src = ("letrec* a = array (1,1) "
               "[ (p!i) := b!i | i <- [1..1] ] in a")
        compiled = repro.compile(src)
        out = compiled({"p": arr([1]), "b": arr([42])})
        assert out[1] == 42

    def test_single_element_out_of_bounds(self):
        src = ("letrec* a = array (1,1) "
               "[ (p!i) := b!i | i <- [1..1] ] in a")
        compiled = repro.compile(src)
        with pytest.raises(BoundsError):
            compiled({"p": arr([2]), "b": arr([42])})

    def test_scatter_vs_accum_on_duplicates(self):
        # The same duplicate key array: an error for the scatter,
        # semantics for the accumulation.
        scatter = repro.compile(
            "letrec* a = array (1,5) [ (k!i) := 1 | i <- [1..5] ] in a"
        )
        accum = repro.compile(
            "accumArray (\\a b -> a + b) 0 (1,5) "
            "[ (k!i) := 1 | i <- [1..5] ]"
        )
        k = arr([2, 2, 3, 4, 5])
        with pytest.raises(WriteCollisionError):
            scatter({"k": k})
        assert cells(accum({"k": k}), 1, 5) == [0, 2, 1, 1, 1]


class TestReporting:
    def test_explain_has_subscript_area(self):
        compiled = repro.compile(SCATTER, explain=True)
        subs = compiled.explanation.by_area("subscript")
        assert subs
        assert any("guarded kernel" in d.subject for d in subs)

    def test_summary_mentions_subscripts(self):
        compiled = repro.compile(SCATTER)
        assert "subscript" in compiled.report.summary()

    def test_unguardable_write_compiles_checked(self):
        # Opaque inner subscript: no verifier applies, so the kernel
        # carries per-store checks and still fails loudly when the
        # computed write position lands out of bounds.
        src = ("letrec* a = array (1,4) "
               "[ (p!(q!i)) := 1 | i <- [1..4] ] in a")
        compiled = repro.compile(src)
        assert compiled.report.strategy == "thunkless"
        assert compiled.report.checks.bounds_checks
        q = arr([1, 2, 3, 4])
        with pytest.raises(BoundsError):
            compiled({"p": arr([1, 2, 3, 9]), "q": q})
        with pytest.raises(TypeError):
            compiled({"p": arr([1, 2, 3, 3.5]), "q": q})

    def test_fingerprint_salt_bumped(self):
        from repro.service.fingerprint import PIPELINE_SALT

        assert PIPELINE_SALT == "repro-pipeline/12"
