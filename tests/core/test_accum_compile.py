"""Accumulated-array compilation (the paper's §3/§7 further-work item)."""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import CompileError, evaluate
from repro.core.accum import classify_combiner, source_schedule
from repro.lang.parser import parse_expr


def oracle_list(src, bindings=None):
    a = evaluate(src, bindings=bindings, deep=False)
    return a.to_list()


class TestClassifier:
    @pytest.mark.parametrize("src,expected", [
        ("\\a b -> a + b", ("commutative", "+")),
        ("\\a b -> b + a", ("commutative", "+")),
        ("\\x y -> x * y", ("commutative", "*")),
        ("min", ("commutative", "min")),
        ("max", ("commutative", "max")),
        ("\\a b -> min a b", ("commutative", "min")),
        ("\\a b -> max b a", ("commutative", "max")),
    ])
    def test_commutative_shapes(self, src, expected):
        assert classify_combiner(parse_expr(src)) == expected

    @pytest.mark.parametrize("src", [
        "\\a b -> a - b",
        "\\a b -> a * 10 + b",
        "\\a b -> a + a",       # ignores one argument: not the pattern
        "\\a b -> a / b",
        "f",
    ])
    def test_ordered_shapes(self, src):
        kind, _ = classify_combiner(parse_expr(src))
        assert kind == "ordered"


class TestCommutativeCompilation:
    def test_histogram(self):
        src = """
        letrec h = accumArray (\\a b -> a + b) 0 (0,9)
          [ mod (k * 7) 10 := 1 | k <- [1..100] ]
        in h
        """
        compiled = repro.compile(src, strategy="accum")
        assert compiled.report.strategy == "accumulate"
        assert compiled({}).to_list() == oracle_list(src)

    def test_default_value_fills(self):
        src = "letrec a = accumArray (\\x y -> x + y) 7 (1,5) [ 3 := 1 ] in a"
        compiled = repro.compile(src, strategy="accum")
        assert compiled({}).to_list() == [7, 7, 8, 7, 7]

    def test_max_accumulation(self):
        src = """
        letrec m = accumArray max 0 (0,3)
          [ mod k 4 := k | k <- [1..20] ]
        in m
        """
        compiled = repro.compile(src, strategy="accum")
        assert compiled({}).to_list() == oracle_list(src)

    def test_two_dimensional(self):
        src = """
        letrec g = accumArray (\\a b -> a + b) 0 ((0,0),(1,2))
          [ (mod k 2, mod k 3) := k | k <- [1..12] ]
        in g
        """
        compiled = repro.compile(src, strategy="accum")
        assert compiled({}).to_list() == oracle_list(src)

    def test_symbolic_size(self):
        src = """
        letrec h = accumArray (\\a b -> a + b) 0 (1,n)
          [ i := i | i <- [1..n] ]
        in h
        """
        compiled = repro.compile(src, strategy="accum")
        assert compiled({"n": 6}).to_list() == [1, 2, 3, 4, 5, 6]


class TestOrderedCompilation:
    def test_fold_order_preserved(self):
        src = """
        letrec d = accumArray (\\a b -> a * 10 + b) 0 (1,3)
          [* [ mod i 3 + 1 := i ] | i <- [1..9] *]
        in d
        """
        compiled = repro.compile(src, strategy="accum")
        assert any("source order" in n for n in compiled.report.notes)
        assert compiled({}).to_list() == oracle_list(src)

    def test_subtraction_combiner(self):
        src = """
        letrec d = accumArray (\\a b -> a - b) 100 (1,2)
          [ 1 := k | k <- [1..4] ]
        in d
        """
        compiled = repro.compile(src, strategy="accum")
        assert compiled({}).to_list() == [100 - 1 - 2 - 3 - 4, 100]

    def test_collision_free_ordered_still_reorderable(self):
        # Without collisions the combiner's order never matters.
        src = """
        letrec d = accumArray (\\a b -> a - b) 0 (1,5)
          [ i := i | i <- [1..5] ]
        in d
        """
        compiled = repro.compile(src, strategy="accum")
        assert any("reorderable" in n for n in compiled.report.notes)
        assert compiled({}).to_list() == [-1, -2, -3, -4, -5]

    def test_env_combiner(self):
        src = """
        letrec e = accumArray g 1 (1,2) [ 1 := k | k <- [2..4] ]
        in e
        """
        compiled = repro.compile(src, strategy="accum")
        out = compiled({"g": lambda a, b: a * b})
        assert out.to_list() == [24, 1]

    def test_rejects_non_function(self):
        with pytest.raises(CompileError):
            repro.compile(
                "letrec e = accumArray (1 + 2) 0 (1,1) [ 1 := 1 ] in e",
                strategy="accum",
            )

    def test_rejects_non_accum(self):
        with pytest.raises(CompileError):
            repro.compile("letrec a = array (1,1) [ 1 := 1 ] in a",
                          strategy="accum")


class TestSourceSchedule:
    def test_replays_source_order(self):
        from repro.comprehension.build import (
            build_array_comp,
            find_array_comp,
        )
        from repro.kernels import WAVEFRONT

        name, b, p = find_array_comp(parse_expr(WAVEFRONT))
        comp = build_array_comp(name, b, p, {"n": 5})
        schedule = source_schedule(comp)
        assert schedule.ok
        assert schedule.clause_order() == [0, 1, 2]
        assert all(
            d == "forward"
            for dirs in schedule.loop_directions().values()
            for d in dirs
        )


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    targets=st.lists(st.integers(1, 4), min_size=1, max_size=12),
    scale=st.integers(1, 9),
)
def test_ordered_accumulation_matches_foldl(n, targets, scale):
    """Random colliding updates with a non-commutative combiner must
    reproduce the exact foldl order."""
    pairs = ", ".join(f"{t} := {scale * (p + 1)}"
                      for p, t in enumerate(targets))
    src = (
        f"letrec d = accumArray (\\a b -> a * 100 + b) 0 (1,4) "
        f"[{pairs}] in d"
    )
    compiled = repro.compile(src, strategy="accum")
    assert compiled({}).to_list() == oracle_list(src)
