"""Compilation of the §9 ``bigupd`` surface construct."""

import pytest

import repro
from repro import CompileError, FlatArray, evaluate
from repro.runtime import incremental


class TestSwap:
    def test_paper_form_optimal(self):
        # Shared j loop: the hoist point exists; one temp per column.
        swap = """
        bigupd a [* [ (i,j) := a!(k,j), (k,j) := a!(i,j) ]
                  | j <- [1..n] *]
        """
        params = {"n": 6, "i": 1, "k": 3}
        compiled = repro.compile(swap, strategy="bigupd", params=params)
        assert compiled.report.strategy == "inplace"
        base = [float(v) for v in range(24)]
        arr = FlatArray.from_list(((1, 1), (4, 6)), list(base))
        incremental.STATS.reset()
        out = compiled({"a": arr})
        want = list(base)
        for j in range(6):
            want[j], want[12 + j] = base[12 + j], base[j]
        assert out.to_list() == want
        assert incremental.STATS.cells_copied == 6

    def test_split_loops_fall_back_safely(self):
        # Two separate loops: no per-instance hoist point exists, so
        # the planner must degrade to whole-copy (still correct).
        swap = """
        bigupd a ([ (i,j) := a!(k,j) | j <- [1..n] ] ++
                  [ (k,j) := a!(i,j) | j <- [1..n] ])
        """
        params = {"n": 6, "i": 1, "k": 3}
        compiled = repro.compile(swap, strategy="bigupd", params=params)
        assert compiled.report.strategy == "inplace-copy"
        base = [float(v) for v in range(24)]
        arr = FlatArray.from_list(((1, 1), (4, 6)), list(base))
        out = compiled({"a": arr})
        want = list(base)
        for j in range(6):
            want[j], want[12 + j] = base[12 + j], base[j]
        assert out.to_list() == want


class TestBoundsFromInput:
    def test_runs_at_any_size(self):
        scale = "bigupd a [* i := 2.0 * a!i | i <- [1..n] *]"
        compiled = repro.compile(scale, strategy="bigupd", params={"n": 4})
        arr = FlatArray.from_list((1, 4), [1.0, 2.0, 3.0, 4.0])
        out = compiled({"a": arr})
        assert out.to_list() == [2.0, 4.0, 6.0, 8.0]
        assert out.bounds == arr.bounds

    def test_untouched_cells_keep_values(self):
        partial = "bigupd a [* i := 0.0 | i <- [2..3] *]"
        compiled = repro.compile(partial, strategy="bigupd", params={})
        arr = FlatArray.from_list((1, 5), [9.0] * 5)
        out = compiled({"a": arr})
        assert out.to_list() == [9.0, 0.0, 0.0, 9.0, 9.0]

    def test_offset_bounds_respected(self):
        scale = "bigupd a [* i := a!i + 1.0 | i <- [lo..hi] *]"
        compiled = repro.compile(scale, strategy="bigupd",
                                 params={"lo": -2, "hi": 0})
        arr = FlatArray.from_list((-3, 1), [0.0] * 5)
        out = compiled({"a": arr})
        assert out.to_list() == [0.0, 1.0, 1.0, 1.0, 0.0]


class TestSemantics:
    def test_reads_see_original_values(self):
        # bigupd: every read is of the ORIGINAL array.
        shift = "bigupd a [* i := a!(i-1) + a!(i+1) | i <- [2..n-1] *]"
        n = 6
        compiled = repro.compile(shift, strategy="bigupd", params={"n": n})
        cells = [float(k * k) for k in range(1, n + 1)]
        arr = FlatArray.from_list((1, n), list(cells))
        out = compiled({"a": arr})
        want = list(cells)
        for i in range(2, n):
            want[i - 1] = cells[i - 2] + cells[i]
        assert out.to_list() == want

    def test_matches_interpreter_bigupd(self):
        src = """
        let a = array (1,5) [ i := i | i <- [1..5] ]
        in bigupd a [* i := a!1 + a!i | i <- [2..4] *]
        """
        oracle = evaluate(src, deep=False)
        update = "bigupd a [* i := a!1 + a!i | i <- [2..4] *]"
        compiled = repro.compile(update, strategy="bigupd", params={})
        arr = FlatArray.from_list((1, 5), [1, 2, 3, 4, 5])
        out = compiled({"a": arr})
        assert out.to_list() == oracle.to_list()


class TestErrors:
    def test_not_a_bigupd(self):
        with pytest.raises(CompileError):
            repro.compile("array (1,3) [ i := 0 | i <- [1..3] ]",
                          strategy="bigupd")

    def test_computed_old_array_rejected(self):
        with pytest.raises(CompileError):
            repro.compile("bigupd (f x) [ 1 := 0 ]", strategy="bigupd")


#: A ``bigupd`` whose stores go through an index array ``p`` (its
#: values spliced in per case).  Every read sees the *original* ``a``.
INDIRECT_UPDATE = """
a = array (1,4) [ i := 1.0 * i | i <- [1..4] ];
p = array (1,4) ([1 := {0}] ++ [2 := {1}] ++ [3 := {2}] ++ [4 := {3}]);
b = bigupd a [ (p!i) := a!i * 10.0 | i <- [1..4] ];
main = b
"""


def _outcome(run):
    try:
        return run().to_list()
    except Exception as exc:  # the oracle's error is part of the story
        return exc


class TestIndirectUpdateMatchesOracle:
    """In-place stores through an index array can kill any cell: the
    plan must fall back to a whole copy, and an out-of-range or
    non-int index must fail as the oracle does, never wrap."""

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("values", [
        (2, 1, 4, 3),    # a permutation: reads before overwrites
        (4, 3, 2, 1),
        (1, 1, 2, 2),    # duplicates: the later store wins
        (0, 2, 3, 4),    # below the bounds (python would wrap to -1)
        (1, 2, 3, 9),    # above the bounds
        (1, 2, 3, 1.5),  # not an int
    ], ids=["swaps", "reverse", "duplicates", "below", "above", "float"])
    def test_compiled_matches_oracle(self, values, fuse):
        src = INDIRECT_UPDATE.format(*values)
        want = _outcome(lambda: repro.run_program(src))
        program = repro.compile_program(src, fuse=fuse)
        got = _outcome(lambda: program({}))
        if isinstance(want, Exception):
            assert isinstance(got, type(want)), got
        else:
            assert got == want

    def test_update_compiles_to_checked_whole_copy(self):
        compiled = repro.compile(
            "bigupd a [ (p!i) := a!i * 10.0 | i <- [1..n] ]",
            params={"n": 4},
        )
        report = compiled.report
        assert report.strategy == "inplace-copy"
        assert report.checks.bounds_checks
        assert "_as_index(" in compiled.source
