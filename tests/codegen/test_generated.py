"""Generated code: thunkless, thunked, and in-place emitters."""

import pytest

import repro
from repro import CodegenOptions, FlatArray, evaluate
from repro.codegen.support import CHECK_STATS
from repro.runtime import incremental
from repro.runtime.errors import UndefinedElementError, WriteCollisionError
from repro.runtime.thunks import STATS as THUNK_STATS


def oracle_list(src, bindings=None):
    a = evaluate(src, bindings=bindings, deep=False)
    return [a.at(s) for s in a.bounds.range()]


class TestThunkless:
    def test_matches_oracle_on_kernels(self):
        from repro.kernels import SQUARES, STRIDE3, WAVEFRONT

        for src, params in [
            (SQUARES, {"n": 12}),
            (WAVEFRONT, {"n": 7}),
            (STRIDE3, {}),
        ]:
            compiled = repro.compile(src, strategy="array", params=params)
            assert compiled.report.strategy == "thunkless"
            assert compiled(params).to_list() == oracle_list(src, params)

    def test_no_thunks_allocated(self):
        from repro.kernels import WAVEFRONT

        compiled = repro.compile(WAVEFRONT, strategy="array", params={"n": 10})
        THUNK_STATS.reset()
        compiled({"n": 10})
        assert THUNK_STATS.created == 0

    def test_checks_elided_when_proved(self):
        from repro.kernels import WAVEFRONT

        compiled = repro.compile(WAVEFRONT, strategy="array", params={"n": 6})
        assert not compiled.report.checks.collision_checks
        assert not compiled.report.checks.empties_check
        CHECK_STATS.reset()
        compiled({"n": 6})
        assert CHECK_STATS.collision_checks == 0
        assert CHECK_STATS.bounds_checks == 0

    def test_forced_checks_counted(self):
        from repro.kernels import WAVEFRONT

        options = CodegenOptions(
            bounds_checks=True, collision_checks=True, empties_check=True
        )
        compiled = repro.compile(WAVEFRONT, strategy="array", params={"n": 6},
                                 options=options)
        CHECK_STATS.reset()
        compiled({"n": 6})
        assert CHECK_STATS.collision_checks == 36
        assert CHECK_STATS.bounds_checks == 36
        assert CHECK_STATS.empty_checks == 36

    def test_runtime_collision_check_fires(self):
        src = "letrec a = array (1,9) [* [ mod i 3 + 1 := i ] | i <- [1..4] *] in a"
        compiled = repro.compile(src, strategy="array")
        assert compiled.report.checks.collision_checks
        with pytest.raises(WriteCollisionError):
            compiled({})

    def test_runtime_empties_check_fires(self):
        src = "letrec a = array (1,n) [ i := 0 | i <- [1..n-1] ] in a"
        # symbolic: checks compiled
        compiled = repro.compile(src, strategy="array")
        with pytest.raises(UndefinedElementError):
            compiled({"n": 5})

    def test_runtime_bounds_parameterized(self):
        # Compile once with symbolic n, run at several sizes.
        src = "letrec a = array (1,n) [ i := i * i | i <- [1..n] ] in a"
        compiled = repro.compile(src, strategy="array")
        for n in (1, 4, 9):
            out = compiled({"n": n})
            assert out.to_list() == [i * i for i in range(1, n + 1)]

    def test_free_function_from_env(self):
        src = "letrec a = array (1,5) [ i := f i | i <- [1..5] ] in a"
        compiled = repro.compile(src, strategy="array", params={})
        out = compiled({"f": lambda x: x * 100})
        assert out.to_list() == [100, 200, 300, 400, 500]

    def test_other_array_inputs(self):
        src = """
        letrec y = array (1,4) [ i := 2 * x!i + x!1 | i <- [1..4] ]
        in y
        """
        x = FlatArray.from_list((1, 4), [1, 2, 3, 4])
        compiled = repro.compile(src, strategy="array", params={})
        assert compiled({"x": x}).to_list() == [3, 5, 7, 9]

    def test_zero_trip_loops(self):
        src = """
        letrec a = array (1,3)
          ([ i := 1 | i <- [1..3] ] ++ [ i := 2 | i <- [5..4] ])
        in a
        """
        compiled = repro.compile(src, strategy="array", params={})
        assert compiled({}).to_list() == [1, 1, 1]


class TestThunked:
    def test_matches_thunkless(self):
        from repro.kernels import WAVEFRONT

        thunked = repro.compile(WAVEFRONT, strategy="array", params={"n": 6},
                                force_strategy="thunked")
        thunkless = repro.compile(WAVEFRONT, strategy="array", params={"n": 6})
        assert thunked({"n": 6}).to_list() == thunkless({"n": 6}).to_list()

    def test_really_allocates_thunks(self):
        from repro.kernels import WAVEFRONT

        thunked = repro.compile(WAVEFRONT, strategy="array", params={"n": 6},
                                force_strategy="thunked")
        THUNK_STATS.reset()
        thunked({"n": 6})
        assert THUNK_STATS.created >= 36

    def test_fallback_on_unschedulable(self):
        from repro.kernels import CYCLIC_FALLBACK

        compiled = repro.compile(CYCLIC_FALLBACK, strategy="array")
        assert compiled.report.strategy == "thunked"
        assert compiled({}).to_list() == oracle_list(CYCLIC_FALLBACK)

    def test_force_thunkless_on_unschedulable_raises(self):
        from repro.kernels import CYCLIC_FALLBACK
        from repro import CompileError

        with pytest.raises(CompileError):
            repro.compile(CYCLIC_FALLBACK, strategy="array",
                          force_strategy="thunkless")

    def test_guards_respected(self):
        src = """
        letrec a = array (1,6)
          ([ i := 1 | i <- [1..6], mod i 2 == 0 ] ++
           [ i := 0 | i <- [1..6], mod i 2 == 1 ])
        in a
        """
        compiled = repro.compile(src, strategy="array",
                                 force_strategy="thunked")
        assert compiled({}).to_list() == [0, 1, 0, 1, 0, 1]


class TestInplace:
    def test_swap_copy_count_matches_hand_code(self):
        from repro.kernels import SWAP, ref_swap

        params = {"m": 6, "n": 8, "i": 2, "k": 5}
        compiled = repro.compile(SWAP, strategy="inplace", old_array="a",
                                 params=params)
        base = [float(v) for v in range(48)]
        arr = FlatArray.from_list(((1, 1), (6, 8)), list(base))
        incremental.STATS.reset()
        out = compiled({"a": arr})
        assert out.to_list() == ref_swap(base, 6, 8, 2, 5)
        assert incremental.STATS.cells_copied == 8  # one temp per column
        assert incremental.STATS.arrays_copied == 0

    def test_mutation_is_in_place(self):
        from repro.kernels import SCALE_ROW

        params = {"m": 3, "n": 4, "i": 2, "s": 10}
        compiled = repro.compile(SCALE_ROW, strategy="inplace", old_array="a",
                                 params=params)
        arr = FlatArray.from_list(((1, 1), (3, 4)), list(range(12)))
        out = compiled({"a": arr, "s": 10})
        assert out.cells is arr.cells  # same storage, no copy

    def test_jacobi_node_splitting(self):
        from repro.kernels import JACOBI, mesh_cells, ref_jacobi

        m = 10
        compiled = repro.compile(JACOBI, strategy="inplace", old_array="u",
                                 params={"m": m})
        assert compiled.report.strategy == "inplace"
        cells = mesh_cells(m)
        arr = FlatArray.from_list(((1, 1), (m, m)), list(cells))
        incremental.STATS.reset()
        out = compiled({"u": arr})
        assert out.to_list() == ref_jacobi(cells, m)
        interior = (m - 2) ** 2
        # Row ring + scalar ring: 2 copies per interior element,
        # versus m*m for a whole-array copy per sweep and
        # interior*m*m for naive per-update copying.
        assert incremental.STATS.cells_copied == 2 * interior
        assert incremental.STATS.arrays_copied == 0

    def test_sor_zero_copies(self):
        from repro.kernels import SOR, mesh_cells, ref_sor

        m = 10
        compiled = repro.compile(SOR, strategy="inplace", old_array="u",
                                 params={"m": m})
        cells = mesh_cells(m)
        arr = FlatArray.from_list(((1, 1), (m, m)), list(cells))
        incremental.STATS.reset()
        out = compiled({"u": arr, "omega": 1.3})
        assert out.to_list() == pytest.approx(ref_sor(cells, m, 1.3))
        assert incremental.STATS.cells_copied == 0
        THUNK_STATS.reset()
        assert THUNK_STATS.created == 0

    def test_whole_copy_fallback_counts_one_copy(self):
        from repro.kernels import REVERSE

        compiled = repro.compile(REVERSE, strategy="inplace", old_array="a",
                                 params={"n": 10})
        assert compiled.report.strategy == "inplace-copy"
        arr = FlatArray.from_list((1, 10), list(range(10)))
        incremental.STATS.reset()
        out = compiled({"a": arr})
        assert out.to_list() == list(reversed(range(10)))
        assert incremental.STATS.arrays_copied == 1
        assert incremental.STATS.cells_copied == 10

    def test_repeated_sweeps_converge(self):
        # Many in-place Gauss-Seidel sweeps drive the residual down —
        # end-to-end sanity for buffer reuse across calls.
        from repro.kernels import GAUSS_SEIDEL, mesh_cells

        m = 8
        compiled = repro.compile(GAUSS_SEIDEL, strategy="inplace",
                                 old_array="u", params={"m": m})
        arr = FlatArray.from_list(((1, 1), (m, m)), mesh_cells(m))
        for _ in range(200):
            compiled({"u": arr})
        interior = [
            arr.at((i, j)) for i in range(2, m) for j in range(2, m)
        ]
        # Laplace equation with fixed boundary: interior is harmonic;
        # successive sweeps must have converged to a fixed point.
        before = list(arr.cells)
        compiled({"u": arr})
        assert arr.cells == pytest.approx(before, abs=1e-9)
        assert interior  # non-trivial
