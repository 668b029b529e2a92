"""Every worked example of the paper, end to end (experiment index E1-E13).

These tests are the compile-time half of EXPERIMENTS.md: each asserts
the exact dependence graphs, schedules, and code strategies the paper
derives for its examples.
"""

import pytest

import repro
from repro import FlatArray, analyze, evaluate
from repro.runtime import incremental
from repro.runtime.thunks import STATS as THUNK_STATS
from repro import kernels


def edges_of(report):
    return {
        (e.src.index + 1, e.dst.index + 1, e.direction, e.kind)
        for e in report.edges
    }


class TestE1SingleLoop:
    """§5 example 1: stride-3 clauses in one loop."""

    def test_dependence_graph(self):
        report = analyze(kernels.STRIDE3_SCHEMATIC)
        assert edges_of(report) == {
            (1, 2, ("<",), "flow"),
            (1, 3, ("=",), "flow"),
        }

    def test_schedule(self):
        report = analyze(kernels.STRIDE3_SCHEMATIC)
        assert report.schedule.ok
        assert report.schedule.loop_directions() == {"i": ["forward"]}
        order = report.schedule.clause_order()
        assert order.index(0) < order.index(2)

    def test_collision_free_and_full(self):
        report = analyze(kernels.STRIDE3_SCHEMATIC)
        assert report.collision.status == "none"
        assert report.empties.status == "none"


class TestE2NestedLoops:
    """§5 example 2: 2->1 (=,>), 1->2 (<,>), 2->3 (<)."""

    def test_dependence_graph(self):
        report = analyze(kernels.EXAMPLE2)
        assert edges_of(report) == {
            (2, 1, ("=", ">"), "flow"),
            (1, 2, ("<", ">"), "flow"),
            (2, 3, ("<",), "flow"),
        }

    def test_schedule_i_forward_j_backward(self):
        report = analyze(kernels.EXAMPLE2)
        assert report.schedule.ok
        directions = report.schedule.loop_directions()
        assert directions["i"] == ["forward"]
        assert directions["j"] == ["backward"]


class TestE3Wavefront:
    """§3's wavefront recurrence compiled thunklessly."""

    def test_end_to_end(self):
        n = 12
        compiled = repro.compile(kernels.WAVEFRONT, strategy="array",
                                 params={"n": n})
        assert compiled.report.strategy == "thunkless"
        THUNK_STATS.reset()
        out = compiled({"n": n})
        assert THUNK_STATS.created == 0
        want = kernels.ref_wavefront(n)
        assert out.to_list() == [
            want[i][j] for i in range(1, n + 1) for j in range(1, n + 1)
        ]

    def test_matches_lazy_oracle(self):
        compiled = repro.compile(kernels.WAVEFRONT, strategy="array",
                                 params={"n": 6})
        oracle = evaluate(kernels.WAVEFRONT, bindings={"n": 6}, deep=False)
        got = compiled({"n": 6})
        assert got.to_list() == [
            oracle.at(s) for s in oracle.bounds.range()
        ]


class TestE4AcyclicPasses:
    """§8.1.2 acyclic A/B/C: 3 clauses collapse into 2 passes."""

    def test_two_passes(self):
        report = analyze(kernels.ABC_ACYCLIC)
        assert report.schedule.ok
        assert len(report.schedule.loop_directions()["i"]) == 2

    def test_values(self):
        compiled = repro.compile(kernels.ABC_ACYCLIC, strategy="array")
        oracle = evaluate(kernels.ABC_ACYCLIC, deep=False)
        assert compiled({}).to_list() == [
            oracle.at(s) for s in oracle.bounds.range()
        ]


class TestE5CyclicFallback:
    """§8.1.2 cyclic A->B (<), B->A (>): thunks are unavoidable."""

    def test_edges(self):
        report = analyze(kernels.CYCLIC_FALLBACK)
        assert (1, 2, ("<",), "flow") in edges_of(report)
        assert (2, 1, (">",), "flow") in edges_of(report)

    def test_fallback_detected(self):
        report = analyze(kernels.CYCLIC_FALLBACK)
        assert not report.schedule.ok

    def test_thunked_code_still_correct(self):
        compiled = repro.compile(kernels.CYCLIC_FALLBACK, strategy="array")
        assert compiled.report.strategy == "thunked"
        oracle = evaluate(kernels.CYCLIC_FALLBACK, deep=False)
        THUNK_STATS.reset()
        got = compiled({})
        assert THUNK_STATS.created > 0  # really used thunks
        assert got.to_list() == [
            oracle.at(s) for s in oracle.bounds.range()
        ]


class TestE6LinpackSwap:
    """§9 row swap: (=) anti cycle broken by one hoisted temp."""

    PARAMS = {"m": 6, "n": 8, "i": 2, "k": 5}

    def test_anti_cycle(self):
        from repro.comprehension.build import build_array_comp, find_array_comp
        from repro.core.dependence import anti_edges
        from repro.lang.parser import parse_expr

        name, b, p = find_array_comp(parse_expr(kernels.SWAP))
        comp = build_array_comp(name, b, p, self.PARAMS)
        dirs = {(e.src.index + 1, e.dst.index + 1, e.direction)
                for e in anti_edges(comp, "a")}
        assert dirs == {(1, 2, ("=",)), (2, 1, ("=",))}

    def test_copies_match_hand_code(self):
        compiled = repro.compile(kernels.SWAP, strategy="inplace",
                                 old_array="a", params=self.PARAMS)
        base = [float(v) for v in range(48)]
        arr = FlatArray.from_list(((1, 1), (6, 8)), list(base))
        incremental.STATS.reset()
        out = compiled({"a": arr})
        assert incremental.STATS.cells_copied == 8  # n temps, like Fortran
        assert out.to_list() == kernels.ref_swap(base, 6, 8, 2, 5)


class TestE7Jacobi:
    """§9 Jacobi: scalar + row-vector temporaries, factor-n savings."""

    def test_temporary_structure(self):
        compiled = repro.compile(kernels.JACOBI, strategy="inplace",
                                 old_array="u", params={"m": 12})
        plan = compiled.report.inplace_plan
        assert plan.mode == "split"
        levels = sorted(s.level for s in plan.snapshots)
        assert levels == [0, 1]  # row ring and scalar ring

    def test_copy_count_scales_linearly_per_row(self):
        for m in (8, 16):
            compiled = repro.compile(kernels.JACOBI, strategy="inplace",
                                     old_array="u", params={"m": m})
            cells = kernels.mesh_cells(m)
            arr = FlatArray.from_list(((1, 1), (m, m)), list(cells))
            incremental.STATS.reset()
            out = compiled({"u": arr})
            assert out.to_list() == kernels.ref_jacobi(cells, m)
            interior = (m - 2) ** 2
            # 2 buffered cells per interior element; naive copying per
            # outer iteration would cost (m-2) * m * m.
            assert incremental.STATS.cells_copied == 2 * interior
            naive_per_outer = (m - 2) * m * m
            assert incremental.STATS.cells_copied * (m // 2) < naive_per_outer


class TestE8SorWavefront:
    """§9 Gauss-Seidel / SOR / Livermore K23: no thunks, no copies."""

    def test_four_self_edges(self):
        from repro.comprehension.build import build_array_comp, find_array_comp
        from repro.core.dependence import anti_edges, flow_edges
        from repro.lang.parser import parse_expr

        name, b, p = find_array_comp(parse_expr(kernels.GAUSS_SEIDEL))
        comp = build_array_comp(name, b, p, {"m": 10})
        flow = {e.direction for e in flow_edges(comp)}
        anti = {e.direction for e in anti_edges(comp, "u")}
        assert flow == {("<", "="), ("=", "<")}
        assert anti == {("<", "="), ("=", "<")}

    def test_zero_cost_schedule(self):
        m = 10
        compiled = repro.compile(kernels.SOR, strategy="inplace",
                                 old_array="u", params={"m": m})
        directions = compiled.report.schedule.loop_directions()
        assert directions == {"i": ["forward"], "j": ["forward"]}
        cells = kernels.mesh_cells(m)
        arr = FlatArray.from_list(((1, 1), (m, m)), list(cells))
        incremental.STATS.reset()
        THUNK_STATS.reset()
        out = compiled({"u": arr, "omega": 1.4})
        assert incremental.STATS.cells_copied == 0
        assert THUNK_STATS.created == 0
        assert out.to_list() == pytest.approx(
            kernels.ref_sor(cells, m, 1.4)
        )


class TestE9Collisions:
    """§7: collision analysis elides or compiles runtime checks."""

    def test_paper_kernels_all_proved_clean(self):
        for src, params in [
            (kernels.STRIDE3_SCHEMATIC, None),
            (kernels.WAVEFRONT, {"n": 10}),
            (kernels.EXAMPLE2, None),
            (kernels.SQUARES, {"n": 10}),
        ]:
            report = analyze(src, params)
            assert report.collision.status == "none", src

    def test_certain_collision_is_compile_error(self):
        from repro import CompileError

        with pytest.raises(CompileError):
            repro.compile(
                "letrec a = array (1,10) [* [ 5 := i ] | i <- [1..3] *] in a",
                strategy="array",
            )


class TestE13LetrecStar:
    """§2: letrec* strict-context semantics."""

    def test_strictification(self):
        out = evaluate(kernels.WAVEFRONT, bindings={"n": 4}, deep=False)
        from repro.runtime.strict import StrictArray

        assert isinstance(out, StrictArray)

    def test_hidden_recursion_is_bottom(self):
        from repro.runtime.errors import BlackHoleError

        src = """
        letrec* v = array (1,2) [ 1 := v!2, 2 := v!1 ]
        in 0
        """
        with pytest.raises(BlackHoleError):
            evaluate(src)
