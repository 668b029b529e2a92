"""Unit tests for the distribution planner (repro.core.distplan).

The admission check's cell test, window arithmetic, float
provability, the per-mode legality checks, and every reasoned
rejection the planner can hand the program compiler.
"""

import numpy as np
import pytest

import repro
from repro.core.distplan import (
    DistReject,
    double_kernel,
    float_trap,
    plan_distribution,
    split_windows,
    value_provably_float,
)
from repro.dist.kernel import float_cells
from repro.kernels import PROGRAM_JACOBI, PROGRAM_JACOBI_STEPS, PROGRAM_SOR
from repro.lang.parser import parse_expr


def _iterate_plan(prog, name="main"):
    for step in prog.steps:
        if step.name == name and step.iterate is not None:
            return step.iterate
    raise AssertionError(f"no iterate step {name!r}")


def _dist_fallbacks(prog):
    return [f for f in prog.report.fallbacks if f.startswith("dist ")]


# ----------------------------------------------------------------------
# The block-run admission check's cell test.


class TestFloatCells:
    """Block buffers hold float64: only exact floats may enter."""

    @pytest.mark.parametrize("cells", [
        [0.5, -1.0, 2.0],
        [],
        np.array([0.5, 1.0]),
    ], ids=["floats", "empty", "float64-ndarray"])
    def test_accepted(self, cells):
        assert float_cells(cells)

    class Half(float):
        pass

    @pytest.mark.parametrize("odd", [
        3, True, Half(0.5), np.float64(0.5),
    ], ids=["int", "bool", "float-subclass", "numpy-float64"])
    def test_refused_cell_types(self, odd):
        assert not float_cells([1.0, odd, 2.0])

    def test_refused_float32_ndarray(self):
        assert not float_cells(np.array([0.5, 1.0], dtype=np.float32))


# ----------------------------------------------------------------------
# Window arithmetic.


class TestSplitWindows:
    def test_even_split(self):
        assert split_windows(1, 8, 2) == [(1, 4), (5, 8)]

    def test_remainder_to_leading_windows(self):
        # 10 rows over 3 blocks: sizes 4, 3, 3 — differ by at most one.
        windows = split_windows(1, 10, 3)
        assert windows == [(1, 4), (5, 7), (8, 10)]
        sizes = [hi - lo + 1 for lo, hi in windows]
        assert max(sizes) - min(sizes) <= 1

    def test_windows_partition_exactly(self):
        for lo, hi, parts in [(1, 7, 3), (0, 0, 4), (2, 17, 5)]:
            windows = split_windows(lo, hi, parts)
            cells = [
                x for wlo, whi in windows for x in range(wlo, whi + 1)
            ]
            assert cells == list(range(lo, hi + 1))

    def test_more_parts_than_cells_yields_empty_tails(self):
        windows = split_windows(1, 3, 5)
        assert windows[:3] == [(1, 1), (2, 2), (3, 3)]
        for lo, hi in windows[3:]:
            assert hi < lo  # empty, encoded (x, x-1)


# ----------------------------------------------------------------------
# Float provability (shared buffers are float64; ints must not coerce).


class TestValueProvablyFloat:
    def check(self, src, params=None):
        return value_provably_float(parse_expr(src), params or {})

    def test_float_literal(self):
        assert self.check("1.5")

    def test_int_literal_rejected(self):
        assert not self.check("3")

    def test_division_is_float(self):
        assert self.check("a!i / 2")

    def test_arith_with_float_side(self):
        assert self.check("1.0 * (i + j)")
        assert not self.check("i + j")

    def test_array_read_counts_as_float(self):
        # Run-time pre-flight verifies every shipped array is floats.
        assert self.check("u!(i,j)")

    def test_if_needs_both_branches(self):
        assert self.check("if i == 1 then 1.0 else 0.5")
        assert not self.check("if i == 1 then 1.0 else 0")

    def test_float_param(self):
        assert self.check("omega", {"omega": 1.2})
        assert not self.check("omega", {"omega": 2})

    def test_intrinsics(self):
        assert self.check("sqrt (i + j)")


class TestFloatTrap:
    """Operations Python raises on and float64 buffers do not."""

    @pytest.mark.parametrize("src", [
        "0.25 * (u!(i-1) + u!(i+1))",
        "u!i / 4.0",
        "u!i / (-2)",
        "u!i % 3.0",
        "div i 2",
        "mod (u!i) (-1.5)",
        "sqrt 2.0",
        "sqrt (abs (u!i - 1.0))",
        "exp (u!i) + log (u!i) + sin (u!i)",
        "if u!i > 0.0 then u!i / 2.0 else u!i",
    ])
    def test_trap_free(self, src):
        assert float_trap(parse_expr(src)) is None

    @pytest.mark.parametrize("src, found", [
        ("1.0 / (1.0 + u!i)", "'/' by a divisor"),
        ("u!i / 0.0", "'/' by a divisor"),
        ("u!i / w", "'/' by a divisor"),
        ("u!i % u!(i+1)", "'%' by a divisor"),
        ("div i (i - 3)", "'div' of an argument"),
        ("mod (u!i) 0", "'mod' of an argument"),
        ("sqrt (u!i)", "'sqrt' of an argument"),
        ("sqrt (-1.0)", "'sqrt' of an argument"),
        ("u!i + (if u!i > 0.0 then 1.0 else 1.0 / u!i)", "'/' by"),
        ("let f = sqrt in f (u!i)", "'sqrt' used as a value"),
    ])
    def test_traps(self, src, found):
        assert found in float_trap(parse_expr(src))


# ----------------------------------------------------------------------
# Planner verdicts on the real program kernels.


class TestPlannerVerdicts:
    def test_jacobi_is_stencil(self):
        prog = repro.compile_program(
            PROGRAM_JACOBI, params={"m": 8, "tol": 1e-3},
            dist=True, workers=2,
        )
        plan = _iterate_plan(prog).dist
        assert plan is not None
        assert plan.kind == "stencil"
        assert plan.mode == "double"
        assert (plan.halo_lo, plan.halo_hi) == (1, 1)
        assert plan.row_blocks == ((1, 4), (5, 8))
        assert plan.kernel is not None and plan.kernel.source

    def test_sor_is_wavefront(self):
        prog = repro.compile_program(
            PROGRAM_SOR, params={"m": 8, "k": 3, "omega": 1.2},
            dist=True, workers=2,
        )
        plan = _iterate_plan(prog).dist
        assert plan is not None
        assert plan.kind == "wavefront"
        assert plan.mode == "inplace"
        # stage = block + chunk: blocks + chunks - 1 stages per sweep.
        assert plan.stages == len(plan.col_blocks) + len(plan.chunks) - 1

    def test_non_divisible_rows(self):
        prog = repro.compile_program(
            PROGRAM_JACOBI_STEPS, params={"m": 10, "k": 2},
            dist=True, workers=3,
        )
        plan = _iterate_plan(prog).dist
        rows = [
            x for lo, hi in plan.row_blocks for x in range(lo, hi + 1)
        ]
        assert rows == list(range(1, 11))

    def test_more_workers_than_rows_keeps_empty_blocks(self):
        prog = repro.compile_program(
            PROGRAM_JACOBI_STEPS, params={"m": 4, "k": 2},
            dist=True, workers=6,
        )
        plan = _iterate_plan(prog).dist
        assert plan is not None
        assert len(plan.row_blocks) == 6
        assert any(hi < lo for lo, hi in plan.row_blocks)

    def test_tiny_mesh_inplace_backward_interior_is_rejected(self):
        # At m=3 the step's single interior cell lets §9 pick true
        # in-place sweeps, and its backward-scheduled interior loop
        # (with nonzero-offset reads) must reject wavefront staging.
        prog = repro.compile_program(
            PROGRAM_JACOBI_STEPS, params={"m": 3, "k": 2},
            dist=True, workers=2,
        )
        step = _iterate_plan(prog)
        if step.mode == "inplace":
            assert step.dist is None
            assert any("scheduled backward" in f
                       for f in _dist_fallbacks(prog))

    def test_workers_one_is_reasoned_skip(self):
        prog = repro.compile_program(
            PROGRAM_JACOBI, params={"m": 6, "tol": 1e-2},
            dist=True, workers=1,
        )
        assert _iterate_plan(prog).dist is None
        fallbacks = _dist_fallbacks(prog)
        assert any("single block" in f for f in fallbacks)

    def test_dist_off_plans_nothing(self):
        prog = repro.compile_program(
            PROGRAM_JACOBI, params={"m": 6, "tol": 1e-2},
        )
        assert _iterate_plan(prog).dist is None
        assert not _dist_fallbacks(prog)
        assert not prog.report.dist

    def test_non_iterate_bindings_get_reasons(self):
        prog = repro.compile_program(
            PROGRAM_JACOBI, params={"m": 6, "tol": 1e-2},
            dist=True, workers=2,
        )
        fallbacks = _dist_fallbacks(prog)
        assert any(f.startswith("dist 'u0'") for f in fallbacks)
        assert any(f.startswith("dist 'step'") for f in fallbacks)

    def test_notes_land_in_report_dist(self):
        prog = repro.compile_program(
            PROGRAM_JACOBI, params={"m": 8, "tol": 1e-3},
            dist=True, workers=2,
        )
        assert any("stencil" in line for line in prog.report.dist)
        assert any("halo" in line for line in prog.report.dist)


# ----------------------------------------------------------------------
# Reasoned rejections.


INT_VALUED = """
u0 = array (1,m) [ i := 1.0 * i | i <- [1..m] ];
step u = letrec a = array (1,m) [ i := 1 | i <- [1..m] ] in a;
main = iterate step u0 k
"""


class TestRejections:
    def test_workers_below_two(self):
        prog = repro.compile_program(
            PROGRAM_JACOBI, params={"m": 6, "tol": 1e-2},
            dist=True, workers=0,
        )
        # workers=0 resolves to cpu_count; force the degenerate case
        # through the planner directly instead.
        step = _iterate_plan(prog)
        info = prog.report.binding("main")
        with pytest.raises(DistReject, match="single block"):
            plan_distribution("main", info.report, step.mode,
                              step.param, params={"m": 6}, workers=1,
                              kernel=double_kernel(info.report,
                                                   {"m": 6}))

    def test_int_valued_clause_rejected(self):
        prog = repro.compile_program(
            INT_VALUED, params={"m": 6, "k": 2}, dist=True, workers=2,
        )
        assert _iterate_plan(prog).dist is None
        assert any("provably float" in f for f in _dist_fallbacks(prog))

    def test_rejection_reaches_explain_dist_area(self):
        from repro.obs.explain import explain_program_report

        prog = repro.compile_program(
            INT_VALUED, params={"m": 6, "k": 2}, dist=True, workers=2,
        )
        trace = explain_program_report(prog.report)
        areas = trace.by_area("dist")
        assert any("provably float" in d.reason for d in areas)

    def test_unknown_mode(self):
        prog = repro.compile_program(
            PROGRAM_JACOBI, params={"m": 6, "tol": 1e-2},
            dist=True, workers=2,
        )
        info = prog.report.binding("main")
        step = _iterate_plan(prog)
        with pytest.raises(DistReject, match="unknown iterate mode"):
            plan_distribution("main", info.report, "mystery",
                              step.param, params={"m": 6}, workers=2,
                              kernel=double_kernel(info.report,
                                                   {"m": 6}))
