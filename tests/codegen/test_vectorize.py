"""Vectorized code generation (paper §10 extension)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import CodegenOptions, FlatArray, evaluate
from repro.dist.pool import fork_available
from repro.program import compile_program
from repro.runtime.errors import ArrayError

VEC = CodegenOptions(vectorize=True)


def floats(values):
    return [float(v) for v in values]


class TestVectorizedKernels:
    def test_squares(self):
        from repro.kernels import SQUARES

        compiled = repro.compile(SQUARES, strategy="array", params={"n": 20},
                                 options=VEC)
        assert "_vslice(" in compiled.source
        assert "for i in range" not in compiled.source
        out = compiled({"n": 20})
        assert out.to_list() == floats(i * i for i in range(1, 21))

    def test_wavefront_borders_vector_interior_scalar(self):
        from repro.kernels import WAVEFRONT, ref_wavefront

        compiled = repro.compile(WAVEFRONT, strategy="array", params={"n": 9},
                                 options=VEC)
        # The border loops vectorize; the interior carries a
        # dependence on both loops, so it stays a scalar loop — over
        # the anti-diagonals of its (1,1) wavefront, one slice each.
        assert "_vslice(" in compiled.source
        assert "for j in range" not in compiled.source
        assert "for _wt" in compiled.source
        assert any(line.startswith("clause 3: wavefront h=(1,1)")
                   for line in compiled.report.parallel)
        want = ref_wavefront(9)
        assert compiled({"n": 9}).to_list() == floats(
            want[i][j] for i in range(1, 10) for j in range(1, 10)
        )

    def test_strided_and_reversed_reads(self):
        src = """
        letrec y = array (1,n)
          [ i := 2.0 * x!i + x!(n+1-i) | i <- [1..n] ]
        in y
        """
        compiled = repro.compile(src, strategy="array", params={"n": 8},
                                 options=VEC)
        assert compiled.source.count("_vslice") >= 3
        x = FlatArray.from_list((1, 8), floats(range(1, 9)))
        out = compiled({"x": x})
        assert out.to_list() == [
            2.0 * x.at(i) + x.at(9 - i) for i in range(1, 9)
        ]

    def test_strided_writes(self):
        src = """
        letrec a = array (1,20)
          ([ 2*i := 1.0 | i <- [1..10] ] ++
           [ 2*i-1 := 2.0 | i <- [1..10] ])
        in a
        """
        compiled = repro.compile(src, strategy="array", options=VEC)
        assert "_vslice(" in compiled.source
        out = compiled({})
        assert out.to_list() == [2.0, 1.0] * 10

    def test_two_dimensional_row_vectorization(self):
        src = """
        letrec a = array ((1,1),(m,m))
          [ (i,j) := u!(i,j) * 2.0 | i <- [1..m], j <- [1..m] ]
        in a
        """
        m = 6
        compiled = repro.compile(src, strategy="array", params={"m": m},
                                 options=VEC)
        # The whole (i, j) nest is one rank-2 slice assignment on N-D
        # views of the flat buffers: no loop is left.
        assert "for " not in compiled.source
        assert "_nd_out[_vslice(" in compiled.source
        assert "_nd_u = _nparr_u.reshape(_ex_u_0, _ex_u_1)" \
            in compiled.source
        u = FlatArray.from_list(((1, 1), (m, m)),
                                floats(range(m * m)))
        out = compiled({"u": u})
        assert out.to_list() == [2.0 * v for v in range(m * m)]

    def test_intrinsics_vectorize(self):
        # The root of an ``abs`` cannot raise, so it vectorizes (a bare
        # ``sqrt (x!i)`` is a float trap: see TestFloatTraps).
        src = ("letrec a = array (1,n) [ i := sqrt (abs (x!i)) "
               "| i <- [1..n] ] in a")
        compiled = repro.compile(src, strategy="array", params={"n": 5},
                                 options=VEC)
        assert "_np.sqrt(_np.abs(" in compiled.source
        x = FlatArray.from_list((1, 5), [1.0, 4.0, 9.0, 16.0, 25.0])
        assert compiled({"x": x}).to_list() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_loop_invariant_read_broadcasts(self):
        src = "letrec a = array (1,n) [ i := x!1 + 0.0 * i | i <- [1..n] ] in a"
        compiled = repro.compile(src, strategy="array", params={"n": 4},
                                 options=VEC)
        x = FlatArray.from_list((1, 3), [7.0, 0.0, 0.0])
        assert compiled({"x": x}).to_list() == [7.0] * 4


class TestFallbacks:
    def test_guards_fall_back_to_scalar(self):
        src = """
        letrec a = array (1,10)
          ([ i := 1.0 | i <- [1..10], mod i 2 == 0 ] ++
           [ i := 0.0 | i <- [1..10], mod i 2 == 1 ])
        in a
        """
        compiled = repro.compile(src, strategy="array", options=VEC)
        assert "_vslice(" not in compiled.source
        assert compiled({}).to_list() == [0.0, 1.0] * 5

    def test_carried_dependence_falls_back(self):
        from repro.kernels import FORWARD_RECURRENCE

        compiled = repro.compile(FORWARD_RECURRENCE, strategy="array",
                                 params={"n": 6}, options=VEC)
        # The recurrence loop carries (<): must not vectorize.
        assert "for i in range" in compiled.source
        b = FlatArray.from_list((1, 6), floats(range(1, 7)))
        c = FlatArray.from_list((1, 6), [0.5] * 6)
        oracle = evaluate(FORWARD_RECURRENCE,
                          bindings={"n": 6, "b": b, "c": c}, deep=False)
        out = compiled({"n": 6, "b": b, "c": c})
        assert out.to_list() == pytest.approx(
            [oracle.at(i) for i in range(1, 7)]
        )

    def test_conditional_value_falls_back(self):
        src = """
        letrec a = array (1,10)
          [ i := (if i > 5 then 1.0 else 0.0) | i <- [1..10] ]
        in a
        """
        compiled = repro.compile(src, strategy="array", options=VEC)
        assert "_vslice(" not in compiled.source
        assert compiled({}).to_list() == [0.0] * 5 + [1.0] * 5

    def test_reduction_value_falls_back(self):
        src = """
        letrec a = array (1,5)
          [ i := sum [ 1.0 | k <- [1..i] ] | i <- [1..5] ]
        in a
        """
        compiled = repro.compile(src, strategy="array", options=VEC)
        assert "_vslice(" not in compiled.source
        assert compiled({}).to_list() == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("fn", ["exp", "log", "sin", "cos"])
    def test_libm_calls_stay_scalar(self, fn):
        # numpy's transcendental functions are not libm's: vectorizing
        # them would break bit-identity with the oracle.
        src = ("letrec a = array (1,n) "
               f"[ i := {fn} (x!i) | i <- [1..n] ] in a")
        compiled = repro.compile(src, params={"n": 8}, options=VEC)
        assert "_vslice(" not in compiled.source
        assert f"_math.{fn}" in compiled.source

    def test_without_option_no_numpy_buffer(self):
        from repro.kernels import SQUARES

        compiled = repro.compile(SQUARES, strategy="array", params={"n": 5})
        assert "_np.zeros" not in compiled.source


class TestRequestedChecks:
    """``vectorize`` runs every runtime check it is asked for: a checked
    unit stays scalar, so each store does its bookkeeping."""

    CHECKS = ("bounds_checks", "collision_checks", "empties_check")

    @pytest.mark.parametrize("check", CHECKS)
    def test_checked_squares_run_every_check(self, check):
        from repro.codegen.support import CHECK_STATS
        from repro.kernels import SQUARES

        counts = []
        for vectorize in (False, True):
            compiled = repro.compile(
                SQUARES, params={"n": 5},
                options=CodegenOptions(vectorize=vectorize,
                                       **{check: True}))
            CHECK_STATS.reset()
            out = compiled({"n": 5})
            assert out.to_list() == [i * i for i in range(1, 6)]
            counts.append((CHECK_STATS.bounds_checks,
                           CHECK_STATS.collision_checks,
                           CHECK_STATS.empty_checks))
        assert counts[0] == counts[1] != (0, 0, 0)
        assert ("vectorize disabled: runtime checks need per-store "
                "bookkeeping that slice assignment cannot maintain, so "
                "the unit stays scalar") in compiled.report.parallel

    def test_a_colliding_scatter_raises_like_the_oracle(self):
        from repro.kernels import PERMUTATION_SCATTER
        from repro.runtime.errors import WriteCollisionError

        env = {"n": 4, "p": FlatArray.from_list((1, 4), [1, 1, 3, 4]),
               "b": FlatArray.from_list((1, 4), [10.0, 20.0, 30.0, 40.0])}
        with pytest.raises(WriteCollisionError):
            evaluate(PERMUTATION_SCATTER, bindings=env).to_list()
        for options in (None, VEC):
            compiled = repro.compile(PERMUTATION_SCATTER,
                                     params={"n": 4}, options=options)
            assert compiled.report.strategy == "guarded"
            with pytest.raises(WriteCollisionError):
                compiled(env)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    coefficient=st.integers(1, 3),
    offset=st.integers(-2, 2),
    scale=st.floats(-4, 4, allow_nan=False),
    tight=st.booleans(),
)
def test_vectorized_matches_scalar(n, coefficient, offset, scale, tight):
    """Vector and scalar codegen agree with the oracle on random affine
    maps: on every cell's value, or on the oracle's error type (an
    unwritten cell of a partial array raises)."""
    low, high = coefficient + offset, coefficient * n + offset
    if not tight:
        low, high = min(low, 1), coefficient * n + max(0, offset) + 2
    src = (
        f"letrec a = array ({low},{high}) "
        f"[ {coefficient}*i + {offset} := {scale!r} * x!i "
        f"| i <- [1..{n}] ] in a"
    )
    x = FlatArray.from_list((1, n), [float(k * k) for k in range(1, n + 1)])
    try:
        want, failure = evaluate(src, {"x": x}).to_list(), None
    except ArrayError as exc:
        want, failure = None, type(exc)
    for options in (CodegenOptions(vectorize=True), CodegenOptions()):
        compiled = repro.compile(src, strategy="array", options=options)
        if failure is None:
            assert compiled({"x": x}).to_list() == pytest.approx(want)
        else:
            with pytest.raises(failure):
                compiled({"x": x})


# One Jacobi sweep with a libm call in the interior clause.  At m=24
# numpy's exp and libm's differ in the last bit of some results (m=12's
# short rows happened to agree).
EXP_JACOBI = """
step u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := 0.25 * (exp (0.01 * u!(i-1,j)) + u!(i+1,j)
                       + u!(i,j-1) + u!(i,j+1))
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
main = iterate step u0 k
"""


@pytest.mark.parametrize("placement", ["vectorize", "dist", "ooc"])
def test_libm_stencil_matches_oracle_in_every_vector_tier(placement):
    if placement == "dist" and not fork_available():
        pytest.skip("dist needs fork")
    m = 24
    rng = random.Random(2)
    u0 = FlatArray.from_list(((1, 1), (m, m)),
                             [rng.random() for _ in range(m * m)])
    params = {"m": m, "k": 1}
    kwargs = {
        "vectorize": {"options": VEC},
        "dist": {"dist": True, "workers": 2},
        "ooc": {"options": CodegenOptions(tile=6), "ooc": True},
    }[placement]
    program = compile_program(EXP_JACOBI, params=params, **kwargs)
    assert not [f for f in program.report.fallbacks
                if f.startswith(("dist 'main'", "ooc 'main'"))]
    got = program({"u0": u0})
    oracle = repro.run_program(EXP_JACOBI, bindings=dict(params, u0=u0))
    assert got.bounds == oracle.bounds
    mismatched = [s for s in got.bounds.range()
                  if got.at(s) != oracle.at(s)]
    assert mismatched == []
