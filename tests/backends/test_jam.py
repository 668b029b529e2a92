"""Row strips: the C backend's unroll-and-jam of recurrence nests.

A perfect two-deep nest runs as a row strip when its dependences all
have '<'/'=' components and its inner loop carries one: ``STRIP_ROWS``
rows of the outer loop jammed into the inner loop, with the body
printed once.  The strip reorders cells, never their arithmetic, so
every result is bit-identical to the python backend and the lazy
oracle, for every strip remainder, and in-place sweep counts do not
move.  A nest is jammed exactly when its C source has the strip loop,
and then its report carries one ``parallel`` line naming it.
"""

import re

import pytest

import repro
from repro.backends.c import STRIP_ROWS
from repro.backends.native import toolchain_status
from repro.codegen.emit import CodegenOptions
from repro.codegen.support import Bounds, FlatArray
from repro.kernels import (
    GAUSS_SEIDEL,
    SOR,
    SOR_MONOLITHIC,
    WAVEFRONT_F,
    mesh_cells,
)
from repro.obs.trace import (
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
)
from tests.backends.test_differential import (
    SOR_CONVERGE,
    SOR_ITERATE,
    _compile_pair,
    _inputs,
    bits,
)

NO_CC = toolchain_status() is not None
pytestmark = pytest.mark.skipif(
    NO_CC, reason=f"native toolchain unavailable: {toolchain_status()}"
)

C_OPTIONS = CodegenOptions(backend="c")

#: The strip loop's header in a C kernel.
STRIP_LOOP = re.compile(
    r"for \(long (_r\d+) = _s\d+; \1 <= _e\d+; \1 \+= %d\)" % STRIP_ROWS
)

#: Every strip remainder (1..STRIP_ROWS rows in the last strip).  At
#: m = 3 an SOR mesh has one interior cell: no edge at all, so no
#: strip (:func:`sor_jammed`).
SIZES = range(3, 21)


def sor_jammed(m: int) -> bool:
    """Whether an SOR-shaped nest over ``2..m-1`` has a recurrence."""
    return m > 3


def jammed(compiled) -> bool:
    """Whether the C kernel runs a row strip; the report must say so
    exactly when it does."""
    strip = bool(STRIP_LOOP.search(compiled.source))
    logged = [line for line in compiled.report.parallel
              if "row strip" in line]
    assert len(logged) == (1 if strip else 0), compiled.report.parallel
    return strip


def mesh(m: int) -> FlatArray:
    return FlatArray(Bounds((1, 1), (m, m)), mesh_cells(m))


#: The border clauses an in-place sweep leaves to the old mesh.
BORDERS = """(
    [ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++ [
"""


def oracle_sweep(source, params, m: int) -> bytes:
    """The lazy oracle's value of an in-place interior sweep: the same
    comprehension made monolithic, with the borders copied from ``u``
    (as :data:`~repro.kernels.SOR_MONOLITHIC` is to ``SOR``)."""
    monolithic = source.replace("[*", BORDERS).replace("*]", "])")
    return bits(repro.evaluate(monolithic, bindings=dict(params, u=mesh(m)),
                               deep=False))


def compile_both(source, params, **kwargs):
    py = repro.compile(source, params=params, **kwargs)
    c = repro.compile(source, params=params, options=C_OPTIONS, **kwargs)
    assert c.report.backend_used == "c", c.report.backend
    return py, c


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    refresh_runtime_tracing()
    reset_runtime_counters()
    yield
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    refresh_runtime_tracing()
    reset_runtime_counters()


class TestJammedNests:
    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("source", [SOR, GAUSS_SEIDEL],
                             ids=["sor", "gauss_seidel"])
    def test_inplace_sweep_matches_python_and_oracle(self, source, m):
        params = {"m": m, "omega": 1.3}
        py, c = compile_both(source, params, strategy="inplace",
                             old_array="u")
        assert jammed(c) == sor_jammed(m)
        got = bits(c(dict(params, u=mesh(m))))
        assert got == bits(py(dict(params, u=mesh(m))))
        assert got == oracle_sweep(source, params, m)

    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("source", [SOR_MONOLITHIC, WAVEFRONT_F],
                             ids=["sor_monolithic", "wavefront_f"])
    def test_monolithic_matches_python_and_oracle(self, source, m):
        if source is SOR_MONOLITHIC:
            params, env = {"m": m, "omega": 1.25}, {"u": mesh(m)}
            expected = sor_jammed(m)
        else:
            params, env, expected = {"n": m}, {}, True
        py, c = compile_both(source, params)
        assert jammed(c) == expected
        env.update(params)
        got = bits(c(dict(env)))
        assert got == bits(py(dict(env)))
        assert got == bits(repro.evaluate(source, bindings=env,
                                          deep=False))

    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("kind", ["iterate", "converge"])
    def test_native_sweeps_match_in_values_and_count(self, traced, kind,
                                                     m):
        # The C step's native sweep loop (``_sweep_native``) against
        # the python backend's per-sweep driver and the oracle.
        if kind == "iterate":
            source, params, inputs = SOR_ITERATE, {"k": 7}, {}
        else:
            source, params, inputs = SOR_CONVERGE, {}, {"tol": 1e-6}
        params.update(m=m, omega=1.5)
        results, sweeps = {}, {}
        for label, options in (("python", None), ("c", C_OPTIONS)):
            program = repro.compile_program(source, params=params,
                                            options=options)
            (plan,) = [s.iterate for s in program.steps
                       if s.iterate is not None]
            assert plan.native_sweeps == (label == "c")
            assert jammed(plan.step) == (label == "c" and sor_jammed(m))
            reset_runtime_counters()
            results[label] = bits(program(dict(inputs, u0=mesh(m))))
            sweeps[label] = runtime_counters()["iterate.sweeps.inplace"]
        assert results["c"] == results["python"]
        assert sweeps["c"] == sweeps["python"]
        if kind == "iterate":
            assert sweeps["c"] == 7
        oracle = repro.run_program(
            source, bindings=dict(params, u0=mesh(m), **inputs))
        assert results["c"] == bits(oracle)


class TestNestsLeftAlone:
    def test_a_backward_component_is_not_jammed(self):
        # a!(i-1,j+1) is a (<,>) edge: a strip would read the new
        # north-east cell before the row above had written it.
        source = """
letrec* a = array ((1,1),(n,n))
   ([ (1,j) := 1.0 * j | j <- [1..n] ] ++
    [ (i,1) := 1.0 | i <- [2..n] ] ++
    [ (i,n) := 2.0 | i <- [2..n] ] ++
    [ (i,j) := 0.5 * (a!(i,j-1) + a!(i-1,j+1))
      | i <- [2..n], j <- [2..n-1] ])
in a
"""
        for n in (4, 9, 14):
            py, c = compile_both(source, {"n": n})
            assert not jammed(c)
            got = bits(c({}))
            assert got == bits(py({}))
            assert got == bits(repro.evaluate(source, bindings={"n": n},
                                              deep=False))

    @pytest.mark.parametrize("name", ["pascal", "matmul"])
    def test_no_inner_recurrence_is_not_jammed(self, name):
        # PASCAL reads only the row above, MATMUL no cell of its own:
        # the inner loop carries nothing for a strip to overlap.
        py, c, params = _compile_pair(name)
        assert c.report.backend_used == "c"
        assert not jammed(c)
        env = dict(_inputs(name), **params)
        assert bits(c(dict(env))) == bits(py(dict(env)))

    def test_an_accepted_tile_plan_is_not_jammed(self):
        m = 11
        params = {"m": m, "omega": 1.3}
        c = repro.compile(SOR, params=params, strategy="inplace",
                          old_array="u",
                          options=CodegenOptions(backend="c", tile=4))
        assert c.report.tiling.ok
        assert "_ts0" in c.source
        assert not jammed(c)
        py = repro.compile(SOR, params=params, strategy="inplace",
                           old_array="u")
        assert bits(c(dict(params, u=mesh(m)))) == bits(
            py(dict(params, u=mesh(m))))

    def test_a_triangular_inner_bound_is_not_jammed(self):
        # An in-place Gauss-Seidel sweep of the lower triangle: its
        # edges are a strip's, but the inner bound reads i.
        sweep = """
letrec a = array ((1,1),(m,m))
  [* (i,j) := 0.5 * (a!(i,j-1) + a!(i-1,j)) + 0.25 * u!(i,j)
   | i <- [2..m], j <- [2..i] *]
in a
"""
        oracle = """
letrec a = array ((1,1),(m,m))
  ([ (i,j) := u!(i,j) | i <- [1..m], j <- [i+1..m] ] ++
   [ (i,1) := u!(i,1) | i <- [1..m] ] ++
   [ (i,j) := 0.5 * (a!(i,j-1) + a!(i-1,j)) + 0.25 * u!(i,j)
     | i <- [2..m], j <- [2..i] ])
in a
"""
        for m in (3, 8, 13):
            py, c = compile_both(sweep, {"m": m}, strategy="inplace",
                                 old_array="u")
            assert "(=,<)" in c.report.summary()
            assert not jammed(c)
            got = bits(c({"m": m, "u": mesh(m)}))
            assert got == bits(py({"m": m, "u": mesh(m)}))
            assert got == bits(repro.evaluate(
                oracle, bindings={"m": m, "u": mesh(m)}, deep=False))

    def test_a_c_fallback_leaves_no_strip_line(self):
        # The recurrence nest lowers as a strip before the C emitter
        # meets the environment call in the last row and refuses the
        # whole job: the python module runs, and its report must not
        # name a strip the C kernel never got.
        source = """
letrec* a = array ((1,1),(n+1,n))
   ([ (1,j) := 1.0 | j <- [1..n] ] ++
    [ (i,1) := 1.0 | i <- [2..n] ] ++
    [ (i,j) := 0.25 * (a!(i-1,j) + a!(i,j-1)) + 0.5 * a!(i-1,j-1)
      | i <- [2..n], j <- [2..n] ] ++
    [ (n+1,j) := f (a!(n,j)) | j <- [1..n] ])
in a
"""
        c = repro.compile(source, params={"n": 8}, options=C_OPTIONS)
        assert c.report.backend_used == "python"
        assert "environment function 'f'" in c.report.backend[0]
        assert not any("row strip" in line for line in c.report.parallel)
