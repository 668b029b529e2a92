"""The one-block placement vs the list path and the lazy oracle.

A double-buffered ``iterate``/``converge`` step that lowered to python
runs in memory as one block of the vectorized block kernel that dist
blocks and out-of-core tiles also run: an admitted float seed sweeps
two float64 buffers (``iterate.block.sweeps`` counts the sweeps).
Every other seed takes the list path.  Either way the result must be
bit-identical to :func:`repro.run_program`, sweep count included.

Generated cases are double-buffer stencils of rank 1-3 with a copied
boundary and a contracting interior, under ``iterate`` and
``converge``, optionally reading an input array or a scalar parameter
and dividing by a literal.
Fixed cases pin every refusal (each runs the list path; a zero
divisor or a negative ``sqrt`` argument raises the oracle's error) and
the admitted edge cases: a literal divisor with the root of an
``abs``, a broadcast read and a diverging solve.
"""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.backends.native import toolchain_status
from repro.codegen.emit import CodegenOptions
from repro.codegen.support import FlatArray
from repro.core.distplan import DistBindingPlan
from repro.dist.kernel import admit
from repro.interp.interp import InterpError
from repro.obs.trace import (
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
)
from repro.program import ProgramError, iterate
from repro.program.compile import compile_program

NO_CC = toolchain_status() is not None
BLOCK = "iterate.block.sweeps"
SWEEPS = "iterate.sweeps.double"


@pytest.fixture(scope="module", autouse=True)
def traced():
    """Runtime counters on for the module (hypothesis-safe scope)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TRACE", "1")
        refresh_runtime_tracing()
        yield
    refresh_runtime_tracing()


def bits(result) -> bytes:
    """The float64 bits of a result (bit identity, not ``==``)."""
    return array("d", result.to_list()).tobytes()


def sub(items) -> str:
    """A subscript: ``i`` or ``1`` bare, anything else parenthesized."""
    if len(items) == 1 and items[0].isalnum():
        return items[0]
    return "(" + ",".join(items) + ")"


#: Loop variables per axis (``k`` is the sweep-count parameter).
AXES = ("i", "j", "q")


def step_source(rank: int, centre: float, sides, extra: str,
                coeff: float, divide: bool = False) -> str:
    """A total double-buffer stencil over ``n`` cells per axis.

    Each boundary cell copies itself, owned by the first axis on which
    it lies on a face; the interior mixes the centre and both
    neighbours on every axis (both sides, so in-place sweeps are
    rejected), plus ``coeff * b!x`` (``extra == "array"``) or
    ``w * u!x`` (``"scalar"``).  With ``divide`` the centre term
    divides by the literal ``1 / centre``, which keeps the one block.
    """
    names = AXES[:rank]
    clauses = []
    for axis in range(rank):
        for face in ("1", "n"):
            at = [face if b == axis else v for b, v in enumerate(names)]
            gens = [f"{v} <- [{'2..n-1' if b < axis else '1..n'}]"
                    for b, v in enumerate(names) if b != axis]
            clauses.append(f"[ {sub(at)} := u!{sub(at)}"
                           + (" | " + ", ".join(gens) if gens else "")
                           + " ]")
    terms = [f"u!{sub(list(names))} / {1.0 / centre!r}" if divide
             else f"{centre!r} * u!{sub(list(names))}"]
    for axis, weight in enumerate(sides):
        pair = []
        for shift in ("-1", "+1"):
            at = [f"{v}{shift}" if b == axis else v
                  for b, v in enumerate(names)]
            pair.append(f"u!{sub(at)}")
        terms.append(f"{weight!r} * ({pair[0]} + {pair[1]})")
    if extra == "array":
        terms.append(f"{coeff!r} * b!{sub(list(names))}")
    elif extra == "scalar":
        terms.append(f"w * u!{sub(list(names))}")
    gens = ", ".join(f"{v} <- [2..n-1]" for v in names)
    clauses.append(f"[ {sub(list(names))} := {' + '.join(terms)} "
                   f"| {gens} ]")
    low = sub(["1"] * rank)
    high = sub(["n"] * rank)
    return (f"step u = letrec a = array ({low},{high})\n   ("
            + " ++\n    ".join(clauses) + ")\n  in a;\n")


def mesh(rank: int, n: int, rng: random.Random) -> FlatArray:
    bounds = ((1,) * rank, (n,) * rank) if rank > 1 else (1, n)
    return FlatArray.from_list(
        bounds, [rng.uniform(-1.0, 1.0) for _ in range(n ** rank)])


@st.composite
def stencils(draw):
    """``(source, params, inputs)`` for one generated program."""
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(*{1: (4, 24), 2: (4, 9), 3: (4, 6)}[rank]))
    weights = [draw(st.floats(0.01, 1.0)) for _ in range(rank + 2)]
    extra = draw(st.sampled_from(["", "array", "scalar"]))
    divide = draw(st.booleans())
    # Contracting: every weight, the scalar's included, sums to 0.9.
    scale = 0.9 / (weights[0] + 2 * sum(weights[1:rank + 1])
                   + weights[-1])
    centre, *sides, coeff = [w * scale for w in weights]
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    params = {"n": n, "w": coeff}
    inputs = {"u0": mesh(rank, n, rng)}
    if extra == "array":
        inputs["b"] = mesh(rank, n, rng)
    if draw(st.booleans()):
        head = "main = iterate step u0 k\n"
        params["k"] = draw(st.integers(1, 6))
    else:
        head = "main = converge step u0 tol\n"
        params["tol"] = draw(st.sampled_from([1e-2, 1e-4]))
    return step_source(rank, centre, sides, extra, coeff,
                       divide) + head, \
        params, inputs


def run_block(source, params, inputs, **kwargs):
    """Compile, run, and return ``(program, result, counters)``."""
    program = compile_program(source, params=params, **kwargs)
    reset_runtime_counters()
    result = program(dict(params, **inputs))
    return program, result, runtime_counters()


def list_path(program, params, inputs):
    """The same program with the one-block plan taken away."""
    (plan,) = [s.iterate for s in program.steps if s.iterate]
    block, plan.block = plan.block, None
    try:
        reset_runtime_counters()
        return program(dict(params, **inputs)), runtime_counters()
    finally:
        plan.block = block


class TestGeneratedStencils:
    @given(case=stencils())
    @settings(max_examples=25, deadline=None)
    def test_block_path_matches_oracle_and_list_path(self, case):
        source, params, inputs = case
        program, got, counters = run_block(source, params, inputs)
        (plan,) = [s.iterate for s in program.steps if s.iterate]
        assert plan.mode == "double" and plan.block is not None
        assert counters[BLOCK] == counters[SWEEPS] > 0
        assert all(type(cell) is float for cell in got.cells)
        oracle = repro.run_program(source, bindings=dict(params, **inputs))
        assert got.bounds == oracle.bounds
        assert bits(got) == bits(oracle)
        listed, list_counters = list_path(program, params, inputs)
        assert BLOCK not in list_counters
        assert list_counters[SWEEPS] == counters[SWEEPS]
        assert bits(listed) == bits(got)


#: The benchmark's Jacobi step over an input seed ``u0``.
JACOBI_STEP = """
step u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := INTERIOR
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
"""
JACOBI = "0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))"
M = 8


def jacobi(interior=JACOBI, head="main = iterate step u0 k\n"):
    return JACOBI_STEP.replace("INTERIOR", interior) + head


def seed(cell=float, m=M):
    return FlatArray.from_list(((1, 1), (m, m)), [
        cell(i + j if i in (1, m) or j in (1, m) else (i * j) % 3)
        for i in range(1, m + 1) for j in range(1, m + 1)
    ])


def refused(source, params, inputs, **kwargs):
    """The list path ran and gave the oracle's value, cell types
    included; returns the program."""
    program, got, counters = run_block(source, params, inputs, **kwargs)
    assert BLOCK not in counters
    oracle = repro.run_program(source, bindings=dict(params, **inputs))
    assert got.bounds == oracle.bounds
    assert got.to_list() == oracle.to_list()
    assert ([type(c) for c in got.to_list()]
            == [type(c) for c in oracle.to_list()])
    return program


class TestRuntimeRefusals:
    """Planned at compile time, refused by ``admit`` at run time."""

    def test_int_seed(self):
        program = refused(jacobi(), {"m": M, "k": 3},
                          {"u0": seed(int)})
        (plan,) = [s.iterate for s in program.steps if s.iterate]
        assert plan.block is not None

    @pytest.mark.parametrize("cell", [int, bool])
    def test_int_or_bool_extra_input(self, cell):
        source = jacobi(JACOBI + " + 0.125 * b!(i,j)")
        refused(source, {"m": M, "k": 3},
                {"u0": seed(), "b": seed(cell)})

    def test_zero_steps(self):
        refused(jacobi(), {"m": M, "k": 0}, {"u0": seed()})

    def test_the_seed_is_never_mutated(self):
        u0 = seed()
        before = list(u0.cells)
        run_block(jacobi(), {"m": M, "k": 4}, {"u0": u0})
        assert u0.cells == before

    def test_admit_refuses_an_empty_mesh(self):
        empty = FlatArray.from_list(((1, 1), (4, 0)), [])
        plan = DistBindingPlan(name="main", kind="dep-free",
                               mode="double", workers=1, rank=2,
                               low=(1, 1), high=(4, 0), param="u")
        assert admit(plan, {}, "steps", 3, empty, list) is None


class TestCompileTimeRefusals:
    """No one-block plan: the report line says why."""

    def _line(self, program):
        (line,) = program.report.iterate
        return line

    def test_empty_mesh(self):
        source = """
step u = letrec a = array ((1,1),(m,n))
   ([ (1,j) := u!(1,j) | j <- [1..n] ] ++
    [ (m,j) := u!(m,j) | j <- [1..n] ] ++
    [ (i,j) := 0.5 * (u!(i-1,j) + u!(i+1,j))
      | i <- [2..m-1], j <- [1..n] ])
  in a;
main = iterate step u0 k
"""
        u0 = FlatArray.from_list(((1, 1), (4, 0)), [])
        program = refused(source, {"m": 4, "n": 0, "k": 3}, {"u0": u0})
        assert "one-block placement refused (step is not provably " \
            "total" in self._line(program)

    @pytest.mark.skipif(NO_CC, reason="needs a C toolchain")
    def test_c_lowered_step(self):
        program = refused(jacobi(), {"m": M, "k": 3}, {"u0": seed()},
                          options=CodegenOptions(backend="c"))
        (plan,) = [s.iterate for s in program.steps if s.iterate]
        assert plan.block is None
        assert plan.step.report.backend_used == "c"
        assert ("one-block placement refused (the step lowered to C, "
                "and its per-sweep native call is faster); list path"
                in self._line(program))

    def test_program_function_call(self):
        # Only the guarded first row calls ``half``, so every row-window
        # loop vectorizes; the closure still cannot enter the kernel.
        source = "half x = 0.5 * x;\n" + jacobi().replace(
            "(1,j) := u!(1,j)", "(1,j) := 2.0 * half (u!(1,j))")
        program = refused(source, {"m": M, "k": 3}, {"u0": seed()})
        assert ("one-block placement refused (step calls program "
                "function 'half' — only scalars and arrays ride the "
                "block kernel environment)" in self._line(program))

    def test_non_vectorized_interior(self):
        interior = ("if u!(i,j) > 0.5 then 0.5 * (u!(i-1,j) + u!(i+1,j)) "
                    "else 0.5 * (u!(i,j-1) + u!(i,j+1))")
        program = refused(jacobi(interior), {"m": M, "k": 3},
                          {"u0": seed()})
        (plan,) = [s.iterate for s in program.steps if s.iterate]
        assert plan.block is None
        assert ("one-block placement refused (the block kernel leaves "
                "loop(s) j scalar" in self._line(program))


    @pytest.mark.parametrize("head", ["main = iterate step u0 k\n",
                                      "main = converge step u0 tol\n"],
                             ids=["iterate", "converge"])
    @pytest.mark.parametrize("interior, error, trap", [
        ("1.0 / (2.0 + u!(i-1,j) + u!(i+1,j))", ZeroDivisionError,
         "'/' by a divisor that is not a nonzero literal"),
        ("sqrt (u!(i-1,j) + u!(i+1,j))", ValueError,
         "'sqrt' of an argument that is not a non-negative literal "
         "or an abs"),
    ], ids=["zero-divisor", "negative-sqrt"])
    def test_float_trap_raises_the_oracles_error(self, head, interior,
                                                  error, trap):
        # Cell (3,3) divides by, or takes the root of, exactly 0.0 - 2.0
        # + 0.0: Python raises, float64 buffers would give inf or NaN.
        u0 = seed()
        u0.cells[(2 - 1) * M + (3 - 1)] = -2.0
        params = {"m": M, "k": 1, "tol": 1e-6}
        source = jacobi(interior, head)
        with pytest.raises(error) as oracle:
            repro.run_program(source, bindings=dict(params, u0=u0))
        program = compile_program(source, params=params)
        (plan,) = [s.iterate for s in program.steps if s.iterate]
        assert plan.block is None
        assert (f"one-block placement refused (clause 5: {trap} — the "
                "list path raises where float64 buffers give inf or "
                "NaN); list path" in self._line(program))
        reset_runtime_counters()
        with pytest.raises(error) as got:
            program(dict(params, u0=u0))
        assert str(got.value) == str(oracle.value)
        assert BLOCK not in runtime_counters()


class TestAdmittedEdgeCases:
    def test_trap_free_division_and_sqrt(self):
        # A nonzero literal divisor and the root of an ``abs`` cannot
        # raise in Python, so they keep the one block.
        source = jacobi("(u!(i-1,j) + u!(i+1,j)) / 4.0 + 0.1 * sqrt "
                        "(abs (u!(i,j-1) - u!(i,j+1)))")
        params = {"m": M, "k": 4}
        program, got, counters = run_block(source, params,
                                           {"u0": seed()})
        (plan,) = [s.iterate for s in program.steps if s.iterate]
        assert plan.block is not None
        assert counters[BLOCK] == 4
        oracle = repro.run_program(source,
                                   bindings=dict(params, u0=seed()))
        assert bits(got) == bits(oracle)

    def test_broadcast_read(self):
        # Every interior row reads row 1: out-of-core tiles refuse it
        # (only their halo window is resident); one block holds it all.
        source = jacobi("0.2 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) "
                        "+ u!(i,j+1)) + 0.1 * u!(1,j)")
        params = {"m": M, "k": 5}
        program, got, counters = run_block(source, params,
                                           {"u0": seed()})
        assert counters[BLOCK] == 5
        oracle = repro.run_program(source,
                                   bindings=dict(params, u0=seed()))
        assert bits(got) == bits(oracle)
        ooc = compile_program(source, params=params, ooc=True)
        assert any("broadcast read" in f for f in ooc.report.fallbacks)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_solve_raises_the_cap_error(self, monkeypatch):
        cap = 30
        monkeypatch.setattr(iterate, "CONVERGE_CAP", cap)
        source = jacobi("1.0e300 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) "
                        "+ u!(i,j+1))",
                        "main = converge step u0 tol\n")
        params = {"m": M, "tol": 1e-6}
        with pytest.raises(InterpError) as oracle:
            repro.run_program(source, bindings=dict(params, u0=seed()))
        program = compile_program(source, params=params)
        reset_runtime_counters()
        with pytest.raises(ProgramError) as err:
            program(dict(params, u0=seed()))
        message = f"converge: no fixpoint within {cap} sweeps (tol=1e-06)"
        assert str(err.value) == message
        assert str(oracle.value).startswith(message)
        counters = runtime_counters()
        assert counters[BLOCK] == counters[SWEEPS] == cap

    def test_sweep_count_equals_the_oracle(self, monkeypatch):
        # The oracle converges within the block path's sweep count and
        # not within one sweep fewer.
        source = jacobi(head="main = converge step u0 tol\n")
        params = {"m": M, "tol": 1e-3}
        _, got, counters = run_block(source, params, {"u0": seed()})
        sweeps = counters[BLOCK]
        monkeypatch.setattr(iterate, "CONVERGE_CAP", sweeps)
        oracle = repro.run_program(source,
                                   bindings=dict(params, u0=seed()))
        assert bits(got) == bits(oracle)
        monkeypatch.setattr(iterate, "CONVERGE_CAP", sweeps - 1)
        with pytest.raises(InterpError):
            repro.run_program(source, bindings=dict(params, u0=seed()))

