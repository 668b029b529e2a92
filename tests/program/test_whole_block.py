"""Whole-block vector clauses in every placement, against the oracle.

The §10 vectorizer emits a dependence-free perfect nest as one rank-k
slice assignment per clause on N-D views, and hoists a guard that uses
no nest variable into one ``if`` around its statement.  So the block
kernel that the one block, each dist block and each out-of-core tile
run is a few numpy statements per sweep.  Every program below runs
converge sweeps in memory (the one block, and the list path of the
``vectorize=True`` step), under ``dist=True, workers=2`` and out of
core with a dividing and a non-dividing tile; every run must equal
:func:`repro.run_program` bit for bit, sweep count included.  Steps a
block placement refuses (a strided or descending loop) name their
reason and still match.
"""

import random
from array import array

import pytest

import repro
from repro.codegen.compile import CompiledComp
from repro.codegen.emit import CodegenOptions, emit_thunkless
from repro.codegen.support import FlatArray
from repro.dist.pool import fork_available
from repro.interp.interp import InterpError
from repro.obs.trace import (
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
)
from repro.program import iterate
from repro.program.compile import compile_program

VEC = CodegenOptions(vectorize=True)
SWEEPS = "iterate.sweeps.double"


@pytest.fixture(scope="module", autouse=True)
def traced():
    """Runtime counters on for the module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TRACE", "1")
        refresh_runtime_tracing()
        yield
    refresh_runtime_tracing()


def bits(result) -> bytes:
    return array("d", result.to_list()).tobytes()


def rows(interior: str) -> str:
    """A converge Jacobi-shaped step: copied boundary, ``interior``."""
    return f"""
step u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
{interior})
  in a;
main = converge step u0 tol
"""


JACOBI5 = rows("""    [ (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
      | i <- [2..m-1], j <- [2..m-1] ]""")

NINE_POINT = rows("""    [ (i,j) := 0.15 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
               + 0.1 * (u!(i-1,j-1) + u!(i-1,j+1) + u!(i+1,j-1)
                        + u!(i+1,j+1))
      | i <- [2..m-1], j <- [2..m-1] ]""")

#: Two clauses under one (i, j) nest (``m = 2h``): the second stores
#: the right half of the interior and reads the cell the first stored
#: in the same instance.
TWO_CLAUSE = rows("""    [* [ (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1)),
         (i,j+h-1) := 0.5 * a!(i,j) + 0.125 * (u!(i-1,j+h-1)
                      + u!(i+1,j+h-1) + u!(i,j+h-2) + u!(i,j+h)) ]
     | i <- [2..m-1], j <- [2..h] *]""")

#: The same two halves, each reading only the previous sweep.
HALVES = rows("""    [* [ (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1)),
         (i,j+h-1) := 0.125 * (u!(i-1,j+h-1) + u!(i+1,j+h-1)
                      + u!(i,j+h-2) + u!(i,j+h)) + 0.5 * u!(i,j) ]
     | i <- [2..m-1], j <- [2..h] *]""")

#: Two clauses storing every other column (stride-2 slices on axis 1).
STRIDED_WRITES = rows("""    [* [ (i,2*q) := 0.5 * (u!(i-1,2*q) + u!(i+1,2*q)),
         (i,2*q+1) := 0.5 * (u!(i,2*q) + u!(i,2*q+2)) ]
     | i <- [2..m-1], q <- [1..h-1] *]""")

#: Every store runs its columns backward: negative-stride slices, and
#: the copied rows reach index 0 (``make_slice``'s open stop).
REVERSED = """
step u = letrec a = array ((1,1),(m,m))
   ([ (1,m+1-j) := u!(1,m+1-j) | j <- [1..m] ] ++
    [ (m,m+1-j) := u!(m,m+1-j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,m+1-j) := 0.25 * (u!(i-1,m+1-j) + u!(i+1,m+1-j)
                           + u!(i,m-j) + u!(i,m+2-j))
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
main = converge step u0 tol
"""

#: The interior in two strided loops (even and odd columns).
STRIDED = rows("""    [ (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
      | i <- [2..m-1], j <- [2,4..m-1] ] ++
    [ (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
      | i <- [2..m-1], j <- [3,5..m-1] ]""")

#: The interior's row loop runs backward.
DESCENDING = rows("""    [ (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
      | i <- [m-1,m-2..2], j <- [2..m-1] ]""")

SEVEN_POINT = """
step u = letrec a = array ((1,1,1),(m,m,m))
   ([ (1,j,q) := u!(1,j,q) | j <- [1..m], q <- [1..m] ] ++
    [ (m,j,q) := u!(m,j,q) | j <- [1..m], q <- [1..m] ] ++
    [ (i,1,q) := u!(i,1,q) | i <- [2..m-1], q <- [1..m] ] ++
    [ (i,m,q) := u!(i,m,q) | i <- [2..m-1], q <- [1..m] ] ++
    [ (i,j,1) := u!(i,j,1) | i <- [2..m-1], j <- [2..m-1] ] ++
    [ (i,j,m) := u!(i,j,m) | i <- [2..m-1], j <- [2..m-1] ] ++
    [ (i,j,q) := 0.1 * u!(i,j,q)
                 + 0.15 * (u!(i-1,j,q) + u!(i+1,j,q) + u!(i,j-1,q)
                           + u!(i,j+1,q) + u!(i,j,q-1) + u!(i,j,q+1))
      | i <- [2..m-1], j <- [2..m-1], q <- [2..m-1] ])
  in a;
main = converge step u0 tol
"""

#: name -> (source, rank, params, tiles (dividing, non-dividing),
#: the reason every block placement refuses it or None).
PROGRAMS = {
    "jacobi5": (JACOBI5, 2, {"m": 9}, (3, 4), None),
    "nine_point": (NINE_POINT, 2, {"m": 8}, (2, 3), None),
    "seven_point_3d": (SEVEN_POINT, 3, {"m": 6}, (2, 4), None),
    "two_clause": (TWO_CLAUSE, 2, {"m": 10, "h": 5}, (5, 3),
                   "clause 6: reads the step's own output 'a'"),
    "two_halves": (HALVES, 2, {"m": 10, "h": 5}, (5, 3), None),
    "strided_writes": (STRIDED_WRITES, 2, {"m": 10, "h": 5}, (5, 3),
                       "write subscript on axis 1 strides by 2"),
    "reversed_columns": (REVERSED, 2, {"m": 8}, (4, 3),
                         "write subscript on axis 1 strides by -1"),
    "strided_loops": (STRIDED, 2, {"m": 9}, (3, 2),
                      "loop 'j' strides by 2"),
    "descending_loop": (DESCENDING, 2, {"m": 8}, (4, 3),
                        "loop 'i' strides by -1"),
}

PLACEMENTS = {
    "one-block": lambda tiles: {},
    "vectorized-list": lambda tiles: {"options": VEC},
    "dist": lambda tiles: {"dist": True, "workers": 2},
    "ooc-dividing": lambda tiles: {
        "ooc": True, "options": CodegenOptions(tile=tiles[0])},
    "ooc-non-dividing": lambda tiles: {
        "ooc": True, "options": CodegenOptions(tile=tiles[1])},
}

#: The counter each placement's admitted runs record.
RAN = {"one-block": "iterate.block.sweeps", "dist": "dist.blocks",
       "ooc-dividing": "ooc.tiles", "ooc-non-dividing": "ooc.tiles"}


def seed(rank: int, m: int) -> FlatArray:
    """A fixed boundary at the sum of the indices, a noisy interior."""
    rng = random.Random(m * 10 + rank)
    cells = []
    for flat in range(m ** rank):
        at = [(flat // m ** (rank - 1 - axis)) % m + 1
              for axis in range(rank)]
        edge = any(x in (1, m) for x in at)
        cells.append(float(sum(at)) if edge else rng.uniform(-1.0, 1.0))
    low, high = (1,) * rank, (m,) * rank
    return FlatArray.from_list((low, high), cells)


_ORACLE = {}


def oracle(name, sweeps):
    """The oracle's result, after checking that it converges within
    ``sweeps`` sweeps and not within one fewer (once per program)."""
    source, rank, params, _, _ = PROGRAMS[name]
    bindings = dict(params, tol=1e-3, u0=seed(rank, params["m"]))
    if name not in _ORACLE:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(iterate, "CONVERGE_CAP", sweeps)
            result = repro.run_program(source, bindings=bindings)
            patch.setattr(iterate, "CONVERGE_CAP", sweeps - 1)
            with pytest.raises(InterpError, match="no fixpoint"):
                repro.run_program(source, bindings=bindings)
        _ORACLE[name] = (result, sweeps)
    return _ORACLE[name]


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_matches_the_oracle_in_every_placement(name, placement):
    if placement == "dist" and not fork_available():
        pytest.skip("dist needs fork")
    source, rank, params, tiles, refusal = PROGRAMS[name]
    params = dict(params, tol=1e-3)
    program = compile_program(source, params=params,
                              **PLACEMENTS[placement](tiles))
    (plan,) = [s.iterate for s in program.steps if s.iterate]
    if placement == "vectorized-list":
        plan.block = None  # the list path runs the vectorized step
    reset_runtime_counters()
    got = program(dict(params, u0=seed(rank, params["m"])))
    counters = runtime_counters()
    want, sweeps = oracle(name, counters[SWEEPS])
    assert got.bounds == want.bounds
    assert bits(got) == bits(want)
    assert counters[SWEEPS] == sweeps
    ran = RAN.get(placement)
    if refusal is None:
        assert ran is None or counters.get(ran, 0) > 0
    else:
        assert ran is None or ran not in counters
        if placement != "vectorized-list":
            assert any(refusal in line for line in program.report.iterate
                       + program.report.fallbacks)


def unchecked_vector(src: str, params: dict) -> CompiledComp:
    """``src``'s vectorized module from the emitter layer, which
    compiles none of the checks the facade would add."""
    report = repro.analyze(src, params)
    return CompiledComp(emit_thunkless(report.comp, report.schedule, VEC,
                                       params, edges=report.edges),
                        report)


def block_source(source: str, m: int) -> str:
    program = compile_program(source, params={"m": m, "tol": 1e-3})
    (plan,) = [s.iterate for s in program.steps if s.iterate]
    return plan.block.kernel.source


class TestEmittedKernel:
    def test_jacobi_block_kernel_holds_no_for_statement(self):
        source = block_source(JACOBI5, 9)
        assert "for " not in source
        # One rank-2 statement for the interior, one hoisted guard per
        # copied row, and no per-call bounds tuples.
        assert source.count("_nd_out[") == 1
        assert source.count("_v__dga0_s <= ") == 2
        assert "Bounds(" not in source and ".dims" not in source

    def test_three_d_faces_are_rank_two_statements(self):
        source = block_source(SEVEN_POINT, 6)
        assert "for " not in source
        assert source.count("_nd_out[") == 7

    @pytest.mark.parametrize("read, moves", [
        ("u!(j,i)", "i"), ("u!(i+j,j)", "i, j")])
    def test_transposed_and_diagonal_reads_stay_per_row(self, read,
                                                        moves):
        src = f"""
        letrec a = array ((1,1),(m,m))
          [ (i,j) := 0.5 * {read} | i <- [1..m], j <- [1..m] ]
        in a
        """
        m = 5 if "+" not in read else 4
        compiled = repro.compile(src, params={"m": m}, options=VEC)
        assert "for i in range" in compiled.source
        assert "_nd_out" not in compiled.source
        reason = [line for line in compiled.report.parallel
                  if line.startswith("loops i, j (clause 1): no rank-2 "
                                     "slices")]
        assert reason and f"moves with {moves})" in reason[0]
        size = 2 * m if "+" in read else m
        u = FlatArray.from_list(((1, 1), (size, m)),
                                [float(k) for k in range(size * m)])
        want = repro.evaluate(src, bindings={"m": m, "u": u}, deep=False)
        assert compiled({"m": m, "u": u}).to_list() == [
            want.at((i, j)) for i in range(1, m + 1)
            for j in range(1, m + 1)]


class TestFloatTraps:
    """A clause that may raise in Python stays off every vector path."""

    SOURCE = "array (1,n) [ i := 1.0 / (u!i - 2.0) | i <- [1..n] ]"

    @pytest.mark.parametrize("options", [CodegenOptions(vectorize=True)],
                             ids=["vectorize"])
    def test_zero_divisor_raises_like_the_oracle(self, options):
        u = FlatArray.from_list((1, 4), [1.0, 2.0, 3.0, 4.0])
        compiled = repro.compile(self.SOURCE, params={"n": 4},
                                 options=options)
        assert "_vslice(" not in compiled.source
        assert ("clause 1: '/' by a divisor that is not a nonzero "
                "literal — kept scalar, since numpy gives inf or NaN "
                "where Python raises") in compiled.report.parallel
        lazy = repro.evaluate(self.SOURCE, bindings={"n": 4, "u": u},
                              deep=False)
        with pytest.raises(ZeroDivisionError):
            lazy.at(2)
        with pytest.raises(ZeroDivisionError):
            compiled({"n": 4, "u": u})

    # Guarded clauses are not provably total, so the facade compiles
    # their empties check and keeps them scalar.  The emitter layer
    # compiles no checks: it still vectorizes guards.

    def test_a_trap_in_a_hoisted_guard_keeps_the_loop_scalar(self):
        src = ("array (1,n) [ i := 2.0 * u!i | i <- [1..n], "
               "1.0 / w > 0.0 ]")
        compiled = unchecked_vector(src, {"n": 4})
        assert "for i in range" in compiled.source
        u = FlatArray.from_list((1, 4), [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ZeroDivisionError):
            compiled({"n": 4, "u": u, "w": 0.0})

    def test_a_trap_free_invariant_guard_is_hoisted(self):
        src = ("array (1,n) ([ i := 2.0 * u!i | i <- [1..n], w > 0.0 ] "
               "++ [ i := 0.0 | i <- [1..n], w <= 0.0 ])")
        compiled = unchecked_vector(src, {"n": 4})
        assert "for i in range" not in compiled.source
        assert compiled.source.count("> 0 and ") == 2
        u = FlatArray.from_list((1, 4), [1.0, 2.0, 3.0, 4.0])
        for w in (1.0, -1.0):
            want = repro.evaluate(src, bindings={"n": 4, "u": u, "w": w},
                                  deep=False)
            got = compiled({"n": 4, "u": u, "w": w})
            assert got.to_list() == [want.at(i) for i in range(1, 5)]


class TestEmptyAndDegenerateNests:
    """Vector statements run what the scalar loops run, and no more."""

    def test_an_empty_nest_evaluates_no_read(self):
        # x!(n+1) is out of range, but the loop that reads it is empty:
        # the oracle never evaluates it, so neither may the slice.
        src = ("array (1,n) ([ i := 2.0 * x!i | i <- [1..n] ] ++ "
               "[ i := x!(n+1) | i <- [n+1..n] ])")
        x = FlatArray.from_list((1, 3), [1.0, 2.0, 3.0])
        compiled = repro.compile(src, params={"n": 3}, options=VEC)
        assert compiled({"n": 3, "x": x}).to_list() == [2.0, 4.0, 6.0]

    def test_strides_that_cancel_name_one_cell(self):
        # Along j the read moves -1 row and +1 column; with one column
        # the flat stride is 0, and the one instance reads one cell.
        src = "array (1,1) [ j := x!(2-j,j) | j <- [1..1] ]"
        x = FlatArray.from_list(((1, 1), (1, 1)), [5.0])
        compiled = repro.compile(src, options=VEC)
        assert "_vslice(" in compiled.source
        assert compiled({"x": x}).to_list() == [5.0]
