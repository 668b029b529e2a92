"""A diverging solve ends in the same error wherever its sweeps run.

Once a sweep overflows, ``inf - inf`` makes convergence deltas NaN.
Every fold treats a NaN delta as "not converged", so the solve runs to
the sweep cap and fails the same way at every mesh size — the scalar
``max_abs_diff`` loop serves meshes of at most 64 cells, numpy larger
ones — and in every placement: the in-memory one block (python), the
in-memory driver on C, the native C sweep loop, out-of-core tiles,
dist blocks and wavefronts, and the lazy oracle.  Every compiled
placement also counts the same sweeps — the cap — under
``iterate.sweeps.<mode>``.

The oracle interprets a sweep in milliseconds, so the cap is lowered
to :data:`CAP` in :mod:`repro.program.iterate`, which every placement
reads at call time.  The 1e300 coefficients overflow within a few
sweeps, long before the cap.
"""

import pytest

import repro
from repro.backends.native import toolchain_status
from repro.codegen.emit import CodegenOptions
from repro.dist.pool import fork_available
from repro.interp.interp import InterpError
from repro.obs.trace import (
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
)
from repro.program import ProgramError, iterate

CAP = 40
TOL = 1e-6

MESH = """
u0 = array ((1,1),(m,m))
  [ (i,j) := if i == 1 || i == m || j == 1 || j == m
             then 1.0 * (i + j) else 0.0
  | i <- [1..m], j <- [1..m] ];
"""

#: Rows up to ``h`` hold still while the rows below blow up, so the NaN
#: reaches only the second dist block and the second tile: a fold that
#: drops a NaN arriving as its later operand would stop early.
JACOBI = MESH + """
step u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := u!(i,j) | i <- [2..h], j <- [2..m-1] ] ++
    [ (i,j) := 1.0e300 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
      | i <- [h+1..m-1], j <- [2..m-1] ])
  in a;
main = converge step u0 tol
"""

SOR = MESH + """
sweep u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := u!(i,j) + 1.0e300 *
         (0.25 * (a!(i-1,j) + a!(i,j-1) + u!(i+1,j) + u!(i,j+1))
          - u!(i,j))
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
main = converge sweep u0 tol
"""

NO_CC = toolchain_status() is not None
MESSAGE = f"converge: no fixpoint within {CAP} sweeps (tol={TOL!r})"


@pytest.fixture(autouse=True)
def low_cap(monkeypatch):
    monkeypatch.setattr(iterate, "CONVERGE_CAP", CAP)


@pytest.fixture(autouse=True)
def traced(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    refresh_runtime_tracing()
    yield
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    refresh_runtime_tracing()


def _placements(m):
    """(label, compile kwargs, plan attribute that must be attached)."""
    yield "python", {}, "block"
    if not NO_CC:
        yield "c", {"options": CodegenOptions(backend="c")}, None
    yield "ooc", {"ooc": True,
                  "options": CodegenOptions(tile=m // 2)}, "ooc"
    if fork_available():
        yield "dist", {"dist": True, "workers": 2}, "dist"


def _fails_like_everyone(source, m, placements):
    params = {"m": m, "h": m // 2, "tol": TOL}
    with pytest.raises(InterpError) as oracle:
        repro.run_program(source, bindings=dict(params))
    assert str(oracle.value).startswith(MESSAGE)
    for label, kwargs, attached in placements:
        program = repro.compile_program(source, params=params, **kwargs)
        (plan,) = [s.iterate for s in program.steps
                   if s.iterate is not None]
        if attached is not None:
            assert getattr(plan, attached), label
        reset_runtime_counters()
        with pytest.raises(ProgramError) as err:
            program(dict(params))
        assert str(err.value) == MESSAGE, label
        counters = runtime_counters()
        assert counters.get(f"iterate.sweeps.{plan.mode}") == CAP, label


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("m", [8, 12])
def test_diverging_jacobi_fails_the_same_everywhere(m):
    _fails_like_everyone(JACOBI, m, list(_placements(m)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("m", [8, 12])
def test_diverging_sor_fails_the_same_in_the_native_loop(m):
    placements = [("python", {}, None)]
    if not NO_CC:
        placements.append(
            ("c", {"options": CodegenOptions(backend="c")},
             "native_sweeps"))
    if fork_available():
        placements.append(("dist", {"dist": True, "workers": 2}, "dist"))
    _fails_like_everyone(SOR, m, placements)
