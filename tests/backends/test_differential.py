"""Differential suite: the C backend vs the python backend vs the oracle.

Bit-identical floats are the contract — not approximately equal.  The
C emitter preserves the python emitter's parenthesization, compiles
with FP contraction off, and mirrors CPython's libm calls, so every
kernel in the catalog (and randomized comprehensions) must produce
the exact same cell list.  The suite needs a C toolchain; without one
it skips, mirroring the backend's own skip-don't-fail policy.
"""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.backends.native import toolchain_status
from repro.codegen.emit import CodegenOptions
from repro.codegen.support import Bounds, FlatArray
from repro.kernels import CATALOG, PROGRAM_CATALOG, mesh_cells
from repro.obs.explain import explain_report
from repro.obs.trace import (
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
)
from repro.program import ProgramError
from repro.program import run as program_run

NO_CC = toolchain_status() is not None
needs_cc = pytest.mark.skipif(
    NO_CC, reason=f"native toolchain unavailable: {toolchain_status()}"
)

C_OPTIONS = CodegenOptions(backend="c")

#: In-place SOR over the seed ``u0``.  Its §9 plan is a clean split, so
#: the C step lowers with its own sweep loop: one native call a solve.
SOR_STEP = """
sweep u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := u!(i,j) + omega *
         (0.25 * (a!(i-1,j) + a!(i,j-1) + u!(i+1,j) + u!(i,j+1))
          - u!(i,j))
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
"""
SOR_CONVERGE = SOR_STEP + "main = converge sweep u0 tol\n"
SOR_ITERATE = SOR_STEP + "main = iterate sweep u0 k\n"
#: The seed is a program binding that ``main`` reads after the loop,
#: so it stays live and the sweeps must run in a private copy.
SOR_LIVE_SEED = """
u0 = array ((1,1),(m,m))
  [ (i,j) := if i == 1 || i == m || j == 1 || j == m
             then 1.0 * (i + j) else 0.0
  | i <- [1..m], j <- [1..m] ];
""" + SOR_STEP + """
v = converge sweep u0 tol;
main = array ((1,1),(m,m))
  [ (i,j) := v!(i,j) - u0!(i,j) | i <- [1..m], j <- [1..m] ]
"""
SOR_M = 9
SOR_PARAMS = {"m": SOR_M, "omega": 1.5}


def sor_seed(as_array: bool = False) -> FlatArray:
    """A fresh SOR seed: a list, or a float64 buffer like C results."""
    cells = mesh_cells(SOR_M)
    return FlatArray(Bounds((1, 1), (SOR_M, SOR_M)),
                     np.array(cells) if as_array else cells)


def bits(result) -> bytes:
    """The float64 bits of a result (bit identity, not ``==``)."""
    return array("d", result.to_list()).tobytes()


@pytest.fixture
def traced(monkeypatch):
    """Runtime counters on (``REPRO_TRACE=1``) for one test."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    refresh_runtime_tracing()
    reset_runtime_counters()
    yield
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    refresh_runtime_tracing()
    reset_runtime_counters()


#: Environments per catalog kernel: params plus a fresh-input factory
#: (in-place compiles mutate their inputs, so every run needs its own).
_PARAMS = {
    "wavefront": {"n": 12},
    "wavefront_f": {"n": 12},
    "sor_monolithic": {"m": 10, "omega": 1.25},
    "stride3": {},
    "example2": {},
    "abc_acyclic": {},
    "cyclic_fallback": {},
    "forward_recurrence": {"n": 12},
    "backward_recurrence": {"n": 12},
    "matmul": {"n": 7},
    "squares": {"n": 12},
    "pascal": {"n": 10},
    "swap": {"m": 5, "n": 7, "i": 2, "k": 4},
    "jacobi": {"m": 9},
    "sor": {"m": 9, "omega": 1.3},
    "gauss_seidel": {"m": 9},
    "saxpy_row": {"m": 5, "n": 7, "i": 2, "k": 3, "s": 0.5},
    "scale_row": {"m": 5, "n": 7, "i": 2, "s": 1.5},
    "reverse": {"n": 11},
    "permutation_scatter": {"n": 12},
    "histogram": {"n": 20, "m": 6},
    "spmv_csr": {"m": 4},
}


def _inputs(name):
    """Fresh input arrays for one catalog kernel."""
    params = _PARAMS[name]
    if name == "sor_monolithic":
        m = params["m"]
        return {"u": FlatArray(Bounds((1, 1), (m, m)), mesh_cells(m))}
    if name in ("jacobi", "sor", "gauss_seidel"):
        m = params["m"]
        return {"u": FlatArray(Bounds((1, 1), (m, m)), mesh_cells(m))}
    if name in ("swap", "saxpy_row", "scale_row"):
        m, n = params["m"], params["n"]
        return {"a": FlatArray(Bounds((1, 1), (m, n)),
                               [float(i) * 0.5 for i in range(m * n)])}
    if name == "reverse":
        n = params["n"]
        return {"a": FlatArray(Bounds(1, n),
                               [float(i) * 1.5 for i in range(n)])}
    if name in ("forward_recurrence", "backward_recurrence"):
        n = params["n"]
        return {
            "b": FlatArray(Bounds(1, n),
                           [float(i % 4) + 0.5 for i in range(n)]),
            "c": FlatArray(Bounds(1, n),
                           [0.25 + 0.01 * i for i in range(n)]),
        }
    if name == "permutation_scatter":
        n = params["n"]
        return {
            "p": FlatArray(Bounds(1, n),
                           [((5 * i) % n) + 1 for i in range(n)]),
            "b": FlatArray(Bounds(1, n),
                           [0.5 * i - 2.0 for i in range(n)]),
        }
    if name == "histogram":
        n, m = params["n"], params["m"]
        return {"k": FlatArray(Bounds(1, n),
                               [(i * 7) % m + 1 for i in range(n)])}
    if name == "spmv_csr":
        return {
            "ptr": FlatArray(Bounds(1, 5), [1, 3, 4, 6, 7]),
            "col": FlatArray(Bounds(1, 6), [1, 3, 2, 1, 4, 2]),
            "v": FlatArray(Bounds(1, 6), [5.0, 1.0, 2.0, 3.0, 4.0, 6.0]),
            "x": FlatArray(Bounds(1, 4), [1.0, 2.0, 3.0, 4.0]),
        }
    if name == "matmul":
        n = params["n"]
        return {
            "x": FlatArray(Bounds((1, 1), (n, n)),
                           [0.5 * (i % 7) + 0.25 for i in range(n * n)]),
            "y": FlatArray(Bounds((1, 1), (n, n)),
                           [0.125 * (i % 5) - 1.0 for i in range(n * n)]),
        }
    return {}


def _compile_pair(name):
    spec = CATALOG[name]
    params = _PARAMS[name]
    kwargs = {"params": params}
    if spec["kind"] == "inplace":
        kwargs.update(strategy="inplace", old_array=spec["old"])
    py = repro.compile(spec["source"], **kwargs)
    c = repro.compile(spec["source"], options=C_OPTIONS, **kwargs)
    return py, c, params


@needs_cc
class TestCatalogDifferential:
    @pytest.mark.parametrize(
        "name",
        [n for n, spec in sorted(CATALOG.items())
         if not spec.get("partial")],
    )
    def test_bit_identical_with_python_backend(self, name):
        py, c, params = _compile_pair(name)
        out_py = py(dict(_inputs(name), **params)).to_list()
        out_c = c(dict(_inputs(name), **params)).to_list()
        assert out_py == out_c, (
            f"{name}: C backend diverged (backend_used="
            f"{c.report.backend_used}, log={c.report.backend})"
        )

    def test_partial_comprehension_falls_back_with_reason(self):
        """Partial kernels cannot run (undefined cells raise), but the
        C backend must refuse them loudly at compile time — a C double
        buffer cannot represent an undefined cell."""
        _, c, _ = _compile_pair("example2")
        assert c.report.backend_used == "python"
        assert any("not provably total" in line
                   for line in c.report.backend)

    @pytest.mark.parametrize(
        "name",
        [n for n, spec in sorted(CATALOG.items())
         if spec["kind"] == "monolithic" and not spec.get("partial")],
    )
    def test_bit_identical_with_lazy_oracle(self, name):
        _, c, params = _compile_pair(name)
        env = dict(_inputs(name), **params)
        out_c = c(dict(env)).to_list()
        oracle = repro.evaluate(CATALOG[name]["source"], bindings=env,
                                deep=False)
        assert out_c == oracle.to_list()

    @pytest.mark.parametrize("name", sorted(PROGRAM_CATALOG))
    def test_programs_bit_identical(self, name):
        spec = PROGRAM_CATALOG[name]
        py = repro.compile_program(spec["source"], params=spec["params"])
        c = repro.compile_program(spec["source"], params=spec["params"],
                                  options=C_OPTIONS)
        assert py({}).to_list() == c({}).to_list()

    def test_convergence_sweep_counts_match(self, traced):
        """Same fixpoint in the same number of sweeps (not just the
        same final mesh): the convergence metric sees bit-identical
        intermediate meshes, so the sweep counters agree exactly —
        for Jacobi's double-buffer driver and for SOR's in-place
        sweeps, which the C step runs in its own native loop."""
        jacobi = PROGRAM_CATALOG["program_jacobi"]
        cases = (
            (jacobi["source"], jacobi["params"], lambda: {},
             "iterate.sweeps.double"),
            (SOR_CONVERGE, SOR_PARAMS,
             lambda: {"u0": sor_seed(), "tol": 1e-6},
             "iterate.sweeps.inplace"),
        )
        for source, params, inputs, counter in cases:
            sweeps, results = {}, {}
            for label, options in (("python", None), ("c", C_OPTIONS)):
                program = repro.compile_program(
                    source, params=params, options=options,
                )
                reset_runtime_counters()
                results[label] = bits(program(inputs()))
                sweeps[label] = runtime_counters().get(counter, 0)
            assert sweeps["python"] > 1, counter
            assert sweeps["python"] == sweeps["c"], counter
            assert results["python"] == results["c"], counter


@needs_cc
class TestNativeSweepLoop:
    """C-lowered in-place steps run every sweep in one native call,
    with the outcome of the python backend's per-sweep driver and of
    the lazy oracle for every input."""

    def _pair(self, source, params):
        py = repro.compile_program(source, params=params)
        c = repro.compile_program(source, params=params,
                                  options=C_OPTIONS)
        (plan,) = [s.iterate for s in py.steps if s.iterate is not None]
        assert not plan.native_sweeps
        (plan,) = [s.iterate for s in c.steps if s.iterate is not None]
        assert plan.native_sweeps
        return py, c

    @pytest.mark.parametrize("as_array", [False, True],
                             ids=["list", "float64"])
    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_iterate_matches_python_and_oracle(self, k, as_array):
        params = dict(SOR_PARAMS, k=k)
        py, c = self._pair(SOR_ITERATE, params)
        seed = sor_seed(as_array)
        before = bits(seed)
        out = c({"u0": seed})
        assert bits(out) == bits(py({"u0": sor_seed(as_array)}))
        oracle = repro.run_program(SOR_ITERATE,
                                   bindings=dict(params, u0=sor_seed()))
        assert bits(out) == bits(oracle)
        # The caller's seed is never swept, even for k = 0.
        assert bits(seed) == before
        assert out.cells is not seed.cells

    def test_live_seed_read_after_the_loop_is_unchanged(self):
        params = dict(SOR_PARAMS, tol=1e-6)
        py, c = self._pair(SOR_LIVE_SEED, params)
        got = c(dict(params))
        assert bits(got) == bits(py(dict(params)))
        oracle = repro.run_program(SOR_LIVE_SEED, bindings=dict(params))
        assert bits(got) == bits(oracle)
        assert any(cell != 0.0 for cell in got.to_list())

    def test_cap_error_matches(self, monkeypatch):
        # A negative tolerance is never reached; a lowered cap keeps
        # the python backend's run short, and shows the native loop
        # takes its cap from the driver at run time.
        monkeypatch.setattr(program_run, "CONVERGE_CAP", 25)
        py, c = self._pair(SOR_CONVERGE, SOR_PARAMS)
        messages = []
        for program in (py, c):
            with pytest.raises(ProgramError) as err:
                program({"u0": sor_seed(), "tol": -1.0})
            messages.append(str(err.value))
        assert messages == [
            "converge: no fixpoint within 25 sweeps (tol=-1.0)"] * 2

    @pytest.mark.parametrize("tol", ["1e-6", None, 1j])
    def test_non_numeric_tol_raises_like_python(self, tol):
        py, c = self._pair(SOR_CONVERGE, SOR_PARAMS)
        for program in (py, c):
            with pytest.raises(TypeError):
                program({"u0": sor_seed(), "tol": tol})

    def test_int_tolerances_match(self):
        # 10**400 is beyond float64: the native loop compares with inf.
        py, c = self._pair(SOR_CONVERGE, SOR_PARAMS)
        for tol in (1, 10 ** 400):
            want = bits(py({"u0": sor_seed(), "tol": tol}))
            assert bits(c({"u0": sor_seed(), "tol": tol})) == want

    def test_converge_is_one_kernel_call(self, traced):
        _, c = self._pair(SOR_CONVERGE, SOR_PARAMS)
        reset_runtime_counters()
        c({"u0": sor_seed(), "tol": 1e-6})
        counters = runtime_counters()
        assert counters.get("backend.c.kernel_calls") == 1
        assert counters.get("iterate.sweeps.inplace", 0) > 1


# ----------------------------------------------------------------------
# Randomized comprehensions (hypothesis): float stencils with guards,
# reductions, and libm calls — shapes the C tier lowers natively.


@st.composite
def float_stencil(draw):
    n = draw(st.integers(4, 12))
    # |coeff| < 1 keeps the recurrence bounded; sin/cos/sqrt stay in
    # range at any depth (exp would overflow differently per backend).
    coeff = draw(st.floats(-0.9, 0.9, allow_nan=False))
    shift = draw(st.integers(1, 3))
    fn = draw(st.sampled_from(["", "sqrt", "sin", "cos", "abs"]))
    seed_expr = draw(st.sampled_from(
        ["0.5 * i", "1.0 * i * i", "1.0 / i"]
    ))
    body = f"a!(i-{shift}) * ({coeff!r}) + {seed_expr}"
    if fn == "sqrt":
        body = f"sqrt(abs({body}))"
    elif fn:
        body = f"{fn}({body})"
    src = (
        f"letrec a = array (1,{n})\n"
        f"  ([ i := {seed_expr} | i <- [1..{shift}] ] ++\n"
        f"   [ i := {body} | i <- [{shift + 1}..{n}] ])\n"
        "in a"
    )
    return src, n


@needs_cc
class TestRandomizedDifferential:
    @given(case=float_stencil())
    @settings(max_examples=30, deadline=None)
    def test_random_recurrences_bit_identical(self, case):
        src, n = case
        py = repro.compile(src, params={"n": n})
        c = repro.compile(src, params={"n": n},
                          options=CodegenOptions(backend="c"))
        assert py({}).to_list() == c({}).to_list()

    @given(
        n=st.integers(3, 10),
        scale=st.floats(0.125, 3.0, allow_nan=False),
        guard_at=st.integers(2, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_guarded_reductions_bit_identical(self, n, scale,
                                                     guard_at):
        src = (
            f"letrec a = array (1,{n})\n"
            f"  [ i := if i < {guard_at}\n"
            f"         then {scale!r} * i\n"
            f"         else sum [ {scale!r} / k | k <- [1..i] ]\n"
            f"  | i <- [1..{n}] ]\n"
            "in a"
        )
        py = repro.compile(src, params={"n": n})
        c = repro.compile(src, params={"n": n},
                          options=CodegenOptions(backend="c"))
        assert py({}).to_list() == c({}).to_list()


# ----------------------------------------------------------------------
# Golden explain output for a reasoned fallback.


class TestExplainBackend:
    def test_golden_fallback_trace(self):
        from repro.kernels import CYCLIC_FALLBACK

        compiled = repro.compile(CYCLIC_FALLBACK, options=C_OPTIONS)
        rendered = explain_report(compiled.report).render()
        lines = rendered.splitlines()
        start = lines.index("backend:")
        backend_section = []
        for line in lines[start + 1:]:
            if not line.startswith("  "):
                break
            backend_section.append(line.strip())
        assert ("emitter: fallback — python emitter produced the code"
                in backend_section)
        assert any(
            line.startswith("dispatch: info — backend c fell back on "
                            "thunked lowering:")
            and line.endswith("python emitter used")
            for line in backend_section
        )

    @needs_cc
    def test_explain_records_native_lowering(self):
        from repro.kernels import SQUARES

        compiled = repro.compile(SQUARES, params={"n": 4},
                                 options=C_OPTIONS)
        explanation = explain_report(compiled.report)
        backend = explanation.by_area("backend")
        assert any(
            d.verdict == "accepted" and "'c'" in d.reason
            for d in backend
        )

    def test_default_compile_has_no_backend_noise(self):
        from repro.kernels import SQUARES

        compiled = repro.compile(SQUARES, params={"n": 4})
        explanation = explain_report(compiled.report)
        assert explanation.by_area("backend") == []
        assert "backend" not in compiled.report.summary()
