"""The backend registry: registration, dispatch, and option conflicts.

Covers the registry API (register/get/names/availability), the
``lower()`` dispatch policy (default short-circuit, loud unknown
names, reasoned fallbacks), and the full pairwise conflict matrix of
``backend=`` against the options the C tier does not lower.
"""

import itertools

import pytest

import repro
from repro.backends import (
    Backend,
    BackendUnsupported,
    LoweringJob,
    available_backends,
    backend_names,
    get_backend,
    lower,
    register_backend,
)
from repro.backends import _REGISTRY
from repro.backends.native import toolchain_status
from repro.codegen.emit import CodegenOptions
from repro.codegen.exprs import CodegenError
from repro.core.pipeline import Report
from repro.kernels import JACOBI, SQUARES
from repro.obs.trace import Trace, tracing


@pytest.fixture
def scratch_backend():
    """Remove any test-registered backend names afterwards."""
    before = set(backend_names())
    yield
    for name in set(backend_names()) - before:
        _REGISTRY.pop(name, None)


class TestRegistry:
    def test_builtins_registered(self):
        assert "python" in backend_names()
        assert "c" in backend_names()

    def test_python_always_available(self):
        assert available_backends()["python"] is None

    def test_unknown_backend_is_loud(self):
        with pytest.raises(CodegenError, match="unknown backend"):
            get_backend("fortran")

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(CodegenError, match="python"):
            get_backend("fortran")

    def test_register_callable(self, scratch_backend):
        backend = register_backend("echo", lambda job: "def _build(e):\n"
                                                       "    return e")
        assert backend.name == "echo"
        assert "echo" in backend_names()
        assert get_backend("echo") is backend

    def test_register_class(self, scratch_backend):
        class Dummy(Backend):
            def emit(self, job):
                return "source"

        backend = register_backend("dummy", Dummy)
        assert isinstance(backend, Dummy)
        assert backend.name == "dummy"

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError):
            register_backend("", lambda job: "")
        with pytest.raises(ValueError):
            register_backend(None, lambda job: "")

    def test_register_rejects_non_callable(self):
        with pytest.raises(TypeError):
            register_backend("bad", 42)


class TestLowerDispatch:
    def _job(self, backend_name):
        compiled = repro.compile(SQUARES, params={"n": 4})
        report = compiled.report
        return LoweringJob(
            mode="thunkless", comp=report.comp,
            options=CodegenOptions(backend=backend_name),
            schedule=report.schedule, params={"n": 4},
            edges=report.edges,
        ), Report()

    def test_default_backend_short_circuits(self):
        job, report = self._job("python")
        source = lower(job, report)
        assert "_build" in source
        assert report.backend_used == "python"
        assert report.backend == []

    def test_unknown_backend_raises(self):
        job, report = self._job("fortran")
        with pytest.raises(CodegenError, match="unknown backend"):
            lower(job, report)

    def test_unsupported_falls_back_with_reason(self, scratch_backend):
        class Refuses(Backend):
            def emit(self, job):
                raise BackendUnsupported("no lowering for this shape")

        register_backend("refuses", Refuses)
        job, report = self._job("refuses")
        trace = Trace("t")
        with tracing(trace):
            source = lower(job, report)
        assert "_build" in source  # python emitter produced the code
        assert report.backend_used == "python"
        assert any("no lowering for this shape" in line
                   for line in report.backend)
        assert trace.counters().get("backend.refuses.fallback") == 1

    def test_unavailable_skips_with_reason(self, scratch_backend):
        class Unavailable(Backend):
            def availability(self):
                return "toolchain missing"

            def emit(self, job):  # pragma: no cover - must not be hit
                raise AssertionError("emit called on unavailable backend")

        register_backend("absent", Unavailable)
        job, report = self._job("absent")
        trace = Trace("t")
        with tracing(trace):
            source = lower(job, report)
        assert "_build" in source
        assert report.backend_used == "python"
        assert any("toolchain missing" in line for line in report.backend)
        assert trace.counters().get("backend.absent.unavailable") == 1

    def test_success_counts_and_records(self, scratch_backend):
        class Always(Backend):
            def emit(self, job):
                return "def _build(_env):\n    return None"

        register_backend("always", Always)
        job, report = self._job("always")
        trace = Trace("t")
        with tracing(trace):
            source = lower(job, report)
        assert "return None" in source
        assert report.backend_used == "always"
        assert report.backend == []
        assert trace.counters().get("backend.always.lowered") == 1


# ----------------------------------------------------------------------
# The conflict matrix: backend= against every option the C tier does
# not lower, one at a time and pairwise.  Construction accepts every
# combination; the C backend refuses the job with a reason, and the
# python module it falls back to is the one backend="python" emits.

#: Options the C backend refuses, as CodegenOptions kwargs, with the
#: reason it names.
_CONFLICTING = {
    "vectorize": ({"vectorize": True}, "vectorize requested"),
    "bounds-checks": ({"bounds_checks": True}, "bounds_checks on"),
    "collision-checks": ({"collision_checks": True}, "collision_checks on"),
    "empties-check": ({"empties_check": True}, "empties_check on"),
}
#: The order the C backend checks them in.
_REFUSAL_ORDER = list(_CONFLICTING)

needs_cc = pytest.mark.skipif(
    toolchain_status() is not None,
    reason=f"native toolchain unavailable: {toolchain_status()}",
)


def _fields(*flags):
    out = {}
    for flag in flags:
        out.update(_CONFLICTING[flag][0])
    return out


def _compile(options):
    return repro.compile(SQUARES, params={"n": 4}, options=options)


class TestFromFlagsBackend:
    """Options as the CLI's ``--backend``, ``--vectorize`` and check
    flags build them: every combination constructs, and the C backend
    refuses what it cannot lower with a reason and python's module."""

    def test_all_defaults_returns_none(self):
        # Every field at its default is the ``None`` request: the same
        # module, report summary and fingerprint.
        default = _compile(CodegenOptions(backend="python"))
        auto = _compile(None)
        assert default.source == auto.source
        assert default.report.summary() == auto.report.summary()
        assert repro.fingerprint(SQUARES, {"n": 4}) == repro.fingerprint(
            SQUARES, {"n": 4}, options=CodegenOptions())

    def test_backend_c_alone_is_allowed(self):
        options = CodegenOptions(backend="c")
        assert options.backend == "c"
        assert not options.vectorize and not options.checked

    def test_backend_c_with_inplace_is_allowed(self):
        compiled = repro.compile(JACOBI, old_array="u", params={"m": 8},
                                 options=CodegenOptions(backend="c"))
        assert compiled.report.strategy == "inplace"

    def test_unknown_backend_name_is_loud(self):
        # Construction takes any name; the registry refuses it.
        options = CodegenOptions(backend="fortran")
        with pytest.raises(repro.CompileError,
                           match="unknown backend 'fortran'"):
            _compile(options)

    @needs_cc
    @pytest.mark.parametrize("flag", sorted(_CONFLICTING))
    def test_backend_c_conflicts(self, flag):
        c = _compile(CodegenOptions(backend="c", **_fields(flag)))
        assert c.report.backend_used == "python"
        [line] = c.report.backend
        assert _CONFLICTING[flag][1] in line
        assert c.source == _compile(CodegenOptions(**_fields(flag))).source

    @pytest.mark.parametrize("flag", sorted(_CONFLICTING))
    def test_python_backend_accepts_each_flag(self, flag):
        compiled = _compile(CodegenOptions(**_fields(flag)))
        assert compiled.report.backend_used == "python"
        assert compiled.report.backend == []

    @needs_cc
    @pytest.mark.parametrize(
        "first,second",
        list(itertools.combinations(sorted(_CONFLICTING), 2)),
    )
    def test_pairwise_combinations_still_conflict(self, first, second):
        """Any flag pair plus backend=c falls back on the first the C
        backend checks, with python's module."""
        fields = _fields(first, second)
        c = _compile(CodegenOptions(backend="c", **fields))
        [line] = c.report.backend
        named = min(first, second, key=_REFUSAL_ORDER.index)
        assert _CONFLICTING[named][1] in line
        assert c.source == _compile(CodegenOptions(**fields)).source

    @pytest.mark.parametrize(
        "first,second",
        list(itertools.combinations(sorted(_CONFLICTING), 2)),
    )
    def test_pairwise_combinations_fine_without_backend(self, first,
                                                        second):
        compiled = _compile(CodegenOptions(**_fields(first, second)))
        assert compiled.report.backend_used == "python"
        assert compiled.report.backend == []
