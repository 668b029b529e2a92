"""The two backends: the closed name set, dispatch, and option conflicts.

Covers the backend names (``BACKENDS``, refused at construction when
unknown), the ``lower()`` dispatch policy (default short-circuit,
reasoned fallbacks), and the full pairwise conflict matrix of
``backend=`` against the options the C tier does not lower.
"""

import itertools

import pytest

import repro
from repro.backends import BackendUnsupported, LoweringJob, lower
from repro.backends.native import toolchain_status
from repro.codegen.emit import BACKENDS, CodegenOptions
from repro.codegen.exprs import CodegenError
from repro.core.pipeline import Report
from repro.kernels import JACOBI, SQUARES
from repro.obs.trace import Trace, tracing


class TestRegistry:
    """The backend names are a closed set, checked when the options
    are built."""

    def test_builtins_registered(self):
        assert BACKENDS == ("python", "c")
        for name in BACKENDS:
            assert CodegenOptions(backend=name).backend == name

    def test_python_always_available(self, monkeypatch):
        # A python request never asks for the toolchain.
        def probe():  # pragma: no cover - must not be called
            raise AssertionError("python lowering probed the toolchain")

        monkeypatch.setattr("repro.backends.native.toolchain_status", probe)
        compiled = repro.compile(SQUARES, params={"n": 4})
        assert compiled.report.backend_used == "python"
        assert compiled({"n": 4}).to_list() == [1, 4, 9, 16]

    def test_unknown_backend_is_loud(self):
        with pytest.raises(CodegenError, match="unknown backend 'fortran'"):
            CodegenOptions(backend="fortran")

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(CodegenError, match="one of python, c"):
            CodegenOptions(backend="fortran")


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

    def _lower(self, job, report):
        trace = Trace("t")
        with tracing(trace):
            source = lower(job, report)
        return source, trace.counters()

    def test_default_backend_short_circuits(self, monkeypatch):
        def refuse(job):  # pragma: no cover - must not be called
            raise AssertionError("python request reached the C emitter")

        monkeypatch.setattr("repro.backends.c.emit", refuse)
        job, report = self._job("python")
        source, counters = self._lower(job, report)
        assert "_build" in source
        assert report.backend_used == "python"
        assert report.backend == []
        assert not any(name.startswith("backend.") for name in counters)

    def test_unknown_backend_raises(self):
        # Refused when the options are built, before any job exists.
        with pytest.raises(CodegenError, match="unknown backend"):
            self._job("fortran")

    def test_unsupported_falls_back_with_reason(self, monkeypatch):
        def refuse(job):
            raise BackendUnsupported("no lowering for this shape")

        monkeypatch.setattr("repro.backends.native.toolchain_status",
                            lambda: None)
        monkeypatch.setattr("repro.backends.c.emit", refuse)
        job, report = self._job("c")
        source, counters = self._lower(job, report)
        assert "_build" in source  # python emitter produced the code
        assert source == lower(self._job("python")[0], Report())
        assert report.backend_used == "python"
        assert report.backend == [
            "backend c fell back on thunkless lowering: no lowering for "
            "this shape; python emitter used"
        ]
        assert counters.get("backend.c.fallback") == 1

    def test_unavailable_skips_with_reason(self, monkeypatch):
        def emit(job):  # pragma: no cover - must not be called
            raise AssertionError("emit called without a toolchain")

        monkeypatch.setattr("repro.backends.native.toolchain_status",
                            lambda: "toolchain missing")
        monkeypatch.setattr("repro.backends.c.emit", emit)
        job, report = self._job("c")
        source, counters = self._lower(job, report)
        assert "_build" in source
        assert report.backend_used == "python"
        assert report.backend == [
            "backend c unavailable: toolchain missing; python emitter used"
        ]
        assert counters.get("backend.c.unavailable") == 1

    def test_success_counts_and_records(self, monkeypatch):
        monkeypatch.setattr("repro.backends.native.toolchain_status",
                            lambda: None)
        monkeypatch.setattr("repro.backends.c.emit",
                            lambda job: "def _build(_env):\n    return None")
        job, report = self._job("c")
        source, counters = self._lower(job, report)
        assert "return None" in source
        assert report.backend_used == "c"
        assert report.backend == []
        assert counters.get("backend.c.lowered") == 1


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
        assert repro.fingerprint(repro.CompileRequest(SQUARES, {"n": 4})) \
            == repro.fingerprint(repro.CompileRequest(
                SQUARES, {"n": 4}, options=CodegenOptions()))

    def test_backend_c_alone_is_allowed(self):
        options = CodegenOptions(backend="c")
        assert options.backend == "c"
        assert not options.vectorize and not options.checked

    def test_backend_c_with_inplace_is_allowed(self):
        compiled = repro.compile(JACOBI, old_array="u", params={"m": 8},
                                 options=CodegenOptions(backend="c"))
        assert compiled.report.strategy == "inplace"

    def test_unknown_backend_name_is_loud(self):
        # Refused at construction, like every malformed option.
        with pytest.raises(CodegenError,
                           match="unknown backend 'fortran'; backend must "
                                 "be one of python, c"):
            CodegenOptions(backend="fortran")

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
