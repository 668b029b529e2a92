"""The native tier's plumbing: probe, artifact cache, service warm path.

Everything that needs a real C compiler is guarded with
``pytest.mark.skipif(toolchain_status() is not None)`` so tier-1 stays
green on toolchain-less machines — exactly the backend's own skip
policy.
"""

import numpy as np
import pytest

import repro
from repro.backends.native import (
    NATIVE_STATS,
    as_f64,
    clear_kernel_memo,
    find_compiler,
    kernel_key,
    load_kernel,
    native_cache_dir,
    toolchain_status,
)
from repro.codegen.emit import CodegenOptions
from repro.kernels import SQUARES
from repro.obs.trace import Trace, tracing
from repro.service.service import CompileRequest, CompileService

NO_CC = toolchain_status() is not None
needs_cc = pytest.mark.skipif(
    NO_CC, reason=f"native toolchain unavailable: {toolchain_status()}"
)

_CDEF = "double repro_add(double a, double b);"
_SRC = "double repro_add(double a, double b) { return a + b; }\n"


@pytest.fixture
def native_dir(tmp_path, monkeypatch):
    """Route the .so cache (and probe refresh) into a temp dir."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "native"))
    clear_kernel_memo()
    yield tmp_path / "native"
    clear_kernel_memo()


class TestProbe:
    def test_status_is_cached(self):
        first = toolchain_status()
        assert toolchain_status() is first or toolchain_status() == first

    def test_missing_compiler_is_a_reason_not_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "definitely-not-a-compiler-xyz")
        try:
            status = toolchain_status(refresh=True)
            assert status is not None
            assert "REPRO_CC" in status or "compiler" in status
            assert find_compiler() is None
        finally:
            monkeypatch.delenv("REPRO_CC")
            toolchain_status(refresh=True)

    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        assert native_cache_dir() == tmp_path
        monkeypatch.delenv("REPRO_NATIVE_CACHE_DIR")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "base"))
        assert native_cache_dir() == tmp_path / "base" / "native"


class TestKernelKey:
    def test_key_depends_on_both_parts(self):
        base = kernel_key(_CDEF, _SRC)
        assert kernel_key(_CDEF, _SRC + "\n// x") != base
        assert kernel_key("double f(void);", _SRC) != base

    def test_key_embeds_pipeline_salt(self, monkeypatch):
        from repro.backends import native

        base = kernel_key(_CDEF, _SRC)
        monkeypatch.setattr(native, "PIPELINE_SALT", "other-salt")
        assert kernel_key(_CDEF, _SRC) != base

    def test_key_embeds_compiler_flags(self, monkeypatch):
        from repro.backends import native

        base = kernel_key(_CDEF, _SRC)
        monkeypatch.setattr(native, "CFLAGS", native.CFLAGS[:4])
        assert kernel_key(_CDEF, _SRC) != base


@needs_cc
class TestLoadKernel:
    def test_compile_memo_and_disk_tiers(self, native_dir):
        NATIVE_STATS.reset()
        kernel = load_kernel(_CDEF, _SRC)
        assert kernel.lib.repro_add(2.0, 0.5) == 2.5
        assert NATIVE_STATS.cc_invocations == 1
        assert NATIVE_STATS.so_cache_hits == 0

        # Same content again: the per-process memo answers, no cc.
        again = load_kernel(_CDEF, _SRC)
        assert again is kernel
        assert NATIVE_STATS.cc_invocations == 1
        assert NATIVE_STATS.memo_hits == 1

        # Drop the memo: the on-disk .so is dlopen'ed, still no cc.
        clear_kernel_memo()
        third = load_kernel(_CDEF, _SRC)
        assert third is not kernel
        assert third.lib.repro_add(1.0, 1.0) == 2.0
        assert NATIVE_STATS.cc_invocations == 1
        assert NATIVE_STATS.so_cache_hits == 1

    def test_source_kept_beside_artifact(self, native_dir):
        kernel = load_kernel(_CDEF, _SRC)
        so_path = native_dir / f"repro-{kernel_key(_CDEF, _SRC)[:40]}.so"
        assert so_path.is_file()
        assert so_path.with_suffix(".c").read_text() == _SRC


class TestAsF64:
    def test_zero_copy_for_conforming_arrays(self):
        buf = np.zeros(8, dtype=np.float64)
        assert as_f64(buf) is buf

    def test_converts_lists_and_other_dtypes(self):
        out = as_f64([1, 2, 3])
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0, 3.0]
        ints = np.arange(4, dtype=np.int32)
        out = as_f64(ints)
        assert out.dtype == np.float64 and out.tolist() == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Acceptance: a warm service compile of a C-backed kernel hits the disk
# tier and never invokes the C compiler.


@needs_cc
class TestWarmServiceCompile:
    def test_disk_hit_skips_cc(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR",
                           str(tmp_path / "native"))
        clear_kernel_memo()
        NATIVE_STATS.reset()
        disk = tmp_path / "service"
        options = CodegenOptions(backend="c")

        # Cold: the pipeline runs, the kernel compiles once.
        cold = CompileService(disk_dir=disk)
        trace = Trace("cold")
        with tracing(trace):
            compiled = cold.submit(CompileRequest(
                SQUARES, {"n": 6}, options, kind="definition")).value()
        assert compiled.report.backend_used == "c"
        assert trace.counters().get("service.miss") == 1
        assert NATIVE_STATS.cc_invocations == 1
        assert compiled({"n": 6}).to_list() == [
            float(i * i) for i in range(1, 7)
        ]

        # Warm: a fresh service (new process stand-in) + empty kernel
        # memo.  The pickled entry re-execs its wrapper, which reloads
        # the .so from the native cache — cc never runs again.
        clear_kernel_memo()
        cc_before = NATIVE_STATS.cc_invocations
        warm = CompileService(disk_dir=disk)
        trace = Trace("warm")
        with tracing(trace):
            warmed = warm.submit(CompileRequest(
                SQUARES, {"n": 6}, options, kind="definition")).value()
        assert trace.counters().get("service.hit.disk") == 1
        assert NATIVE_STATS.cc_invocations == cc_before
        assert NATIVE_STATS.so_cache_hits >= 1
        assert warmed({"n": 6}).to_list() == [
            float(i * i) for i in range(1, 7)
        ]
        clear_kernel_memo()

    def test_runtime_counters_record_native_activity(self, tmp_path,
                                                     monkeypatch):
        from repro.obs.trace import (
            refresh_runtime_tracing,
            reset_runtime_counters,
            runtime_counters,
        )

        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR",
                           str(tmp_path / "native"))
        monkeypatch.setenv("REPRO_TRACE", "1")
        refresh_runtime_tracing()
        clear_kernel_memo()
        reset_runtime_counters()
        try:
            compiled = repro.compile(SQUARES, params={"n": 5},
                                     options=CodegenOptions(backend="c"))
            compiled({"n": 5})
            counters = runtime_counters()
            assert counters.get("backend.c.cc_invocations", 0) >= 1
            assert counters.get("backend.c.kernel_loads", 0) >= 1
            assert counters.get("backend.c.kernel_calls", 0) >= 1
        finally:
            monkeypatch.delenv("REPRO_TRACE")
            refresh_runtime_tracing()
            reset_runtime_counters()
            clear_kernel_memo()
