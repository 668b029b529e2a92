"""Toolchain plumbing for the C backend.

Three concerns live here, all deliberately independent of *what* the
C emitter generates:

* **probe** — :func:`toolchain_status` answers "can this machine build
  and load a shared object at all?" once per process (compiler on
  ``PATH``, cffi + numpy importable, and a real probe compile).  The
  answer is a reason string, not an exception: a missing toolchain
  *skips* the native tier, it never fails a compile.
* **artifact cache** — :func:`load_kernel` keys each kernel's ``.so``
  by ``sha256(PIPELINE_SALT + CFLAGS + cdef + source)`` under
  ``~/.cache/repro/native`` (override: ``REPRO_NATIVE_CACHE_DIR``,
  which wins over ``REPRO_CACHE_DIR``).  Warm loads ``dlopen`` the
  cached object without invoking the C compiler — that is what makes
  a disk-tier service hit cheap even for C-backed kernels, and why
  the key embeds the pipeline salt: bumping
  :data:`~repro.service.fingerprint.PIPELINE_SALT` retires stale
  native artifacts together with stale pickles.
* **counters** — :data:`NATIVE_STATS` (always on, for tests) plus
  ``backend.c.*`` runtime trace counters (``REPRO_TRACE``-gated) so
  `repro.obs` can show whether a run compiled, re-used, or memoized
  its kernels.

Compilation is a plain ``cc -O2 -fPIC -shared -ffp-contract=off``
subprocess — ABI-mode cffi needs no ``Python.h`` and no setuptools.
``-ffp-contract=off`` is load-bearing: fused multiply-adds round once
where python rounds twice, and the differential suite demands
bit-identical floats.  So are the ``-fno-builtin-{exp,log,sin,cos}``
flags (see :data:`CFLAGS`): a constant-folded libm call would round
correctly where python's libm call may not.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from threading import Lock
from typing import Dict, Optional

from repro.obs.trace import count_runtime as _count_runtime
from repro.runtime.incremental import Counters
from repro.service.fingerprint import PIPELINE_SALT

#: Flags every kernel is compiled with.  No ``-ffast-math`` and no FP
#: contraction — bit-identity with the python emitter is a contract.
#: No ``exp``/``log``/``sin``/``cos`` builtins either: at ``-O2`` gcc
#: folds a call whose argument became constant with correctly rounded
#: MPFR, while python and the kernel at run time call libm, which may
#: round differently.  ``sqrt`` and ``fabs`` are exact, so their
#: builtins stay (the native fold's ``fabs`` stays inline).
CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off",
          "-fno-builtin-exp", "-fno-builtin-log", "-fno-builtin-sin",
          "-fno-builtin-cos"]

_CANDIDATE_COMPILERS = ("cc", "gcc", "clang")


class NativeStats(Counters):
    """Process-wide native-tier counters (always on, unlike traces)."""

    __slots__ = ("cc_invocations", "so_cache_hits", "memo_hits",
                 "kernel_loads", "probe_failures")


NATIVE_STATS = NativeStats()


@dataclass
class NativeKernel:
    """A loaded shared object plus the ffi that knows its signature."""

    ffi: object
    lib: object
    path: str


_LOCK = Lock()
_LOADED: Dict[str, NativeKernel] = {}
_TOOLCHAIN_STATUS: Optional[str] = None
_TOOLCHAIN_PROBED = False


def find_compiler() -> Optional[str]:
    """The C compiler to use: ``$REPRO_CC`` or the first of cc/gcc/clang."""
    override = os.environ.get("REPRO_CC")
    if override:
        return shutil.which(override) or None
    for name in _CANDIDATE_COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def native_cache_dir() -> Path:
    """Where compiled ``.so`` artifacts live (created on demand)."""
    override = os.environ.get("REPRO_NATIVE_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    base = os.environ.get("REPRO_CACHE_DIR", "~/.cache/repro")
    return Path(base).expanduser() / "native"


def toolchain_status(refresh: bool = False) -> Optional[str]:
    """``None`` when the native tier is usable, else why it is not.

    The probe (imports + a real compile of an empty kernel) runs once
    per process; ``refresh=True`` re-runs it, which tests use after
    monkeypatching ``REPRO_CC``.
    """
    global _TOOLCHAIN_STATUS, _TOOLCHAIN_PROBED
    with _LOCK:
        if _TOOLCHAIN_PROBED and not refresh:
            return _TOOLCHAIN_STATUS
        _TOOLCHAIN_STATUS = _probe()
        _TOOLCHAIN_PROBED = True
        if _TOOLCHAIN_STATUS is not None:
            NATIVE_STATS.probe_failures += 1
        return _TOOLCHAIN_STATUS


def _probe() -> Optional[str]:
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "cffi is not installed"
    try:
        import numpy  # noqa: F401
    except ImportError:
        return "numpy is not installed"
    compiler = find_compiler()
    if compiler is None:
        return (
            "no C compiler found on PATH (tried "
            + ", ".join(_CANDIDATE_COMPILERS)
            + "; set REPRO_CC to override)"
        )
    probe_src = "int repro_probe(void) { return 42; }\n"
    with tempfile.TemporaryDirectory(prefix="repro-cc-probe-") as tmp:
        c_path = os.path.join(tmp, "probe.c")
        so_path = os.path.join(tmp, "probe.so")
        with open(c_path, "w", encoding="utf-8") as handle:
            handle.write(probe_src)
        try:
            proc = subprocess.run(
                [compiler, *CFLAGS, "-o", so_path, c_path],
                capture_output=True, text=True, timeout=120,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return f"C compiler {compiler} failed to run: {exc}"
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            return (
                f"C compiler {compiler} failed a probe compile"
                + (f": {detail.splitlines()[-1]}" if detail else "")
            )
    return None


def _compile_shared(source: str, out_path: Path) -> None:
    """Compile ``source`` into ``out_path`` atomically (tmp + replace)."""
    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler available")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    c_path = out_path.with_suffix(".c")
    # The temp source must keep a ``.c`` suffix or cc mistakes it for
    # a linker script.
    tmp_c = c_path.with_name(c_path.stem + f".{os.getpid()}.tmp.c")
    tmp_so = out_path.with_name(out_path.name + f".{os.getpid()}.tmp")
    try:
        tmp_c.write_text(source, encoding="utf-8")
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", str(tmp_so), str(tmp_c), "-lm"],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            raise RuntimeError(
                f"C compilation failed ({compiler}):\n{detail}"
            )
        # Keep the .c beside the .so for debuggability.
        os.replace(tmp_c, c_path)
        os.replace(tmp_so, out_path)
    finally:
        for leftover in (tmp_c, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    NATIVE_STATS.cc_invocations += 1
    _count_runtime("backend.c.cc_invocations")


def kernel_key(cdef: str, source: str) -> str:
    """Content hash of one kernel, salted with the pipeline version and
    the compiler flags (a ``.so`` built under other flags never loads)."""
    flags = " ".join(CFLAGS)
    payload = f"{PIPELINE_SALT}\n{flags}\n{cdef}\n{source}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def load_kernel(cdef: str, source: str) -> NativeKernel:
    """Return a loaded kernel, compiling at most once per content hash.

    Lookup order: per-process memo -> on-disk ``.so`` cache (dlopen,
    no compiler) -> compile.  Generated wrapper modules call this at
    import time, so a disk-tier service hit re-``exec``'s the wrapper
    and lands here — warm paths never spawn ``cc``.
    """
    key = kernel_key(cdef, source)
    kernel = _LOADED.get(key)
    if kernel is not None:
        NATIVE_STATS.memo_hits += 1
        _count_runtime("backend.c.memo_hits")
        return kernel
    with _LOCK:
        kernel = _LOADED.get(key)
        if kernel is not None:
            NATIVE_STATS.memo_hits += 1
            _count_runtime("backend.c.memo_hits")
            return kernel
        from cffi import FFI

        so_path = native_cache_dir() / f"repro-{key[:40]}.so"
        if so_path.is_file():
            NATIVE_STATS.so_cache_hits += 1
            _count_runtime("backend.c.so_cache_hits")
        else:
            _compile_shared(source, so_path)
        ffi = FFI()
        ffi.cdef(cdef)
        lib = ffi.dlopen(str(so_path))
        kernel = NativeKernel(ffi=ffi, lib=lib, path=str(so_path))
        _LOADED[key] = kernel
        NATIVE_STATS.kernel_loads += 1
        _count_runtime("backend.c.kernel_loads")
        return kernel


def clear_kernel_memo() -> int:
    """Drop the per-process kernel memo (tests of the disk tier)."""
    with _LOCK:
        dropped = len(_LOADED)
        _LOADED.clear()
        return dropped


def as_f64(buffer):
    """A float64, C-contiguous ndarray view/copy of ``buffer``.

    Zero-copy when the input already qualifies (the steady state for
    buffers the C tier itself produced); otherwise one conversion.
    """
    import numpy as np

    if (
        isinstance(buffer, np.ndarray)
        and buffer.dtype == np.float64
        and buffer.flags["C_CONTIGUOUS"]
    ):
        return buffer
    return np.ascontiguousarray(buffer, dtype=np.float64)
