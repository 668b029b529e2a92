"""Pluggable backend registry (the language/backend split).

The pipeline's codegen pass (one for every strategy) funnels through
:func:`lower`: it packs a :class:`~repro.backends.base.LoweringJob`
and lets the registry pick the emitter named by
``CodegenOptions(backend=...)``.  Two backends ship built in —

* ``"python"`` (:mod:`repro.backends.python`) — the default and the
  universal fallback; supports every mode and option;
* ``"c"`` (:mod:`repro.backends.c`) — native shared-object kernels
  via cffi for thunkless and clean in-place schedules.

Third parties (or tests) extend the set with
:func:`register_backend`.  Dispatch policy, in order:

1. the default backend short-circuits — zero overhead on the path
   every existing caller takes;
2. an *unknown* backend name is a loud :class:`CodegenError` — a typo
   must not silently compile to something else;
3. an *unavailable* backend (no C toolchain, say) or an *unsupported
   construct* (:class:`BackendUnsupported`) degrades to the python
   emitter, recording the reason on ``Report.backend`` and a
   ``backend.*`` trace counter — skip, don't fail, but never
   silently.
"""

from __future__ import annotations

from threading import Lock
from typing import Callable, Dict, Optional, Tuple, Union

from repro.backends.base import Backend, BackendUnsupported, LoweringJob
from repro.backends.c import CBackend
from repro.backends.python import PythonBackend
from repro.codegen.exprs import CodegenError
from repro.obs.trace import count as _count
from repro.obs.trace import span as _span

__all__ = [
    "Backend",
    "BackendUnsupported",
    "LoweringJob",
    "available_backends",
    "backend_names",
    "get_backend",
    "lower",
    "register_backend",
]

_LOCK = Lock()
_REGISTRY: Dict[str, Backend] = {}


class _CallableBackend(Backend):
    """Adapter for ``register_backend(name, plain_function)``."""

    def __init__(self, name: str, emitter: Callable[[LoweringJob], str]):
        self.name = name
        self._emitter = emitter

    def emit(self, job: LoweringJob) -> str:
        return self._emitter(job)


def register_backend(
    name: str,
    emitter: Union[Backend, type, Callable[[LoweringJob], str]],
) -> Backend:
    """Register (or replace) the emitter behind ``backend=name``.

    ``emitter`` may be a :class:`Backend` instance, a
    :class:`Backend` subclass (instantiated here), or a plain callable
    ``job -> source``.  Returns the registered instance.
    """
    if not isinstance(name, str) or not name:
        raise ValueError("backend name must be a non-empty string")
    if isinstance(emitter, type) and issubclass(emitter, Backend):
        emitter = emitter()
    if not isinstance(emitter, Backend):
        if not callable(emitter):
            raise TypeError(
                "emitter must be a Backend or a callable(job) -> source"
            )
        emitter = _CallableBackend(name, emitter)
    emitter.name = name
    with _LOCK:
        _REGISTRY[name] = emitter
    return emitter


def get_backend(name: str) -> Backend:
    """The registered backend, or a loud :class:`CodegenError`."""
    with _LOCK:
        backend = _REGISTRY.get(name)
    if backend is None:
        raise CodegenError(
            f"unknown backend {name!r}; registered backends: "
            + ", ".join(sorted(_REGISTRY))
        )
    return backend


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    with _LOCK:
        return tuple(sorted(_REGISTRY))


def available_backends() -> Dict[str, Optional[str]]:
    """Name -> ``None`` (usable) or the reason it is not."""
    out: Dict[str, Optional[str]] = {}
    for name in backend_names():
        out[name] = get_backend(name).availability()
    return out


def lower(job: LoweringJob, report=None) -> str:
    """Lower ``job`` through the backend its options request.

    ``report`` (a :class:`~repro.core.pipeline.Report`) receives the
    outcome: ``report.backend_used`` is the emitter that produced the
    source, and every skip/fallback appends its reason to
    ``report.backend``.
    """
    requested = job.options.backend
    log = getattr(report, "backend", None) if report is not None else None
    if requested != "python":
        backend = get_backend(requested)
        reason = backend.availability()
        if reason is not None:
            _count(f"backend.{requested}.unavailable")
            if log is not None:
                log.append(
                    f"backend {requested} unavailable: {reason}; "
                    "python emitter used"
                )
        else:
            try:
                with _span(f"backend-{requested}"):
                    source = backend.emit(job)
            except BackendUnsupported as exc:
                _count(f"backend.{requested}.fallback")
                if log is not None:
                    log.append(
                        f"backend {requested} fell back on {job.mode} "
                        f"lowering: {exc}; python emitter used"
                    )
            else:
                _count(f"backend.{requested}.lowered")
                if report is not None:
                    report.backend_used = requested
                return source
    source = get_backend("python").emit(job)
    if report is not None:
        report.backend_used = "python"
    return source


register_backend("python", PythonBackend)
register_backend("c", CBackend)
