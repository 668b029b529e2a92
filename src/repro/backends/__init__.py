"""The language/backend split: one lowering call, two emitters.

The pipeline's codegen pass (one for every strategy) funnels through
:func:`lower`: it packs a :class:`~repro.backends.base.LoweringJob`
and lowers it with the emitter ``CodegenOptions(backend=...)`` names,
one of :data:`~repro.codegen.emit.BACKENDS` (the options refuse any
other name when they are built):

* ``"python"`` (:mod:`repro.backends.python`) — the default and the
  universal fallback; supports every mode and option;
* ``"c"`` (:mod:`repro.backends.c`) — native shared-object kernels
  via cffi for thunkless and clean in-place schedules.

Dispatch policy, in order:

1. the default backend short-circuits — zero overhead on the path
   every existing caller takes;
2. an *unavailable* C toolchain or an *unsupported construct*
   (:class:`BackendUnsupported`) degrades to the python emitter,
   recording the reason on ``Report.backend`` and a ``backend.c.*``
   trace counter — skip, don't fail, but never silently.
"""

from __future__ import annotations

from repro.backends import c, python
from repro.backends.base import BackendUnsupported, LoweringJob
from repro.obs.trace import count as _count
from repro.obs.trace import span as _span

__all__ = ["BackendUnsupported", "LoweringJob", "lower"]


def lower(job: LoweringJob, report) -> str:
    """Lower ``job`` through the backend its options request.

    ``report`` (a :class:`~repro.core.pipeline.Report`) receives the
    outcome: ``report.backend_used`` is the emitter that produced the
    source, and every skip/fallback appends its reason to
    ``report.backend``.
    """
    if job.options.backend == "c":
        # Imported at call time: native reads the service's salt, and
        # the service package imports the pipeline, which imports us.
        from repro.backends import native

        reason = native.toolchain_status()
        if reason is not None:
            _count("backend.c.unavailable")
            report.backend.append(
                f"backend c unavailable: {reason}; python emitter used"
            )
        else:
            try:
                with _span("backend-c"):
                    source = c.emit(job)
            except BackendUnsupported as exc:
                _count("backend.c.fallback")
                report.backend.append(
                    f"backend c fell back on {job.mode} lowering: {exc}; "
                    "python emitter used"
                )
            else:
                _count("backend.c.lowered")
                report.backend_used = "c"
                return source
    source = python.emit(job)
    report.backend_used = "python"
    return source
