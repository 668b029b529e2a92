"""The python backend: the original emitters behind :func:`emit`.

This is the "everything works here" tier the dispatcher falls back to:
all four lowering modes, every :class:`~repro.codegen.emit.
CodegenOptions` knob but ``tile`` (checks, vectorize), thunked
arrays, and §9 node-splitting temporaries.  The module is a thin
adapter — the actual emitters stay in :mod:`repro.codegen.emit`,
which remains the backend-neutral lowering layer's reference
implementation.
"""

from __future__ import annotations

from repro.backends.base import BackendUnsupported, LoweringJob
from repro.codegen.emit import (
    emit_accum,
    emit_inplace,
    emit_thunked,
    emit_thunkless,
)


def emit(job: LoweringJob) -> str:
    """Lower ``job`` to python source that interprets loop bodies
    in-process."""
    if job.mode == "thunkless":
        return emit_thunkless(
            job.comp, job.schedule, job.options, job.params,
            edges=job.edges, parallel_plan=job.parallel_plan,
            parallel_log=job.parallel_log,
            indirect_guard_dims=job.indirect_guard_dims(),
        )
    if job.mode == "thunked":
        return emit_thunked(job.comp, job.options, job.params)
    if job.mode == "inplace":
        return emit_inplace(
            job.comp, job.schedule, job.plan, job.options, job.params,
            indirect_guard_dims=job.indirect_guard_dims(),
        )
    if job.mode == "accum":
        return emit_accum(
            job.comp, job.schedule, job.combine, job.init_ast,
            job.options, job.params,
            indirect_guard_dims=job.indirect_guard_dims(),
        )
    if job.mode == "guarded":
        from repro.codegen.indirect import emit_guarded

        return emit_guarded(
            job.comp, job.schedule, job.subscripts, job.options,
            job.params, edges=job.edges,
            parallel_plan=job.parallel_plan,
            parallel_log=job.parallel_log,
            combine=job.combine, init_ast=job.init_ast,
        )
    raise BackendUnsupported(f"unknown lowering mode {job.mode!r}")
