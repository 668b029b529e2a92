"""Shared vocabulary of the two backends.

A *backend* turns one already-scheduled compilation job into python
source whose ``_build(_env)`` entry point the pipeline ``exec``'s (see
:class:`repro.codegen.compile.CompiledComp`).  The scheduled loop IR
(§6 normalization + §8 static scheduling) is backend-neutral; what
varies is the loop *body* language: the python backend interprets each
cell in-process, the C backend (:mod:`repro.backends.c`) emits a
native kernel and a thin python wrapper around it.

:class:`LoweringJob` is the whole contract: the codegen pass of
:mod:`repro.core.pipeline` packs every strategy's inputs into one job
and hands it to :func:`repro.backends.lower`, which picks the emitter.
When the C emitter cannot lower a particular job it raises
:class:`BackendUnsupported` with a *reason a user can act on* — the
dispatcher records it in ``Report.backend`` and falls back to the
python emitter, which handles everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class BackendUnsupported(Exception):
    """This backend cannot lower this job; fall back with this reason."""


@dataclass
class LoweringJob:
    """One emitter request, backend-agnostic.

    ``mode`` selects the emission path and which optional fields are
    meaningful (the pipeline fills every field it has; emitters read
    only theirs):

    ``"thunkless"``
        Static schedule over ``comp`` (§8); ``edges``,
        ``parallel_plan`` and ``parallel_log`` as for
        :func:`repro.codegen.emit.emit_thunkless`.
    ``"thunked"``
        Demand-driven fallback; only ``comp`` and ``params``.
    ``"inplace"``
        §9 in-place update; ``plan`` is the
        :class:`~repro.core.inplace.InPlacePlan`, ``old_array`` the
        updated array's name.
    ``"accum"``
        Accumulation-array emission; ``combine`` / ``init_ast`` as for
        :func:`repro.codegen.emit.emit_accum`.
    ``"guarded"``
        Dual-schedule indirect-write kernel; ``subscripts`` is the
        :class:`~repro.core.subscripts_indirect.GuardPlan` driving the
        runtime verifier, and ``combine`` / ``init_ast`` ride along
        when the guarded store accumulates.
    """

    mode: str
    comp: object
    #: The :class:`~repro.codegen.emit.CodegenOptions` with every
    #: check the analysis added (a partial comprehension carries
    #: ``empties_check``, so a backend whose buffers cannot hold an
    #: undefined cell refuses it as a check).
    options: object
    schedule: object = None
    params: Optional[Dict] = None
    edges: Tuple = ()
    parallel_plan: object = None
    parallel_log: Optional[List[str]] = None
    plan: object = None
    old_array: Optional[str] = None
    combine: object = None
    init_ast: object = None
    #: ``"guarded"`` mode: the :class:`~repro.core.subscripts_indirect.
    #: GuardPlan` (verify specs + indirect dimension map).  The C
    #: backend refuses the mode and falls back to python.
    subscripts: object = None
    #: An accepted :class:`~repro.core.tiling.TilePlan` when the
    #: pipeline decided to cache-block this nest (``thunkless`` and
    #: ``inplace`` modes only); ``None`` or a rejected plan means emit
    #: the ordinary loops.  Only the C backend blocks loops.
    tiling: object = None

    def indirect_guard_dims(self) -> Optional[Dict]:
        """The indirect-dimension map for checked emission, if any.

        ``thunkless``/``accum``/``inplace`` jobs over comprehensions
        with indirect writes carry a :class:`~repro.core.subscripts_indirect.
        GuardPlan` too (no dual schedule, just the exact-int guards on
        every ``idx!inner`` store dimension).
        """
        if self.subscripts is None:
            return None
        return getattr(self.subscripts, "indirect_dims", None)
