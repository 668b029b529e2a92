"""Distributed block-parallel execution of compiled programs.

``repro.dist`` runs the convergence sweeps of ``iterate``/``converge``
bindings across a persistent pool of forked worker processes, with the
array state in ``multiprocessing.shared_memory`` float64 buffers
(zero-copy reads and writes from every block).

* :mod:`repro.core.distplan` (in the analysis layer) decides *whether*
  and *how* a binding distributes; this package is the runtime.
* :mod:`repro.dist.kernel` re-emits the step function as a clamped
  block kernel, and holds what running one needs — its compiled-kernel
  cache, loop windows and runtime admission check — for dist blocks
  and out-of-core tiles alike.
* :mod:`repro.dist.exchange` wraps the shared segments and the
  cross-block max tree-reduction.
* :mod:`repro.dist.pool` owns the worker processes, their pipes and
  the sweep barrier.
* :mod:`repro.dist.run` drives the sweeps: the parent-side entry
  called by :mod:`repro.program.run` and the worker-side loops.

Everything degrades: any runtime precondition failure (no fork, no
shared memory, non-float cells, unexpected environment values) falls
back to the single-process sweep path and bumps the
``dist.fallback.runtime`` counter — results are bit-identical either
way.
"""

from repro.dist.pool import DistPool, DistPoolError, get_pool, shutdown_pools

__all__ = ["DistPool", "DistPoolError", "get_pool", "shutdown_pools"]
