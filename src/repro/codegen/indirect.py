"""Guarded dual-schedule kernels for indirect (subscripted) writes.

One generated module, two schedules.  The preamble runs the O(n)
subscript-property verifier (:func:`repro.codegen.support.
verify_subscripts`) over each index array the analysis could not
classify statically, preceded by an O(1) check that the inner
subscripts (whose static range the analysis computed) stay inside the
index array itself — ruling out Python's silent negative-index wrap
before the scan's verdict is trusted.  Then:

* **verification passes** — the *fast path*: every per-write check is
  elided (the properties hold wholesale, so collisions, bounds
  violations, and empties are impossible), and with
  ``options.vectorize`` the vectorizer may slice the scatter's loops;
* **verification fails** — the *fallback path*: the same loops replay
  with bounds + collision + definedness checks compiled in and every
  indirect dimension wrapped in an exact-int guard, so a bad index
  array fails with the precise error the lazy oracle raises
  (:class:`~repro.runtime.errors.BoundsError`,
  :class:`~repro.runtime.errors.WriteCollisionError`,
  :class:`~repro.runtime.errors.IndexTypeError`) — never a raw
  ``IndexError`` or a silently wrapped write.

The verifier is purely an optimization gate: it never raises, so a
valid-but-exotic input (say, duplicate values in cells the
comprehension never reads) only costs the slower checked schedule,
never a spurious rejection.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.comprehension.loopir import ArrayComp
from repro.core.schedule import Schedule
from repro.core.subscripts_indirect import GuardPlan
from repro.codegen.emit import (
    _HEADER, CodegenOptions, _Emitter, _Writer, input_prologue,
)
from repro.lang import ast


def emit_guarded(
    comp: ArrayComp,
    schedule: Schedule,
    guard: GuardPlan,
    options: Optional[CodegenOptions] = None,
    params: Optional[Dict[str, int]] = None,
    edges=(),
    parallel_plan=None,
    parallel_log: Optional[List[str]] = None,
    combine=None,
    init_ast: Optional[ast.Node] = None,
) -> str:
    """Emit the dual-schedule module for one guarded compilation.

    ``guard.mode`` selects the store semantics: ``'scatter'``
    (monolithic writes; the fallback carries collision checks and the
    definedness sweep) or ``'accum'`` (read-modify-write through
    ``combine`` starting from ``init_ast``; duplicates are semantics,
    so only bounds and int-ness are at stake).
    """
    options = options or CodegenOptions()
    accum = guard.mode == "accum"

    # Fast path: no checks, so the user's vectorize request rides
    # along; accumulated stores combine, which no slice assignment does.
    fast = _Emitter(comp, CodegenOptions(
        vectorize=options.vectorize and not accum), params)
    fast.vector_edges = tuple(edges)
    fast.parallel_plan = parallel_plan
    if parallel_log is not None:
        fast.parallel_log = parallel_log
    init_src = None
    if accum:
        fast.accumulate = combine
        init_src = fast.emit_expr(init_ast, set())
    fast.emit_items(schedule.items, set())

    # Fallback path: the full §4/§7 battery plus exact-int guards on
    # every indirect dimension.
    slow = _Emitter(comp, CodegenOptions(
        bounds_checks=True,
        collision_checks=not accum,
        empties_check=not accum,
    ), params)
    if accum:
        slow.accumulate = combine
        # Re-emit the init through the slow emitter so its used_env
        # stays complete on its own (the source strings coincide).
        init_src = slow.emit_expr(init_ast, set())
    slow.indirect_guard_dims = dict(guard.indirect_dims)
    slow.emit_items(schedule.items, set())

    writer = _Writer()
    writer.line(_HEADER)
    writer.line("def _build(_env):")
    with writer.block():
        for name in sorted(fast.gen.used_env | slow.gen.used_env):
            writer.line(f"_v_{name} = _env[{name!r}]")
        arrays = dict(slow.arrays)
        arrays.update(fast.arrays)
        for name in sorted(arrays):
            for line in input_prologue(name, arrays[name]):
                writer.line(line)
        fast._emit_bounds(writer)

        # --- The guard. ---
        writer.line("_ok = True")
        for spec in guard.verify:
            if spec.inner_lo > spec.inner_hi:
                # Statically empty read range: the loops never touch
                # the index array, so there is nothing to verify.
                continue
            name = spec.array
            # O(1): the inner subscripts must stay inside the index
            # array — below its low bound Python would wrap silently.
            writer.line(
                f"if not ({spec.inner_lo} >= _lo_{name}_0 and "
                f"{spec.inner_hi} <= _lo_{name}_0 + _ex_{name}_0 - 1):"
            )
            with writer.block():
                writer.line("_ok = False")
            # O(n): int-ness, bounds against the written dimension,
            # and (for scatters) injectivity over the whole array.
            writer.line("if _ok:")
            with writer.block():
                writer.line(
                    f"_ok = _verify(_arr_{name}, _lo_out_{spec.dim}, "
                    f"_hi_out_{spec.dim}, "
                    f"{spec.need_injective!r})[0]"
                )

        def out_init(emitter):
            if accum:
                return ["_alloc(_size)", f"_out = [{init_src}] * _size"]
            if emitter.vectorized_loops:
                return emitter.vector_views() + [
                    "_alloc(_size)", "_out = _np.zeros(_size)"
                ] + emitter.out_views()
            return [
                "_out = _env.pop('.reuse', None)",
                "if _out is None or len(_out) != _size:",
                "    _alloc(_size)",
                "    _out = [None] * _size",
            ]

        def result(emitter):
            if emitter.vectorized_loops:
                return "return FlatArray(_b, _out.tolist())"
            return "return FlatArray(_b, _out)"

        writer.line("if _ok:")
        with writer.block():
            writer.line("_VS.fast_path += 1")
            for line in out_init(fast):
                writer.line(line)
            for line in fast.body.lines:
                writer.line(line)
            writer.line(result(fast))
        writer.line("_VS.fallbacks += 1")
        for line in out_init(slow):
            writer.line(line)
        if not accum:
            writer.line("_defined = [False] * _size")
        for line in slow.body.lines:
            writer.line(line)
        if not accum:
            writer.line("check_empties(_defined, _b)")
        writer.line(result(slow))
    return writer.source()
