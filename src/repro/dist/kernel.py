"""Block-kernel emission for distributed sweeps.

The single-process emitters (:mod:`repro.codegen.emit`) already
produce exactly the loop bodies we want — and bit-identity of the
distributed path rides on *not* duplicating them.  So this module
re-emits the step function's analysis artifacts with two surgical
changes and a couple of asserted source post-edits:

1. **Loop clamping.**  Every loop that drives a partitioned write axis
   gets its ``start``/``stop`` ASTs replaced by free variables
   (``_dw{n}_s``/``_dw{n}_e``).  The expression generator renders free
   variables as environment fetches, so the *same* scalar and vector
   emission paths produce kernels whose windows the worker picks per
   rectangle at run time.
2. **Membership guards.**  Clauses writing a *constant* index on a
   partitioned axis (boundary rows/columns) get guards
   ``_dga{a}_s <= c <= _dga{a}_e`` appended, so each rectangle executes
   only the constant-index clauses it owns.  Guarded clauses are
   automatically excluded from the §10 vector path and run scalar.

The artifacts are deep-copied **together** (one pickle round trip) so
the identity links between clauses, schedule items, dependence edges
and in-place read plans survive; the originals are never mutated.

Double-buffer kernels additionally swap the output allocation for a
destination view (``_env['.dst']``) and drop the materializing return.
One such kernel serves both row-block placements: dist workers write
straight into the shared full-size buffer, and the out-of-core driver
(:mod:`repro.program.outofcore`) into a tile-sized RAM buffer whose
first row it passes as ``_env['.dst_row0']`` (absent, the destination
is indexed from the array's own first row).
"""

from __future__ import annotations

import pickle
import re
from typing import Dict, List, Tuple

from repro.codegen.emit import CodegenOptions, emit_inplace, emit_thunkless
from repro.core.distplan import (
    DistKernel,
    DistReject,
    LoopClamp,
    _axis_write,
    _clause_loop,
    _const_eval,
)
from repro.lang import ast

_ENV_FETCH = re.compile(r"_env(?:\.pop)?\[?\(?['\"]([^'\"]+)['\"]")


def _clamp_axes(comp, axes: Tuple[int, ...], params):
    """Mutate ``comp``'s clauses for per-rectangle windows.

    Returns ``(clamps, guard_axes)``.  Loops shared between clauses are
    clamped once; conflicting demands (same loop, different axis or
    write offset) reject distribution.
    """
    clamps: List[LoopClamp] = []
    by_loop: Dict[int, LoopClamp] = {}
    guard_axes = set()
    for clause in comp.clauses:
        for axis in axes:
            write = _axis_write(clause, axis, params)
            if write.const is not None:
                guard_axes.add(axis)
                clause.guards.append(ast.BinOp(
                    op="<=",
                    left=ast.Var(name=f"_dga{axis}_s"),
                    right=ast.Lit(value=write.const),
                ))
                clause.guards.append(ast.BinOp(
                    op="<=",
                    left=ast.Lit(value=write.const),
                    right=ast.Var(name=f"_dga{axis}_e"),
                ))
                continue
            loop = _clause_loop(clause, write.var)
            seen = by_loop.get(id(loop))
            if seen is not None:
                if (seen.axis, seen.offset) != (axis, write.offset):
                    raise DistReject(
                        f"{clause.label}: loop {loop.var!r} is shared "
                        "by clauses demanding different windows "
                        f"(axis {seen.axis} offset {seen.offset} vs "
                        f"axis {axis} offset {write.offset})"
                    )
                continue
            lo = _const_eval(loop.start, params)
            hi = _const_eval(loop.stop, params)
            index = len(clamps)
            clamp = LoopClamp(
                env_start=f"_dw{index}_s", env_stop=f"_dw{index}_e",
                axis=axis, offset=write.offset, lo=lo, hi=hi,
            )
            loop.start = ast.Var(name=clamp.env_start)
            loop.stop = ast.Var(name=clamp.env_stop)
            by_loop[id(loop)] = clamp
            clamps.append(clamp)
    return tuple(clamps), tuple(sorted(guard_axes))


def _internal_names(clamps, guard_axes) -> set:
    names = set()
    for clamp in clamps:
        names.add(clamp.env_start)
        names.add(clamp.env_stop)
    for axis in guard_axes:
        names.add(f"_dga{axis}_s")
        names.add(f"_dga{axis}_e")
    return names


def _env_names(source: str, internal: set) -> Tuple[str, ...]:
    found = set(_ENV_FETCH.findall(source))
    found -= internal
    found -= {".dst", ".dst_row0", ".reuse"}
    return tuple(sorted(found))


def _edit(source: str, old: str, new: str) -> str:
    count = source.count(old)
    if count != 1:
        raise DistReject(
            f"kernel post-edit expected exactly one occurrence of "
            f"{old!r}, found {count} — emitter layout changed"
        )
    return source.replace(old, new)


def build_double_kernel(report, params) -> DistKernel:
    """Block kernel for a double-buffered (thunkless) sweep.

    The kernel reads the previous sweep's array from the environment
    as usual and writes into the destination view handed in as
    ``_env['.dst']`` — no allocation, no materializing return.  Linear
    stores count axis-0 rows from ``_env['.dst_row0']`` when given (a
    row tile's own buffer), else from the array's first row.
    """
    comp, schedule, edges = pickle.loads(
        pickle.dumps((report.comp, report.schedule, report.edges))
    )
    clamps, guard_axes = _clamp_axes(comp, (0,), params)
    source = emit_thunkless(
        comp, schedule, CodegenOptions(vectorize=True), params,
        edges=edges,
    )
    source = _edit(source, "_out = _np.zeros(_size)",
                   "_out = _env.pop('.dst')")
    source = _edit(source, "_lo_out_0 = _b.dims[0][0]",
                   "_lo_out_0 = _env.pop('.dst_row0', _b.dims[0][0])")
    source = _edit(source, "\n    _alloc(_size)\n", "\n")
    source = _edit(source, "return FlatArray(_b, _out.tolist())",
                   "return None")
    return DistKernel(
        source=source,
        clamps=clamps,
        guard_axes=guard_axes,
        env_names=_env_names(source, _internal_names(clamps,
                                                     guard_axes)),
    )


def build_wavefront_kernel(report, params) -> DistKernel:
    """Rectangle kernel for a staged in-place (clean-split) sweep.

    Both axes are clamped: axis 0 windows select the row chunk, axis 1
    windows the column block.  The kernel mutates the shared buffer it
    is handed (the in-place preamble flattens the env array) and its
    return value is discarded.
    """
    comp, schedule, plan = pickle.loads(
        pickle.dumps((report.comp, report.schedule, report.inplace_plan))
    )
    clamps, guard_axes = _clamp_axes(comp, (0, 1), params)
    source = emit_inplace(comp, schedule, plan, CodegenOptions(),
                          params)
    return DistKernel(
        source=source,
        clamps=clamps,
        guard_axes=guard_axes,
        env_names=_env_names(source, _internal_names(clamps,
                                                     guard_axes)),
    )
