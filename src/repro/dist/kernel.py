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

The module also holds what *running* a block kernel needs, the same
for a dist row block and an out-of-core row tile whatever holds the
block's bytes: the compiled-kernel cache (:func:`kernel_fn`), the
per-rectangle loop windows (:func:`window_env`), the bounds a block
reads through (:func:`row_bounds`), and the runtime admission check
both placements run before touching the seed (:func:`admit`, with
:func:`float_cells`).  Where the bytes live (shared segments or spill
files) and how the blocks synchronise stay with each executor.
"""

from __future__ import annotations

import pickle
import re
from typing import Dict, List, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

from repro.codegen.compile import compile_source
from repro.codegen.emit import CodegenOptions, emit_inplace, emit_thunkless
from repro.codegen.support import FlatArray
from repro.core.distplan import (
    DistKernel,
    DistReject,
    LoopClamp,
    _axis_write,
    _clause_loop,
    _const_eval,
)
from repro.lang import ast
from repro.runtime.bounds import Bounds

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


# ----------------------------------------------------------------------
# Running a block kernel: the rules a dist row block and an out-of-core
# row tile share, whatever holds the block's bytes.

#: Compiled block kernels keyed by source, shared by the dist workers
#: (which persist across calls) and the out-of-core driver.
_COMPILED: Dict[str, object] = {}


def kernel_fn(kernel: DistKernel, compile=compile_source):
    """The kernel's entry point, compiled once per source."""
    fn = _COMPILED.get(kernel.source)
    if fn is None:
        fn = compile(kernel.source, kernel.entry)
        _COMPILED[kernel.source] = fn
    return fn


def float_cells(cells) -> bool:
    """Whether a cell buffer is exactly float64-representable.

    Shared buffers and spill files hold float64; an int cell would come
    back ``5.0`` where the in-memory path preserves ``5``.  Lists must
    be all Python floats; numpy buffers must already be float64.
    """
    if _np is not None and isinstance(cells, _np.ndarray):
        return cells.dtype == _np.float64
    return all(type(cell) is float for cell in cells)


def window_env(env: Dict, kernel: DistKernel,
               windows: Dict[int, tuple]) -> None:
    """Fill the kernel's clamp/guard stand-ins for one rectangle.

    ``windows`` maps axis -> inclusive (lo, hi) ownership window.
    """
    for clamp in kernel.clamps:
        wlo, whi = windows[clamp.axis]
        env[clamp.env_start] = max(clamp.lo, wlo - clamp.offset)
        env[clamp.env_stop] = min(clamp.hi, whi - clamp.offset)
    for axis in kernel.guard_axes:
        wlo, whi = windows[axis]
        env[f"_dga{axis}_s"] = wlo
        env[f"_dga{axis}_e"] = whi


def row_bounds(low, high, rows=None) -> Bounds:
    """Bounds ``low..high``, with axis 0 narrowed to ``rows`` if given."""
    if rows is not None:
        low = (rows[0],) + tuple(low[1:])
        high = (rows[1],) + tuple(high[1:])
    if len(low) == 1:
        return Bounds(low[0], high[0])
    return Bounds(tuple(low), tuple(high))


def admit(plan, env: Dict, kind: str, control, seed: FlatArray,
          ship) -> Optional[Dict]:
    """Check a block run before it starts: its kernel env, or ``None``.

    ``plan`` is the binding's dist or out-of-core
    :class:`~repro.core.distplan.DistBindingPlan`.  Compile time proved
    the structural preconditions; these are the ones only the call
    shows.  Every input the kernel fetches must be an int, a float, or
    an array of float cells, which ``ship`` converts for the run's
    transport.  ``None`` means run the in-memory sweeps: nothing was
    copied and the seed is untouched.
    """
    if kind == "steps" and control <= 0:
        return None  # zero sweeps
    dims = seed.bounds.dims
    if (tuple(lo for lo, _ in dims) != plan.low
            or tuple(hi for _, hi in dims) != plan.high):
        return None  # not the bounds the blocks were planned for
    if not float_cells(seed.cells):
        return None  # the blocks' buffers hold float64
    payload: Dict[str, object] = {}
    for name in plan.kernel.env_names:
        if name == plan.param:
            continue
        value = env.get(name)
        if isinstance(value, FlatArray) and float_cells(value.cells):
            payload[name] = FlatArray(value.bounds, ship(value.cells))
        elif (isinstance(value, (int, float))
              and not isinstance(value, bool)):
            payload[name] = value
        else:
            return None  # missing, a bool, non-float or not shippable
    return payload
