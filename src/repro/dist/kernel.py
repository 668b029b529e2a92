"""Block-kernel emission for row-partitioned sweeps.

The single-process emitter (:mod:`repro.codegen.emit`) already
produces exactly the loop bodies we want — and bit-identity of the
block placements rides on *not* duplicating them.  So this module
re-emits the step function's analysis artifacts, in the emitter's
block form, with two surgical changes:

1. **Loop clamping.**  Every loop that drives the row (axis 0) write
   gets its ``start``/``stop`` ASTs replaced by free variables
   (``_dw{n}_s``/``_dw{n}_e``).  The expression generator renders free
   variables as environment fetches, so the *same* scalar and vector
   emission paths produce kernels whose row windows the executor
   picks per block at run time.
2. **Membership guards.**  Clauses writing a *constant* row (boundary
   rows) get guards ``_dga0_s <= c <= _dga0_e`` appended, so each
   block executes only the constant-row clauses it owns.  The guards
   use no loop variable, so the §10 path hoists each into one ``if``
   around its row's vector statement.

The artifacts are deep-copied **together** (one pickle round trip) so
the identity links between clauses, schedule items and dependence
edges survive; the originals are never mutated.

The block form writes into a destination view (``_env['.dst']``),
reads its output bounds as literals and returns nothing.  One such
kernel, emitted once per binding, serves all three row-block
placements: the in-memory driver (:mod:`repro.program.run`) sweeps it
as one block spanning axis 0 over two float64 buffers, dist workers
write straight into the shared full-size buffer, and the out-of-core
driver (:mod:`repro.program.outofcore`) into a tile-sized RAM buffer
whose first row it passes as ``_env['.dst_row0']`` (absent, the
destination is indexed from the array's own first row).  The kernel
records the innermost loops the §10 path left scalar
(:attr:`~repro.core.distplan.DistKernel.scalar_loops`): scalar element
access to float64 buffers is slower than the list path, so the
one-block placement refuses such a kernel.

The module also holds what *running* a block kernel needs, the same
for every placement whatever holds the block's bytes: the
compiled-kernel cache (:func:`kernel_fn`), the per-block loop
windows (:func:`window_env`), the bounds a block reads through
(:func:`row_bounds`), one double-buffer sweep of one block
(:func:`block_sweep`), and the runtime admission check every
placement runs before touching the seed (:func:`admit`, with
:func:`float_cells`; in-process placements ship inputs through
:func:`as_f64`).  Where the bytes live (RAM buffers, shared segments
or spill files) and how the blocks synchronise stay with each
executor.
"""

from __future__ import annotations

import functools
import pickle
import re
from typing import Dict, List, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

from repro.codegen.compile import compile_source
from repro.codegen.emit import CodegenOptions, emit_thunkless
from repro.codegen.support import FlatArray
from repro.core.distplan import (
    DistKernel,
    DistReject,
    LoopClamp,
    _axis_write,
    _clause_loop,
    _const_eval,
)
from repro.core.schedule import ScheduledClause, ScheduledLoop
from repro.lang import ast
from repro.runtime.bounds import Bounds

_ENV_FETCH = re.compile(r"_env\[['\"]([^'\"]+)['\"]")


def _clamp_rows(comp, params):
    """Mutate ``comp``'s clauses for per-block row windows.

    Returns ``(clamps, guard_rows)``.  Loops shared between clauses are
    clamped once; conflicting demands (same loop, different row
    offset) reject the block placements.
    """
    clamps: List[LoopClamp] = []
    by_loop: Dict[int, LoopClamp] = {}
    guard_rows = False
    for clause in comp.clauses:
        write = _axis_write(clause, 0, params)
        if write.const is not None:
            guard_rows = True
            clause.guards.append(ast.BinOp(
                op="<=",
                left=ast.Var(name="_dga0_s"),
                right=ast.Lit(value=write.const),
            ))
            clause.guards.append(ast.BinOp(
                op="<=",
                left=ast.Lit(value=write.const),
                right=ast.Var(name="_dga0_e"),
            ))
            continue
        loop = _clause_loop(clause, write.var)
        seen = by_loop.get(id(loop))
        if seen is not None:
            if seen.offset != write.offset:
                raise DistReject(
                    f"{clause.label}: loop {loop.var!r} is shared by "
                    "clauses writing different axis-0 offsets "
                    f"({seen.offset} vs {write.offset})"
                )
            continue
        index = len(clamps)
        clamp = LoopClamp(
            env_start=f"_dw{index}_s", env_stop=f"_dw{index}_e",
            offset=write.offset,
            lo=_const_eval(loop.start, params),
            hi=_const_eval(loop.stop, params),
        )
        loop.start = ast.Var(name=clamp.env_start)
        loop.stop = ast.Var(name=clamp.env_stop)
        by_loop[id(loop)] = clamp
        clamps.append(clamp)
    return tuple(clamps), guard_rows


def _internal_names(clamps, guard_rows: bool) -> set:
    names = set()
    for clamp in clamps:
        names.add(clamp.env_start)
        names.add(clamp.env_stop)
    if guard_rows:
        names.update(("_dga0_s", "_dga0_e"))
    return names


def _env_names(source: str, internal: set) -> Tuple[str, ...]:
    found = set(_ENV_FETCH.findall(source))
    found -= internal
    found -= {".dst"}
    return tuple(sorted(found))


def _scalar_loops(items, vectorized, rows) -> List[str]:
    """Innermost loops holding a clause that writes a row window (not
    a constant row, ``id`` in ``rows``) and stayed scalar."""
    out: List[str] = []
    for item in items:
        if not isinstance(item, ScheduledLoop):
            continue
        if id(item.loop) not in vectorized and any(
            isinstance(child, ScheduledClause)
            and id(child.clause) not in rows
            for child in item.body
        ):
            out.append(item.loop.var)
        out.extend(_scalar_loops(item.body, vectorized, rows))
    return out


def build_double_kernel(report, params) -> DistKernel:
    """Block kernel for a double-buffered (thunkless) sweep.

    The kernel reads the previous sweep's array from the environment
    as usual and writes into the destination view handed in as
    ``_env['.dst']`` — no allocation, no materializing return.  Stores
    count axis-0 rows from ``_env['.dst_row0']`` when given (a row
    tile's own buffer), else from the array's first row.
    """
    comp, schedule, edges = pickle.loads(
        pickle.dumps((report.comp, report.schedule, report.edges))
    )
    clamps, guard_rows = _clamp_rows(comp, params)
    rows = {id(clause) for clause in comp.clauses
            if _axis_write(clause, 0, params).const is not None}
    vectorized: List = []
    source = emit_thunkless(
        comp, schedule, CodegenOptions(vectorize=True), params,
        edges=edges, vector_log=vectorized, block=True,
    )
    return DistKernel(
        source=source,
        clamps=clamps,
        guard_rows=guard_rows,
        env_names=_env_names(source, _internal_names(clamps,
                                                     guard_rows)),
        scalar_loops=tuple(_scalar_loops(
            schedule.items, {id(loop) for loop in vectorized}, rows)),
    )


# ----------------------------------------------------------------------
# Running a block kernel: the rules every row placement shares (one
# block in memory, a dist row block, an out-of-core row tile), whatever
# holds the block's bytes.

@functools.lru_cache(maxsize=32)
def _compiled(source: str, entry: str, compile):
    return compile(source, entry)


def kernel_fn(kernel: DistKernel, compile=compile_source):
    """The kernel's entry point, compiled once per source.

    The cache is shared by the dist workers (which persist across
    calls), the out-of-core driver and the in-memory one-block path,
    and bounded, so a long-lived process that compiles many programs
    keeps only the recent kernels.
    """
    return _compiled(kernel.source, kernel.entry, compile)


def float_cells(cells) -> bool:
    """Whether a cell buffer is exactly float64-representable.

    Block buffers hold float64; an int cell would come back ``5.0``
    where the list path preserves ``5``.  Lists must be all Python
    floats (exact type: no bool, subclass or numpy scalar); numpy
    buffers must already be float64.
    """
    if _np is not None and isinstance(cells, _np.ndarray):
        return cells.dtype == _np.float64
    return set(map(type, cells)) <= {float}


def as_f64(cells):
    """Input cells as float64, once per run, so the vector clauses'
    per-call ``asarray`` is a view, not a copy of the whole input."""
    return _np.asarray(cells, dtype=_np.float64)


def window_env(env: Dict, kernel: DistKernel, rows: tuple) -> None:
    """Fill the kernel's clamp/guard stand-ins for one block.

    ``rows`` is the block's inclusive (lo, hi) row window on axis 0.
    """
    wlo, whi = rows
    for clamp in kernel.clamps:
        env[clamp.env_start] = max(clamp.lo, wlo - clamp.offset)
        env[clamp.env_stop] = min(clamp.hi, whi - clamp.offset)
    if kernel.guard_rows:
        env["_dga0_s"] = wlo
        env["_dga0_e"] = whi


def block_sweep(build, env_base: Dict, param: str, bounds: Bounds,
                src, dst, window, fold: bool):
    """One double-buffer sweep of one row block, ``src`` to ``dst``.

    ``env_base`` is the block's kernel environment (inputs and loop
    windows).  With ``fold``, returns the exact ``max |dst - src|``
    over the block's cells ``window`` (NaN propagates), else ``None``.
    """
    env = dict(env_base)
    env[param] = FlatArray(bounds, src)
    env[".dst"] = dst
    build(env)
    if not fold:
        return None
    return float(_np.max(_np.abs(dst[window] - src[window])))


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

    ``plan`` is the binding's one-block, dist or out-of-core
    :class:`~repro.core.distplan.DistBindingPlan`.  Compile time proved
    the structural preconditions; these are the ones only the call
    shows.  Every input the kernel fetches must be an int, a float, or
    an array of float cells, which ``ship`` converts for the run's
    transport.  ``None`` means run the list-path sweeps: nothing was
    copied and the seed is untouched.
    """
    if kind == "steps" and control <= 0:
        return None  # zero sweeps
    dims = seed.bounds.dims
    if (tuple(lo for lo, _ in dims) != plan.low
            or tuple(hi for _, hi in dims) != plan.high):
        return None  # not the bounds the blocks were planned for
    if not len(seed.cells):
        return None  # an empty mesh: no block to sweep
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
