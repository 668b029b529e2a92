"""Executing a compiled program.

:class:`CompiledProgram` holds one :class:`ProgramStep` per scheduled
binding; calling it runs the steps in topological order against one
shared environment dict.  Array steps call their per-binding
:class:`~repro.codegen.compile.CompiledComp`; in-place steps hand the
dead producer's buffer in as ``old_array``; iterate steps drive the
compiled sweep either truly in place (SOR) or by double-buffer
swapping (Jacobi).  An in-place step that lowered to C runs every
sweep, and the convergence test, in one native call (``'.sweeps'``
slot).  A double-buffered step that lowered to python runs as the
one-block placement of the vectorized block kernel that dist blocks
and out-of-core tiles also run: an admitted float seed sweeps two
float64 buffers, swapped each sweep (:func:`_sweep_block`).  Every
other double-buffered seed takes the list path (:func:`_sweep_double`),
which threads dead buffers back through the emitters' ``'.reuse'``
slot so a whole convergence run allocates O(1) arrays.  The Python
sweeps here, out of core and on dist workers all run in
:func:`repro.program.iterate.run_sweeps`, and every executor ends its
run in :func:`finish_sweeps`, which counts the sweeps and raises the
one cap error.

Scalar and function bindings are evaluated by the reference
interpreter at run time (they are cheap and arbitrary expressions);
compiled array code reaches program-level functions as plain callables
through the usual ``_v_name`` environment fetch.

Everything here is picklable (ASTs, reports, and ``CompiledComp``'s
source-based pickling), which is what lets the compile service
round-trip whole programs through its disk tier.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.codegen.compile import CompiledComp
from repro.codegen.support import FlatArray, alloc_buffer, flatten_input
from repro.lang import ast
from repro.obs.trace import count_runtime
from repro.program import iterate
from repro.program.iterate import max_abs_diff, run_sweeps
from repro.program.report import ProgramReport

try:  # buffers may be numpy arrays when the C backend produced them
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None


def _copy_cells(cells):
    """A same-typed private copy of a cell buffer (list or ndarray)."""
    return cells.copy()


def _donatable(cells) -> bool:
    """Whether a dead buffer can ride the ``'.reuse'`` slot.

    Both emitters' preambles accept (and size-check) plain lists and
    float64 numpy buffers; anything else is not a known buffer type.
    """
    if isinstance(cells, list):
        return True
    return _np is not None and isinstance(cells, _np.ndarray)


class ProgramError(Exception):
    """A compiled program failed at run time (missing input, diverging
    convergence loop, bad override)."""


@dataclass
class IteratePlan:
    """Runtime plan for one ``iterate``/``converge`` binding."""

    kind: str               # 'steps' | 'until'
    param: str              # the step function's parameter name
    seed: str               # environment/binding name of the seed
    control: ast.Node       # unevaluated count / tolerance expression
    mode: str               # 'inplace' | 'double'
    step: CompiledComp
    #: Liveness verdict: the seed's buffer may be overwritten.
    seed_dead: bool = False
    #: Double-buffer only: the step provably defines every cell, so
    #: stale buffers can be handed back through '.reuse'.
    reuse_buffers: bool = False
    #: In-place only: the step lowered to C, whose split-plan kernel
    #: loops over the sweeps itself (:func:`_sweep_native`).
    native_sweeps: bool = False
    #: Block-partition plan (:class:`~repro.core.distplan
    #: .DistBindingPlan`) when the binding compiled with ``dist=``;
    #: ``None`` runs the single-process sweep paths below.
    dist: Optional[object] = None
    #: Out-of-core streaming plan (also a :class:`~repro.core.distplan
    #: .DistBindingPlan`; the tile is the block-partition unit) when
    #: the binding compiled with ``ooc=``.  When it is planned, dist
    #: is not — both placements admit the same seeds.
    ooc: Optional[object] = None
    #: One-block plan (a :class:`~repro.core.distplan.DistBindingPlan`
    #: with one row block spanning axis 0) for a double-buffered step
    #: that lowered to python: admitted seeds sweep the block kernel
    #: in memory (:func:`_sweep_block`), the rest the list path.
    block: Optional[object] = None


@dataclass
class ProgramStep:
    """One scheduled binding, ready to execute."""

    name: str
    #: 'array' | 'inplace' | 'bigupd' | 'accum' | 'iterate' | 'scalar'
    #: | 'function' | 'alias'
    kind: str
    compiled: Optional[CompiledComp] = None
    old_array: Optional[str] = None      # inplace: donated buffer name
    #: The old array is an external input (bigupd on an environment
    #: array): copy it before mutating, like the pure oracle would.
    copy_old: bool = False
    expr: Optional[ast.Node] = None      # scalar / function bindings
    target: Optional[str] = None         # alias bindings
    iterate: Optional[IteratePlan] = None


class CompiledProgram:
    """A compiled multi-binding program.

    Calling it with an environment dict (size parameters, input
    arrays) executes every scheduled binding and returns the result
    binding's value.  ``steps=`` / ``tol=`` override the iteration
    control of the program's convergence loops (the CLI's
    ``--iterate`` flag).
    """

    def __init__(self, steps: List[ProgramStep], report: ProgramReport,
                 params: Optional[Dict] = None):
        self.steps = steps
        self.report = report
        self.params = dict(params or {})

    def __call__(self, env: Optional[Dict] = None, *,
                 steps: Optional[int] = None,
                 tol: Optional[float] = None):
        if (steps is not None or tol is not None) and not any(
            step.kind == "iterate" for step in self.steps
        ):
            raise ProgramError(
                "steps=/tol= override given, but this program has no "
                "iterate/converge binding to apply it to"
            )
        return _execute(self, dict(env or {}), steps, tol)

    def sources(self) -> Dict[str, str]:
        """Generated Python per compiled binding, in schedule order."""
        out: Dict[str, str] = {}
        for step in self.steps:
            if step.compiled is not None:
                out[step.name] = step.compiled.source
            elif step.iterate is not None:
                out[step.name] = step.iterate.step.source
        return out

    def __repr__(self):
        return (
            f"CompiledProgram(bindings={len(self.steps)}, "
            f"result={self.report.result!r})"
        )


# ----------------------------------------------------------------------
# Execution.


#: Result types that hold no interpreter value, hence no path back to
#: the call's global scope (compiled steps return forced cells).
_DETACHED = (FlatArray, int, float, complex, str)


@functools.lru_cache(maxsize=1)
def _interpreter():
    """The interpreter every call shares: it keeps no per-call state
    (only the prelude scope), and a fresh one per call would leave its
    self-referencing prelude as cyclic garbage."""
    from repro.interp.interp import Interpreter

    return Interpreter()


def _execute(program: CompiledProgram, env: Dict,
             steps_override: Optional[int],
             tol_override: Optional[float]):
    from repro.interp.interp import deep_force

    merged = dict(program.params)
    merged.update(env)
    env = merged
    interp = _interpreter()
    genv = interp.globals.child(dict(env))

    def define(name, value):
        env[name] = value
        genv.define(name, value)

    for step in program.steps:
        if step.kind == "scalar":
            define(step.name, deep_force(interp.eval(step.expr, genv)))
        elif step.kind == "function":
            # The interpreter applies Closures; compiled code calls
            # plain ``_v_name(args)`` — give each its own shape.
            closure = interp.eval(step.expr, genv)
            genv.define(step.name, closure)
            env[step.name] = _as_callable(interp, closure)
        elif step.kind == "alias":
            if step.target not in env:
                raise ProgramError(
                    f"binding {step.name!r} aliases {step.target!r}, "
                    "which is neither defined by the program nor "
                    "present in the environment"
                )
            define(step.name, env[step.target])
        elif step.kind == "iterate":
            define(step.name, _run_iterate(
                step.iterate, env, interp, genv,
                steps_override, tol_override,
            ))
        else:  # array / inplace / bigupd / accum
            _require_inputs(step, env)
            call_env = env
            if step.copy_old:
                old = env[step.old_array]
                if isinstance(old, FlatArray):
                    # Mutate a private copy; readers of the old name
                    # keep seeing the caller's pristine array.
                    alloc_buffer(len(old.cells))
                    call_env = dict(env)
                    call_env[step.old_array] = FlatArray(
                        old.bounds, _copy_cells(old.cells)
                    )
            define(step.name, step.compiled(call_env))
    result = env[program.report.result]
    if isinstance(result, _DETACHED):
        # Function bindings close over ``genv`` while ``genv`` binds
        # them: a cycle holding every array of the call.  Dropping the
        # bindings breaks it unless the result may still need them (a
        # function, or anything else that can reach the scope).
        genv.bindings.clear()
    return result


def _require_inputs(step: ProgramStep, env: Dict) -> None:
    if step.old_array is not None and step.old_array not in env:
        raise ProgramError(
            f"binding {step.name!r} reuses the storage of "
            f"{step.old_array!r}, which is missing from the environment"
        )


def _as_callable(interp, closure):
    """Wrap an interpreter closure as a plain Python callable.

    Compiled array code calls free functions as ``_v_name(args)``;
    scalar bindings reach them through the interpreter directly.
    """
    from repro.runtime.thunks import force

    def call(*args):
        fn = closure
        for arg in args:
            fn = interp.apply(fn, arg)
        return force(fn)

    return call


def _run_iterate(plan: IteratePlan, env: Dict, interp, genv,
                 steps_override: Optional[int],
                 tol_override: Optional[float]):
    from repro.interp.interp import deep_force

    kind = plan.kind
    if steps_override is not None:
        kind, control = "steps", int(steps_override)
    elif tol_override is not None:
        kind, control = "until", tol_override
    else:
        try:
            control = deep_force(interp.eval(plan.control, genv))
        except NameError as exc:
            knob = "steps=N" if kind == "steps" else "tol=X"
            raise ProgramError(
                f"cannot evaluate the iteration control: {exc}; pass "
                f"it as a parameter or override with {knob}"
            ) from exc
    if kind == "steps" and (not isinstance(control, int) or control < 0):
        raise ProgramError(
            f"iterate needs a non-negative integer sweep count, "
            f"got {control!r}"
        )

    seed_value = env.get(plan.seed)
    if seed_value is None:
        raise ProgramError(
            f"iterate seed {plan.seed!r} is neither defined by the "
            "program nor present in the environment"
        )
    bounds, cells = flatten_input(seed_value)
    # flatten_input hands back the seed's own cell list only for
    # FlatArray inputs; anything else was already copied, so the
    # buffer is ours regardless of liveness.
    owned = plan.seed_dead or not isinstance(seed_value, FlatArray)
    current = FlatArray(bounds, cells)

    if plan.ooc is not None:
        from repro.program.outofcore import run_ooc_iterate

        streamed = run_ooc_iterate(plan, plan.ooc, env, kind, control,
                                   current, owned)
        if streamed is not None:
            return streamed
        # Runtime precondition failed (counted as
        # ooc.fallback.runtime): fall through — the seed was never
        # mutated.

    if plan.dist is not None:
        from repro.dist.run import run_dist_iterate

        distributed = run_dist_iterate(plan, plan.dist, env, kind,
                                       control, current, owned)
        if distributed is not None:
            return distributed
        # Runtime precondition failed (counted as
        # dist.fallback.runtime): run the single-process sweeps below
        # — the seed was never mutated.

    if plan.mode == "inplace":
        # An empty mesh gives the kernel nothing to sweep; the Python
        # driver's calls are no-ops on it.
        if plan.native_sweeps and len(current.cells):
            return _sweep_native(plan, env, kind, control, current, owned)
        return _sweep_inplace(plan, env, kind, control, current, owned)
    if plan.block is not None:
        swept = _sweep_block(plan.block, env, kind, control, current)
        if swept is not None:
            return swept
        # Not admitted: the list path below — the seed is untouched.
    return _sweep_double(plan, env, kind, control, current, owned)


def finish_sweeps(mode: str, sweeps: int, converged: bool,
                  control) -> None:
    """End a sweep run, in any executor: count it, raise at the cap.

    ``iterate.sweeps.<mode>`` gets every sweep that ran — a capped
    ``converge`` counts its cap wherever it ran — and a run that never
    converged raises the one cap error.
    """
    count_runtime(f"iterate.sweeps.{mode}", sweeps)
    if not converged:
        raise ProgramError(
            f"converge: no fixpoint within {sweeps} sweeps "
            f"(tol={control!r})"
        )


def _float_tol(control) -> float:
    """The float64 ``t`` with ``d <= t`` exactly when ``d <= control``
    for every float64 ``d``: what the native fold compares against.

    A non-numeric ``control`` raises the ``TypeError`` the Python
    driver's ``<=`` would; an int or other exact tolerance that float64
    cannot hold rounds down, never up.
    """
    positive = control > 0.0  # the TypeError, before any conversion
    try:
        tol = float(control)
    except OverflowError:  # an int beyond the float64 range
        return math.inf if positive else -math.inf
    return math.nextafter(tol, -math.inf) if tol > control else tol


def _sweep_native(plan: IteratePlan, env: Dict, kind: str, control,
                  current: FlatArray, owned: bool) -> FlatArray:
    """In-place sweeps in one native call (C-lowered split plans).

    The seed becomes a float64 buffer once — for a live seed that is
    also the private copy — and the kernel's own loop runs the sweeps
    and the convergence fold (:mod:`repro.backends.c`), returning the
    sweep count, or -1 at the cap.  Values and sweep counts equal
    :func:`_sweep_inplace`.
    """
    from repro.backends.native import as_f64

    cells = as_f64(current.cells)
    if not owned:
        alloc_buffer(len(cells))
        if cells is current.cells:
            cells = cells.copy()
    result = FlatArray(current.bounds, cells)
    cap = iterate.CONVERGE_CAP
    if kind == "steps":
        limits = (control, None)
    else:
        limits = (cap, _float_tol(control))
    swept = plan.step({**env, plan.param: result, ".sweeps": limits})
    finish_sweeps("inplace", cap if swept < 0 else swept, swept >= 0,
                  control)
    return result


def _sweep_inplace(plan: IteratePlan, env: Dict, kind: str, control,
                   current: FlatArray, owned: bool) -> FlatArray:
    """True in-place sweeps (SOR): zero steady-state allocations."""
    if not owned:
        alloc_buffer(len(current.cells))
        current = FlatArray(current.bounds, _copy_cells(current.cells))
    shadow = None
    if kind == "until":
        alloc_buffer(len(current.cells))
        shadow = _copy_cells(current.cells)

    def sweep(number: int, fold: bool):
        if fold:
            shadow[:] = current.cells
        plan.step({**env, plan.param: current})
        return max_abs_diff(current.cells, shadow) if fold else None

    finish_sweeps("inplace", *run_sweeps(kind, control, sweep), control)
    return current


def _sweep_block(block, env: Dict, kind: str, control,
                 seed: FlatArray) -> Optional[FlatArray]:
    """Double-buffer sweeps as the one-block placement: ``None`` unless
    :func:`repro.dist.kernel.admit` accepts the call.

    The seed is copied into one of two float64 buffers, never mutated;
    each sweep runs the vectorized block kernel over the whole mesh
    into the other buffer and the two swap roles.  The convergence
    fold is the exact numpy ``max |dst - src|`` over the block, so
    values and sweep counts equal :func:`_sweep_double`'s (and the
    dist and out-of-core runs of the same kernel).
    """
    from repro.dist.kernel import (
        admit,
        as_f64,
        block_sweep,
        kernel_fn,
        window_env,
    )

    env_base = admit(block, env, kind, control, seed, as_f64)
    if env_base is None:
        return None
    window_env(env_base, block.kernel, block.row_blocks[0])
    build = kernel_fn(block.kernel)
    size = len(seed.cells)
    buffers = (_np.array(seed.cells, dtype=_np.float64),
               _np.empty(size, dtype=_np.float64))
    alloc_buffer(size)
    alloc_buffer(size)
    bounds = seed.bounds
    whole = slice(None)

    def sweep(number: int, fold: bool):
        src, dst = buffers[number % 2], buffers[1 - number % 2]
        return block_sweep(build, env_base, block.param, bounds, src,
                           dst, whole, fold)

    sweeps, converged = run_sweeps(kind, control, sweep)
    count_runtime("iterate.block.sweeps", sweeps)
    finish_sweeps("double", sweeps, converged, control)
    return FlatArray(bounds, buffers[sweeps % 2].tolist())


def _sweep_double(plan: IteratePlan, env: Dict, kind: str, control,
                  seed: FlatArray, owned: bool) -> FlatArray:
    """Double-buffer sweeps (Jacobi): at most two live buffers.

    Each sweep reads ``previous`` and writes a fresh output; the buffer
    the *previous* sweep read becomes the spare handed back to the
    compiled step through the ``'.reuse'`` slot.  The seed's own buffer
    joins the rotation only when liveness proved it dead.
    """
    previous = seed
    spare = None

    def sweep(number: int, fold: bool):
        nonlocal previous, spare
        call_env = dict(env)
        call_env[plan.param] = previous
        if plan.reuse_buffers and spare is not None:
            call_env[".reuse"] = spare
            count_runtime("iterate.buffers.recycled")
        stepped = plan.step(call_env)
        delta = (max_abs_diff(stepped.cells, previous.cells) if fold
                 else None)
        may_donate = previous is not seed or owned
        spare = previous.cells if (
            may_donate and _donatable(previous.cells)
        ) else None
        previous = stepped
        return delta

    finish_sweeps("double", *run_sweeps(kind, control, sweep), control)
    return previous
