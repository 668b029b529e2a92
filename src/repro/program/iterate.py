"""The ``iterate``/``converge`` surface form of program bindings.

A binding whose right-hand side is ``iterate f x0 k`` (run ``f`` for
``k`` sweeps) or ``converge f x0 tol`` (run ``f`` until the largest
element-wise change is at most ``tol``) is a *convergence loop*: the
program compiler compiles ``f``'s body once and drives it repeatedly,
either with true in-place sweeps (Gauss-Seidel/SOR, §9) or with
double-buffer swapping (Jacobi).

This module holds the spec extraction plus the two constants the
compiled driver and the lazy interpreter share: the sweep cap and the
convergence metric.  Sharing them verbatim is what keeps ``converge``
bit-identical between :func:`repro.program.compile_program` and
:func:`repro.interp.run_program` — same arithmetic, same sweep count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lang import ast

try:  # optional fast path for the convergence metric
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

#: Sweep bound for ``converge``: a diverging iteration (or an
#: unreachable tolerance) fails loudly instead of spinning forever.
CONVERGE_CAP = 10_000

#: The two iteration heads and the control kind each one takes.
ITERATE_HEADS = {"iterate": "steps", "converge": "until"}


def max_abs_diff(new, old) -> float:
    """``max |new[c] - old[c]|`` over two equal-length cell lists.

    The convergence metric.  Both the compiled driver and the
    interpreter builtin call exactly this function, so the float
    comparison sequence is shared.

    All-float cell lists take a numpy path: float64 subtraction, abs
    and max are the exact operations of the scalar loop, so the result
    (and hence every sweep count) is bit-identical — the loop below is
    the reference and the fallback (non-float cells, tiny lists, no
    numpy).

    NaN rule: a NaN delta (``inf - inf`` in a diverging sweep) makes
    the result NaN, and ``NaN <= tol`` is false, so the sweep counts
    as not converged.  ``numpy.max`` already propagates NaN; the
    scalar loop returns it at once.  Every other convergence fold —
    out-of-core tiles, the dist tree reduction, the native C sweep
    loop — keeps the same rule, so a diverging solve ends the same
    way at every mesh size and placement.
    """
    if _np is not None and len(new) == len(old) and len(new) > 64:
        try:
            delta = _np.asarray(new) - _np.asarray(old)
        except Exception:
            delta = None  # non-numeric cells: use the scalar loop
        if delta is not None and delta.dtype.kind == "f":
            return float(_np.max(_np.abs(delta)))
    best = 0
    for fresh, stale in zip(new, old):
        delta = fresh - stale
        if delta != delta:  # NaN: not converged, whatever follows
            return delta
        if delta < 0:
            delta = -delta
        if delta > best:
            best = delta
    return best


@dataclass
class IterateSpec:
    """One recognized ``iterate``/``converge`` application.

    ``kind`` is ``"steps"`` (fixed sweep count) or ``"until"``
    (tolerance-driven); ``control`` is the unevaluated count/tolerance
    expression (evaluated in the runtime environment, so ``tol`` may be
    a parameter or another binding).
    """

    kind: str
    fn: str
    seed: str
    control: ast.Node


class IterateShapeError(Exception):
    """An ``iterate``/``converge`` head applied to the wrong shape."""


def find_iterate(expr: ast.Node) -> Optional[IterateSpec]:
    """Recognize ``iterate f x0 k`` / ``converge f x0 tol``.

    Returns ``None`` for expressions that are not iteration loops at
    all; raises :class:`IterateShapeError` (loudly, with the expected
    shape) when the head *is* ``iterate``/``converge`` but the
    application does not fit — a silent fall-through there would demote
    a typo to the lazy interpreter.
    """
    if not (isinstance(expr, ast.App) and isinstance(expr.fn, ast.Var)
            and expr.fn.name in ITERATE_HEADS):
        return None
    head = expr.fn.name
    usage = (
        f"'{head}' takes a step function name, a seed array name, and "
        + ("a sweep count" if head == "iterate" else "a tolerance")
        + f": {head} step u0 "
        + ("k" if head == "iterate" else "tol")
    )
    if len(expr.args) != 3:
        raise IterateShapeError(
            f"{usage} (got {len(expr.args)} argument(s))"
        )
    fn, seed, control = expr.args
    if not isinstance(fn, ast.Var):
        raise IterateShapeError(
            f"{usage}; the step must be a named program binding so it "
            "can be compiled once (got an inline expression)"
        )
    if not isinstance(seed, ast.Var):
        raise IterateShapeError(
            f"{usage}; the seed must be a named binding or input array "
            "(got an inline expression)"
        )
    return IterateSpec(
        kind=ITERATE_HEADS[head],
        fn=fn.name,
        seed=seed.name,
        control=control,
    )
