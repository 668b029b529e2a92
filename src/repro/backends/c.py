"""The native-C backend: scheduled loop IR to a cffi shared object.

The scheduled loop IR (§6 normalization + §8 static scheduling) is
already backend-neutral; this emitter walks the exact same
``Schedule.items`` tree as the python emitter and produces

* a **C kernel** — the loop nest over raw ``double`` buffers, compiled
  once per content hash by :mod:`repro.backends.native`; and
* a **python wrapper module** — the ``_build(_env)`` the pipeline
  ``exec``'s: it computes bounds, flattens inputs to float64 numpy
  buffers (zero-copy when already so), calls the kernel through cffi,
  and returns a :class:`~repro.codegen.support.FlatArray` whose cells
  are the numpy buffer.  The wrapper embeds the C source, so a
  disk-cache hit re-``exec``'s the wrapper and reloads the cached
  ``.so`` without ever invoking the C compiler.

A §9 split plan updates its buffer in place, so its kernel wraps the
loop nest in a **sweep loop**: ``'.sweeps': (limit, tol)`` in the
environment runs up to ``limit`` sweeps in one native call — for a
``tol`` (``converge``), until ``max |new - old|`` over a shadow copy is
within it — and the step returns the sweep count, or -1 when converge
ran out (:func:`repro.program.run._sweep_native` is the caller).
``repro_kernel`` stays the one exported symbol.

An untiled, perfect, two-deep nest whose inner loop carries a
recurrence runs as a **row strip**: unroll-and-jam with the body
printed once, :data:`STRIP_ROWS` iterations of the outer loop run in
order inside each inner iteration, so several rows' dependence chains
overlap instead of each cell waiting on its west neighbour alone.
It is legal when the nest passes tiling's test
(:func:`~repro.core.tiling.check_permutable`): every edge among its
clauses has only ``<``/``=`` components, both loops run forward (or
``either``) with step 1, and the inner bounds do not mention the outer
variable.  It is used only where it pays: some edge is carried by the
inner loop (``(=,<)``); where the inner loop carries nothing (PASCAL,
MATMUL) the core already overlaps its iterations.  Every cell keeps
its expression, operands and clause order.  Each jammed nest adds
one ``parallel`` line to the report once the whole kernel is emitted.

Bit-identity with the python emitter is a hard contract (the
differential suite asserts it), which dictates the translation rules:

* expressions keep python's exact parenthesization, and kernels are
  compiled with ``-ffp-contract=off`` so no FMA re-rounds;
* *index* context is exact ``long`` arithmetic with floor-division
  helpers matching python's ``//`` / ``%``;
* *value* context is ``double``; a statically integral subexpression
  is computed in ``long`` and converted once, mirroring python's
  exact ``int`` arithmetic feeding a float consumer;
* ``min``/``max`` are python-ordered ternaries, ``sum``/``product``
  become statement-form accumulation loops seeded ``0.0`` / ``1.0``,
  and libm intrinsics match CPython's ``math`` module (itself libm).

Anything outside this fragment — thunked fallbacks, accumulated
stores, §9 snapshot/hoist temporaries, runtime check instrumentation,
partial comprehensions (a C buffer has no ``None``), environment
function calls, non-affine guards beyond the translatable boolean
fragment — raises :class:`~repro.backends.base.BackendUnsupported`
with an actionable reason, and the dispatcher falls back to the
python emitter loudly.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.backends.base import BackendUnsupported, LoweringJob
from repro.codegen.emit import input_prologue
from repro.codegen.exprs import CodegenError, ExprGen
from repro.comprehension.loopir import SVClause
from repro.core.schedule import ScheduledClause, ScheduledLoop
from repro.core.tiling import TileReject, check_permutable
from repro.lang import ast

#: Comparison operators shared by the long and double fragments.
_CMP_OPS = {"==": "==", "/=": "!=", "<": "<", "<=": "<=",
            ">": ">", ">=": ">="}

#: Outer-loop iterations per row strip (:meth:`_CEmitter.emit_strip`).
#: 6 ran SOR's sweeps fastest; 4 to 8 were within 10% of each other.
STRIP_ROWS = 6

#: libm intrinsics whose CPython counterparts are the same libm.
_LIBM = {"sqrt": "sqrt", "exp": "exp", "log": "log",
         "sin": "sin", "cos": "cos"}

_FLOORDIV_C = """\
static long _floordiv(long a, long b) {
    long q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}
"""

_FLOORMOD_C = """\
static long _floormod(long a, long b) {
    long r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
"""

#: The convergence fold of a split-plan kernel's sweep loop: exact
#: ``max |new - old|`` with :func:`repro.program.iterate.max_abs_diff`'s
#: NaN rule (a NaN delta is returned at once: not converged).
_MAX_ABS_DIFF_C = """\
static double _max_abs_diff(const double *_new, const double *_old,
                            long _n) {
    double _worst = 0.0;
    for (long _at = 0; _at < _n; _at++) {
        double _delta = fabs(_new[_at] - _old[_at]);
        if (_delta != _delta) return _delta;
        if (_delta > _worst) _worst = _delta;
    }
    return _worst;
}
"""

#: A split-plan kernel's body inside its sweep loop.  ``_shadow`` is
#: ``NULL`` for ``iterate`` (run ``_limit`` sweeps); for ``converge`` it
#: holds each sweep's input, and the loop stops once the fold is
#: ``<= _tol``.  Returns the sweep count, or -1 when converge ran out.
_SWEEP_LOOP_C = """\
    long _cells = {cells};
    for (long _sweep = 1; _sweep <= _limit; _sweep++) {{
        if (_shadow)
            memcpy(_shadow, _out, _cells * sizeof(double));
{body}
        if (_shadow && _max_abs_diff(_out, _shadow, _cells) <= _tol)
            return _sweep;
    }}
    return _shadow ? -1 : _limit;
"""

_WRAPPER_HEADER = '''\
"""Generated by repro.backends.c — do not edit."""
import math as _math
import numpy as _np
from repro.runtime.bounds import Bounds
from repro.runtime import incremental as _incr
from repro.codegen.support import (
    FlatArray,
    alloc_buffer as _alloc,
    flatten_input,
)
from repro.backends.native import as_f64 as _as_f64
from repro.backends.native import load_kernel as _load_kernel
from repro.obs.trace import count_runtime as _count_runtime
'''


def _c_float(value) -> str:
    """A C double literal with exactly python's ``repr`` round-trip."""
    literal = repr(float(value))
    if "inf" in literal or "nan" in literal:
        raise BackendUnsupported(
            f"non-finite literal {literal} has no portable C spelling"
        )
    return literal


class _CWriter:
    """Brace-managed C statement writer (body of ``repro_kernel``)."""

    def __init__(self):
        self.lines: List[str] = []
        self.indent = 1

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def open(self, header: str) -> None:
        self.line((header + " {") if header else "{")
        self.indent += 1

    def close(self, count: int = 1) -> None:
        for _ in range(count):
            self.indent -= 1
            self.line("}")


class _CEmitter:
    """One kernel's translation state (mirrors ``codegen._Emitter``)."""

    def __init__(self, job: LoweringJob):
        self.job = job
        self.comp = job.comp
        self.params: Dict[str, object] = dict(job.params or {})
        self.w = _CWriter()
        self.arrays: Dict[str, int] = {}   # other input arrays -> rank
        self.c_env: set = set()            # env scalars the kernel takes
        self.helpers: set = set()          # 'floordiv' | 'floormod'
        self.counter = 0
        #: >0 inside a ternary branch or a short-circuit RHS, where
        #: statement hoisting (lets, reductions) would evaluate
        #: unconditionally — possibly reading out of bounds.
        self.cond_depth = 0
        self.old_array: Optional[str] = None
        self.read_old = None               # dims -> C lvalue, inplace only
        self._loop_cnames: Dict[str, str] = {}
        self._used_cnames: set = set()
        #: One ``parallel`` decision line per nest run as a row strip.
        self.strips: List[str] = []

    # ------------------------------------------------------------------
    # Names.

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"_{stem}{self.counter}"

    def loop_cname(self, var: str) -> str:
        """Stable, C-safe name for a source loop variable."""
        got = self._loop_cnames.get(var)
        if got is not None:
            return got
        base = "_u_" + re.sub(r"[^0-9A-Za-z_]", "_", var)
        name, suffix = base, 1
        while name in self._used_cnames:
            suffix += 1
            name = f"{base}{suffix}"
        self._used_cnames.add(name)
        self._loop_cnames[var] = name
        return name

    # ------------------------------------------------------------------
    # Typing: is this expression exact integer arithmetic?

    def integral(self, node, scope) -> bool:
        if isinstance(node, ast.Lit):
            return isinstance(node.value, int)  # covers bool
        if isinstance(node, ast.Var):
            entry = scope.get(node.name)
            if entry is not None:
                return entry[0] == "long"
            value = self.params.get(node.name)
            return isinstance(value, int)
        if isinstance(node, ast.UnOp):
            return node.op == "-" and self.integral(node.operand, scope)
        if isinstance(node, ast.BinOp):
            return node.op in ("+", "-", "*") and (
                self.integral(node.left, scope)
                and self.integral(node.right, scope)
            )
        if isinstance(node, ast.If):
            return (self.integral(node.then, scope)
                    and self.integral(node.else_, scope))
        if isinstance(node, ast.App) and isinstance(node.fn, ast.Var):
            name = node.fn.name
            if name in ("div", "mod") and len(node.args) == 2:
                return (self.integral(node.args[0], scope)
                        and self.integral(node.args[1], scope))
            if name == "truncate" and len(node.args) == 1:
                return True
        return False

    @staticmethod
    def _boolean_shaped(node) -> bool:
        if isinstance(node, ast.UnOp):
            return node.op == "not"
        if isinstance(node, ast.BinOp):
            return node.op in _CMP_OPS or node.op in ("&&", "||")
        return False

    # ------------------------------------------------------------------
    # Index context: exact long arithmetic.

    def index(self, node, scope) -> str:
        if isinstance(node, ast.Lit):
            if isinstance(node.value, bool):
                return "1" if node.value else "0"
            if isinstance(node.value, int):
                return repr(node.value)
            raise BackendUnsupported(
                f"non-integer literal {node.value!r} in index context"
            )
        if isinstance(node, ast.Var):
            entry = scope.get(node.name)
            if entry is not None:
                kind, cname = entry
                if kind != "long":
                    raise BackendUnsupported(
                        f"let-bound value {node.name!r} used in a subscript"
                    )
                return cname
            if node.name in self.params:
                value = self.params[node.name]
                if not isinstance(value, int):
                    raise BackendUnsupported(
                        f"non-integer parameter {node.name!r} in a subscript"
                    )
                return repr(int(value))
            self.c_env.add(node.name)
            return f"_vi_{node.name}"
        if isinstance(node, ast.UnOp) and node.op == "-":
            return f"(-({self.index(node.operand, scope)}))"
        if isinstance(node, ast.BinOp):
            if node.op in ("+", "-", "*"):
                return (f"({self.index(node.left, scope)} {node.op} "
                        f"{self.index(node.right, scope)})")
            raise BackendUnsupported(
                f"operator {node.op!r} in index context"
            )
        if isinstance(node, ast.If):
            self.cond_depth += 1
            try:
                then = self.index(node.then, scope)
                else_ = self.index(node.else_, scope)
            finally:
                self.cond_depth -= 1
            return (f"(({self.boolean(node.cond, scope)}) ? "
                    f"({then}) : ({else_}))")
        if isinstance(node, ast.App) and isinstance(node.fn, ast.Var):
            name = node.fn.name
            if name in ("div", "mod") and len(node.args) == 2:
                helper = "floordiv" if name == "div" else "floormod"
                self.helpers.add(helper)
                left = self.index(node.args[0], scope)
                right = self.index(node.args[1], scope)
                return f"_{helper}({left}, {right})"
            if name == "truncate" and len(node.args) == 1:
                return f"((long)({self.value(node.args[0], scope)}))"
        raise BackendUnsupported(
            f"cannot lower {type(node).__name__} in index context"
        )

    # ------------------------------------------------------------------
    # Boolean context.

    def boolean(self, node, scope) -> str:
        if isinstance(node, ast.Lit) and isinstance(node.value, bool):
            return "1" if node.value else "0"
        if isinstance(node, ast.UnOp) and node.op == "not":
            return f"(!({self.boolean(node.operand, scope)}))"
        if isinstance(node, ast.BinOp):
            if node.op in _CMP_OPS:
                op = _CMP_OPS[node.op]
                if (self.integral(node.left, scope)
                        and self.integral(node.right, scope)):
                    return (f"({self.index(node.left, scope)} {op} "
                            f"{self.index(node.right, scope)})")
                return (f"({self.value(node.left, scope)} {op} "
                        f"{self.value(node.right, scope)})")
            if node.op in ("&&", "||"):
                op = "&&" if node.op == "&&" else "||"
                left = self.boolean(node.left, scope)
                # C short-circuits like python's and/or, but hoisted
                # statements would not; the RHS is conditional context.
                self.cond_depth += 1
                try:
                    right = self.boolean(node.right, scope)
                finally:
                    self.cond_depth -= 1
                return f"(({left}) {op} ({right}))"
        if isinstance(node, ast.If):
            self.cond_depth += 1
            try:
                then = self.boolean(node.then, scope)
                else_ = self.boolean(node.else_, scope)
            finally:
                self.cond_depth -= 1
            return (f"(({self.boolean(node.cond, scope)}) ? "
                    f"({then}) : ({else_}))")
        raise BackendUnsupported(
            f"cannot lower {type(node).__name__} as a boolean "
            "(non-affine guard)"
        )

    # ------------------------------------------------------------------
    # Value context: double arithmetic with python's parenthesization.

    def value(self, node, scope) -> str:
        if self._boolean_shaped(node):
            return f"((double)({self.boolean(node, scope)}))"
        if self.integral(node, scope):
            return f"((double)({self.index(node, scope)}))"
        if isinstance(node, ast.Lit):
            if isinstance(node.value, (int, float)):
                return _c_float(node.value)
            raise BackendUnsupported(
                f"literal {node.value!r} has no C lowering"
            )
        if isinstance(node, ast.Var):
            entry = scope.get(node.name)
            if entry is not None:
                return entry[1]
            value = self.params.get(node.name)
            if isinstance(value, (int, float)):
                return _c_float(value)
            self.c_env.add(node.name)
            return f"_v_{node.name}"
        if isinstance(node, ast.UnOp):
            if node.op == "-":
                return f"(-{self.value(node.operand, scope)})"
            raise BackendUnsupported(f"unary operator {node.op!r}")
        if isinstance(node, ast.BinOp):
            if node.op in ("+", "-", "*", "/"):
                return (f"({self.value(node.left, scope)} {node.op} "
                        f"{self.value(node.right, scope)})")
            raise BackendUnsupported(
                f"operator {node.op!r} on non-integral operands"
            )
        if isinstance(node, ast.If):
            cond = self.boolean(node.cond, scope)
            self.cond_depth += 1
            try:
                then = self.value(node.then, scope)
                else_ = self.value(node.else_, scope)
            finally:
                self.cond_depth -= 1
            return f"(({cond}) ? ({then}) : ({else_}))"
        if isinstance(node, ast.Index):
            return self.read(node, scope)
        if isinstance(node, ast.App):
            return self.app(node, scope)
        if isinstance(node, ast.Let):
            return self.let_value(node, scope)
        raise BackendUnsupported(
            f"cannot lower {type(node).__name__} in value context"
        )

    def read(self, node: ast.Index, scope) -> str:
        if not isinstance(node.arr, ast.Var):
            raise BackendUnsupported("computed array expression")
        name = node.arr.name
        idx = node.idx
        dims = idx.items if isinstance(idx, ast.TupleExpr) else [idx]
        sources = [self.index(dim, scope) for dim in dims]
        if self.old_array is not None and name == self.old_array:
            return self.read_old(sources)
        if self.comp.name and name == self.comp.name:
            return f"_out[{self.linear('out', sources)}]"
        self.arrays[name] = len(dims)
        return f"_arr_{name}[{self.linear(name, sources)}]"

    def linear(self, key: str, dims: List[str]) -> str:
        parts = []
        for position, dim in enumerate(dims):
            term = f"(({dim}) - _lo_{key}_{position})"
            for inner in range(position + 1, len(dims)):
                term += f" * _ex_{key}_{inner}"
            parts.append(term)
        return " + ".join(parts)

    def app(self, node: ast.App, scope) -> str:
        if not isinstance(node.fn, ast.Var):
            raise BackendUnsupported("computed function application")
        name = node.fn.name
        args = node.args
        if (name in ("sum", "product") and len(args) == 1
                and isinstance(args[0], (ast.Comp, ast.NestedComp))):
            return self.reduction(name, args[0], scope)
        if name in _LIBM and len(args) == 1:
            return f"{_LIBM[name]}({self.value(args[0], scope)})"
        if name == "abs" and len(args) == 1:
            return f"fabs({self.value(args[0], scope)})"
        if name in ("min", "max") and len(args) >= 2:
            # python's two-argument fold: the *later* argument wins a
            # strict comparison, the earlier one wins ties (and NaNs).
            op = "<" if name == "min" else ">"
            acc = self.value(args[0], scope)
            for arg in args[1:]:
                nxt = self.value(arg, scope)
                acc = f"(({nxt}) {op} ({acc}) ? ({nxt}) : ({acc}))"
            return acc
        if name == "fromIntegral" and len(args) == 1:
            return self.value(args[0], scope)
        if name == "negate" and len(args) == 1:
            return f"(-{self.value(args[0], scope)})"
        if name == "signum" and len(args) == 1:
            operand = self.value(args[0], scope)
            return (f"((double)((({operand}) > 0.0) - "
                    f"(({operand}) < 0.0)))")
        if name in ("div", "mod"):
            raise BackendUnsupported(
                f"{name} on non-integral operands"
            )
        if name in scope or name in self.params:
            raise BackendUnsupported(
                f"call through local binding {name!r}"
            )
        raise BackendUnsupported(
            f"call to environment function {name!r} (only libm "
            "intrinsics lower to C)"
        )

    def let_value(self, node: ast.Let, scope) -> str:
        if node.kind != "let":
            raise BackendUnsupported("recursive let inside a clause value")
        if self.cond_depth:
            raise BackendUnsupported(
                "let expression inside a conditional branch"
            )
        # Binds are parallel (python emits them as lambda defaults):
        # every expression sees only the *outer* scope.
        inner = dict(scope)
        for bind in node.binds:
            if bind.params:
                raise BackendUnsupported("function-valued let binding")
            cname = self.fresh("let")
            self.w.line(
                f"double {cname} = {self.value(bind.expr, scope)};"
            )
            inner[bind.name] = ("double", cname)
        return self.value(node.body, inner)

    def reduction(self, name: str, comp, scope) -> str:
        if isinstance(comp, ast.NestedComp):
            raise BackendUnsupported("reduction over a nested comprehension")
        if self.cond_depth:
            raise BackendUnsupported("reduction inside a conditional branch")
        acc = self.fresh("acc")
        init = "0.0" if name == "sum" else "1.0"
        op = "+" if name == "sum" else "*"
        self.w.line(f"double {acc} = {init};")
        self.w.open("")
        opened = 1
        inner = dict(scope)
        for qual in comp.quals:
            if isinstance(qual, ast.Generator):
                if not isinstance(qual.source, ast.EnumSeq):
                    raise BackendUnsupported(
                        "reduction generator must be an arithmetic sequence"
                    )
                seq = qual.source
                start = self.fresh("rs")
                stop = self.fresh("re")
                self.w.line(
                    f"long {start} = {self.index(seq.start, inner)};"
                )
                self.w.line(
                    f"long {stop} = {self.index(seq.stop, inner)};"
                )
                var = self.fresh("rv")
                if seq.second is None:
                    self.w.open(
                        f"for (long {var} = {start}; {var} <= {stop}; "
                        f"{var} += 1)"
                    )
                    opened += 1
                else:
                    step = self.fresh("rt")
                    self.w.line(
                        f"long {step} = "
                        f"({self.index(seq.second, inner)}) - ({start});"
                    )
                    self.w.open(f"if ({step} != 0)")
                    self.w.open(
                        f"for (long {var} = {start}; "
                        f"({step} > 0) ? ({var} <= {stop}) : "
                        f"({var} >= {stop}); {var} += {step})"
                    )
                    opened += 2
                inner[qual.var] = ("long", var)
            elif isinstance(qual, ast.Guard):
                self.w.open(f"if ({self.boolean(qual.cond, inner)})")
                opened += 1
            else:
                raise BackendUnsupported("let qualifier inside a reduction")
        head = self.value(comp.head, inner)
        self.w.line(f"{acc} = {acc} {op} ({head});")
        self.w.close(opened)
        return acc

    # ------------------------------------------------------------------
    # Scheduled-item walking (same tree as codegen._Emitter).

    def emit_items(self, items, scope) -> None:
        for item in items:
            if isinstance(item, ScheduledClause):
                self.emit_clause(item.clause, scope)
            else:
                self.emit_loop(item, scope)

    def emit_tiled(self, items, tiling) -> None:
        """Blocked emission of a perfect chain (the only lowering of a
        :class:`~repro.core.tiling.TilePlan`): tile loops outermost,
        clamped point loops inside, bounds hoisted once (the plan
        proved the nest rectangular and forward with unit stride)."""
        loops = []
        while not all(isinstance(item, ScheduledClause) for item in items):
            loops.append(items[0])
            items = items[0].body
        clauses = list(items)
        scope: Dict[str, object] = {}
        for level, scheduled in enumerate(loops):
            self.w.line(
                f"long _ts{level} = "
                f"{self.index(scheduled.loop.start, scope)};"
            )
            self.w.line(
                f"long _te{level} = "
                f"{self.index(scheduled.loop.stop, scope)};"
            )
        opened = 0
        for level, size in enumerate(tiling.sizes):
            self.w.open(
                f"for (long _t{level} = _ts{level}; "
                f"_t{level} <= _te{level}; _t{level} += {size})"
            )
            opened += 1
            self.w.line(
                f"long _t{level}e = _t{level} + {size - 1} < _te{level} "
                f"? _t{level} + {size - 1} : _te{level};"
            )
        for level, scheduled in enumerate(loops):
            var = self.loop_cname(scheduled.loop.var)
            self.w.open(
                f"for (long {var} = _t{level}; {var} <= _t{level}e; "
                f"{var} += 1)"
            )
            opened += 1
            scope[scheduled.loop.var] = ("long", var)
        for item in clauses:
            self.emit_clause(item.clause, scope)
        self.w.close(opened)

    def emit_loop(self, item, scope) -> None:
        inner = self.strip_inner(item)
        if inner is not None:
            self.emit_strip(item, inner, scope)
            return
        var, header = self.loop_header(item, scope)
        self.w.open(header)
        self.emit_items(item.body, {**scope, item.loop.var: ("long", var)})
        self.w.close()

    def strip_inner(self, item) -> Optional[ScheduledLoop]:
        """The inner loop when ``item`` heads a nest to run as a row
        strip, else ``None``.

        The nest must be perfect and two deep, pass the tiling
        legality test (:func:`~repro.core.tiling.check_permutable`)
        over the edges among its clauses, and have an edge carried by
        the inner loop: without such a recurrence the core already
        overlaps the inner iterations, and a strip only costs.
        """
        body = item.body
        if len(body) != 1 or not isinstance(body[0], ScheduledLoop):
            return None
        inner = body[0]
        if not all(isinstance(entry, ScheduledClause)
                   for entry in inner.body):
            return None
        inside = {id(entry.clause) for entry in inner.body}
        edges = [edge for edge in self.job.edges
                 if id(edge.src) in inside and id(edge.dst) in inside]
        try:
            check_permutable([item, inner], edges)
        except TileReject:
            return None
        if not any(edge.level == len(edge.direction) - 1
                   for edge in edges):
            return None
        return inner

    def emit_strip(self, item, inner, scope) -> None:
        """A row strip: unroll-and-jam of :data:`STRIP_ROWS` outer
        iterations into the inner loop, with the body printed once.

        Each inner iteration runs the strip's rows in order, so one
        row's dependence chain overlaps the next row's.  Every cell
        keeps its expression, operands and clause order, and no
        dependence runs against the new order (:meth:`strip_inner`),
        so results are bit-identical to the plain nest.
        """
        outer = item.loop
        start_name, stop_name = self.bounds(outer, scope)
        first = self.fresh("r")
        last = self.fresh("re")
        self.w.open(
            f"for (long {first} = {start_name}; {first} <= {stop_name}; "
            f"{first} += {STRIP_ROWS})"
        )
        self.w.line(
            f"long {last} = {first} + {STRIP_ROWS - 1} < {stop_name} "
            f"? {first} + {STRIP_ROWS - 1} : {stop_name};"
        )
        # The inner bounds do not mention the outer variable.
        inner_var, header = self.loop_header(inner, scope)
        self.w.open(header)
        var = self.loop_cname(outer.var)
        self.w.open(
            f"for (long {var} = {first}; {var} <= {last}; {var} += 1)"
        )
        self.emit_items(inner.body, {
            **scope, outer.var: ("long", var),
            inner.loop.var: ("long", inner_var),
        })
        self.w.close(3)
        labels = ", ".join(entry.clause.label for entry in inner.body)
        self.strips.append(
            f"{labels}: row strip in the C kernel, {STRIP_ROWS} "
            f"iterations of loop {outer.var} jammed into loop "
            f"{inner.loop.var} (loop {inner.loop.var} carries a "
            "recurrence; no dependence has a '>' component)"
        )

    def bounds(self, loop, scope):
        """Print ``loop``'s start and stop temporaries; return them."""
        start_name = self.fresh("s")
        stop_name = self.fresh("e")
        self.w.line(f"long {start_name} = {self.index(loop.start, scope)};")
        self.w.line(f"long {stop_name} = {self.index(loop.stop, scope)};")
        return start_name, stop_name

    def loop_header(self, item, scope):
        """Print ``item``'s bound temporaries; return its C variable
        and its ``for`` header."""
        loop = item.loop
        step = loop.step
        start_name, stop_name = self.bounds(loop, scope)
        var = self.loop_cname(loop.var)
        if item.direction == "backward":
            # python: range(start + step*count, start - sgn, -step)
            # with count = (stop - start) // step (floor division).
            self.helpers.add("floordiv")
            count = self.fresh("k")
            self.w.line(
                f"long {count} = _floordiv({stop_name} - {start_name}, "
                f"{step});"
            )
            condition = (f"{var} >= {start_name}" if step > 0
                         else f"{var} <= {start_name}")
            header = (
                f"for (long {var} = {start_name} + ({step}) * {count}; "
                f"{condition}; {var} += {-step})"
            )
        else:
            condition = (f"{var} <= {stop_name}" if step > 0
                         else f"{var} >= {stop_name}")
            header = (
                f"for (long {var} = {start_name}; {condition}; "
                f"{var} += {step})"
            )
        return var, header

    def emit_clause(self, clause: SVClause, scope) -> None:
        self.w.open("")
        opened = 1
        for guard in clause.guards:
            # One C if per guard: hoisted statements belonging to a
            # later guard stay behind the earlier guards, preserving
            # python's short-circuit between guard qualifiers.
            condition = self.boolean(guard, scope)
            self.w.open(f"if ({condition})")
            opened += 1
        scope = dict(scope)
        for bind in clause.lets:
            # Clause-level lets are sequential (each sees the previous).
            if bind.params:
                raise BackendUnsupported("function-valued let binding")
            cname = self.fresh("let")
            self.w.line(
                f"double {cname} = {self.value(bind.expr, scope)};"
            )
            scope[bind.name] = ("double", cname)
        value = clause.value
        while isinstance(value, ast.Let) and value.kind == "let":
            # Peel expression-level lets into statements; binds are
            # parallel (lambda defaults), so translate against the
            # scope from before this Let.
            outer = dict(scope)
            for bind in value.binds:
                if bind.params:
                    raise BackendUnsupported("function-valued let binding")
                cname = self.fresh("let")
                self.w.line(
                    f"double {cname} = {self.value(bind.expr, outer)};"
                )
                scope[bind.name] = ("double", cname)
            value = value.body
        sub = clause.subscript_ast
        dims = sub.items if isinstance(sub, ast.TupleExpr) else [sub]
        dim_names = []
        for position, dim in enumerate(dims):
            name = self.fresh("d")
            self.w.line(f"long {name} = {self.index(dim, scope)};")
            dim_names.append(name)
        idx = self.fresh("ix")
        self.w.line(f"long {idx} = {self.linear('out', dim_names)};")
        self.w.line(f"_out[{idx}] = {self.value(value, scope)};")
        self.w.close(opened)


def emit(job: LoweringJob) -> str:
    """Lower ``job`` to a native kernel behind a python wrapper, or
    refuse it with :class:`BackendUnsupported` and the reason."""
    options = job.options
    if options.vectorize:
        raise BackendUnsupported(
            "vectorize requested — numpy slice emission is python-only"
        )
    # A check is on because the options force it or because the
    # analysis could not discharge it (an unwritten cell of a
    # partial comprehension, which a C double buffer cannot hold).
    for flag in ("bounds_checks", "collision_checks", "empties_check"):
        if getattr(options, flag):
            raise BackendUnsupported(
                f"{flag} on — runtime {flag.split('_')[0]} checks "
                "are not lowered"
            )
    if job.mode == "thunked":
        raise BackendUnsupported(
            "thunked arrays suspend element values — there is no "
            "static loop nest to lower"
        )
    if job.mode == "accum":
        raise BackendUnsupported(
            "accumulated stores (combine operators) are not lowered"
        )
    if job.mode == "guarded":
        raise BackendUnsupported(
            "guarded dual-schedule kernels (runtime subscript "
            "verification) are not lowered"
        )
    if job.mode not in ("thunkless", "inplace"):
        raise BackendUnsupported(f"unknown lowering mode {job.mode!r}")
    if job.indirect_guard_dims():
        raise BackendUnsupported(
            "indirect write subscripts (a!(idx!i)) are not lowered"
        )
    if job.schedule is None or not getattr(job.schedule, "ok", False):
        raise BackendUnsupported("no safe static schedule")
    emitter = _CEmitter(job)
    try:
        source = _emit(job, emitter)
    except CodegenError as exc:
        # Wrapper-side expression translation (bounds) failed; the
        # python emitter will raise the same error if it is real.
        raise BackendUnsupported(str(exc)) from exc
    # Logged only once the kernel is whole: a refused job leaves the
    # report to the python emitter.
    if job.parallel_log is not None:
        job.parallel_log.extend(emitter.strips)
    return source


def _emit(job: LoweringJob, emitter: _CEmitter) -> str:
    comp = job.comp
    whole_copy = False
    if job.mode == "inplace":
        plan = job.plan
        if plan.snapshots:
            raise BackendUnsupported(
                "snapshot rings (§9 node-splitting temporaries) "
                "are not lowered to C"
            )
        if plan.hoisted:
            raise BackendUnsupported(
                "hoisted temporaries (§9 node-splitting) "
                "are not lowered to C"
            )
        emitter.old_array = plan.old_array
        if plan.mode == "whole_copy":
            whole_copy = True
            emitter.read_old = (
                lambda dims: f"_old[{emitter.linear('out', dims)}]"
            )
        elif plan.mode == "split":
            emitter.read_old = (
                lambda dims: f"_out[{emitter.linear('out', dims)}]"
            )
        else:
            raise BackendUnsupported(
                f"in-place mode {plan.mode!r} is not lowered to C"
            )

    tiling = job.tiling
    if tiling is not None and getattr(tiling, "ok", False):
        emitter.emit_tiled(job.schedule.items, tiling)
    else:
        tiling = None
        emitter.emit_items(job.schedule.items, {})

    # ---- wrapper-side bounds ------------------------------------
    def no_reads(name, dims, gen):
        raise CodegenError(
            f"array read of {name!r} inside a bounds expression"
        )

    bounds_gen = ExprGen(no_reads, params=emitter.params)
    if comp.bounds_ast is None:
        if job.mode != "inplace":
            raise BackendUnsupported(
                "bounds-free comprehension outside in-place mode"
            )
        bounds_line = "_b = _bb"
    else:
        low, high = comp.bounds_ast.items
        bounds_line = (
            f"_b = Bounds({bounds_gen.emit(low)}, "
            f"{bounds_gen.emit(high)})"
        )

    # ---- kernel signature / wrapper call args -------------------
    decls: List[str] = ["double *_out"]
    call_args: List[str] = [
        "_KERNEL.ffi.from_buffer('double[]', _out)"
    ]
    for position in range(comp.rank):
        decls += [f"long _lo_out_{position}",
                  f"long _ex_out_{position}"]
        call_args += [f"_lo_out_{position}", f"_ex_out_{position}"]
    if whole_copy:
        decls.append("const double *_old")
        call_args.append("_KERNEL.ffi.from_buffer('double[]', _old)")
    for name in sorted(emitter.arrays):
        rank = emitter.arrays[name]
        decls.append(f"const double *_arr_{name}")
        call_args.append(
            f"_KERNEL.ffi.from_buffer('double[]', _np_{name})"
        )
        for position in range(rank):
            decls += [f"long _lo_{name}_{position}",
                      f"long _ex_{name}_{position}"]
            call_args += [f"_lo_{name}_{position}",
                          f"_ex_{name}_{position}"]
    for name in sorted(emitter.c_env):
        decls += [f"double _v_{name}", f"long _vi_{name}"]
        call_args += [f"float(_v_{name})", f"int(_v_{name})"]
    # A split plan sweeps _out in place, so one call can run every
    # sweep of an iterate/converge loop (the '.sweeps' slot).
    sweep_loop = job.mode == "inplace" and not whole_copy
    if sweep_loop:
        decls += ["long _limit", "double _tol", "double *_shadow"]
        call_args += ["_limit", "0.0 if _tol is None else _tol",
                      "_shadow"]

    returns = "long" if sweep_loop else "void"
    signature = f"{returns} repro_kernel({', '.join(decls)})"
    cdef = signature + ";"

    # ---- C source -----------------------------------------------
    pieces = ["#include <math.h>"]
    if sweep_loop:
        pieces += ["#include <string.h>", "", _MAX_ABS_DIFF_C.rstrip()]
    pieces.append("")
    if "floordiv" in emitter.helpers:
        pieces += [_FLOORDIV_C.rstrip(), ""]
    if "floormod" in emitter.helpers:
        pieces += [_FLOORMOD_C.rstrip(), ""]
    pieces.append(signature)
    pieces.append("{")
    if sweep_loop:
        pieces.append(_SWEEP_LOOP_C.rstrip().format(
            cells=" * ".join(
                f"_ex_out_{position}" for position in range(comp.rank)
            ),
            body="\n".join("    " + line for line in emitter.w.lines),
        ))
    else:
        pieces.extend(emitter.w.lines)
    pieces.append("}")
    c_source = "\n".join(pieces) + "\n"

    # ---- python wrapper -----------------------------------------
    env_names = sorted(emitter.c_env | bounds_gen.used_env)
    w: List[str] = [_WRAPPER_HEADER]
    w.append(f"_C_CDEF = {cdef!r}")
    w.append("_C_SOURCE = '''\\")
    w.append(c_source + "'''")
    w.append("_KERNEL = _load_kernel(_C_CDEF, _C_SOURCE)")
    w.append("")
    w.append("def _build(_env):")
    body: List[str] = []
    for name in env_names:
        body.append(f"_v_{name} = _env[{name!r}]")
    for name in sorted(emitter.arrays):
        body += input_prologue(name, emitter.arrays[name])
        body.append(f"_np_{name} = _as_f64(_arr_{name})")
    if job.mode == "inplace":
        body.append(
            f"_bb, _cells = flatten_input(_env[{emitter.old_array!r}])"
        )
    body.append(bounds_line)
    body.append("_size = _b.size()")
    for position in range(comp.rank):
        body.append(f"_lo_out_{position} = _b.dims[{position}][0]")
        body.append(f"_ex_out_{position} = _b.extent({position})")
    if job.mode == "thunkless":
        # Same '.reuse' protocol as the python emitter, but the
        # donated spare must already be a kernel-shaped buffer.
        body += [
            "_out = _env.pop('.reuse', None)",
            "if not (isinstance(_out, _np.ndarray)",
            "        and _out.dtype == _np.float64",
            "        and _out.size == _size",
            "        and _out.flags['C_CONTIGUOUS']):",
            "    _alloc(_size)",
            "    _out = _np.zeros(_size)",
        ]
    else:
        body += [
            "_shared = (isinstance(_cells, _np.ndarray)",
            "           and _cells.dtype == _np.float64",
            "           and _cells.flags['C_CONTIGUOUS'])",
            "_out = _cells if _shared else "
            "_np.ascontiguousarray(_cells, dtype=_np.float64)",
        ]
        if whole_copy:
            body += [
                "_old = _out.copy()",
                "_incr.STATS.arrays_copied += 1",
                "_incr.STATS.cells_copied += len(_old)",
            ]
    if sweep_loop:
        # '.sweeps' = (limit, tol): run up to ``limit`` sweeps, and
        # for a tol (converge) stop at the first within it; the
        # step then returns the count.  Absent: one sweep.
        body += [
            "_limit, _tol = _env.get('.sweeps', (1, None))",
            "_shadow = _KERNEL.ffi.NULL",
            "if _tol is not None:",
            "    _alloc(_size)",
            "    _shadow = _KERNEL.ffi.from_buffer('double[]', "
            "_np.empty(_size))",
            "_swept = 0",
        ]
    if tiling is not None and comp.rank == len(tiling.sizes):
        # The ``tile.count`` counter: native code cannot bump
        # python counters, so the wrapper models the grid from the
        # output bounds (tiled loops span the output dims whenever
        # rank == depth).
        grid = " * ".join(
            f"(-(-_b.extent({axis}) // {size}))"
            for axis, size in enumerate(tiling.sizes)
        )
        body.append(f"_count_runtime('tile.count', {grid})")
    body.append("if _size:")
    body.append("    _count_runtime('backend.c.kernel_calls')")
    body.append(("    _swept = " if sweep_loop else "    ")
                + "_KERNEL.lib.repro_kernel(")
    for arg in call_args:
        body.append(f"        {arg},")
    body.append("    )")
    if job.mode == "inplace":
        body += [
            "if not _shared:",
            "    _cells[:] = _out.tolist()",
            "    _out = _cells",
        ]
    if sweep_loop:
        body += ["if '.sweeps' in _env:", "    return _swept"]
    body.append("return FlatArray(_b, _out)")
    w.extend("    " + line if line else "" for line in body)
    return "\n".join(w) + "\n"
