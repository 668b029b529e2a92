"""The call-by-need evaluator.

Evaluation is lazy everywhere it matters for the paper's semantics:

* function arguments and ``let``/``letrec`` right-hand sides are bound
  as memoizing thunks;
* list comprehensions, arithmetic sequences, and ``++`` produce lazy
  lists;
* ``array`` builds a :class:`~repro.runtime.nonstrict.NonStrictArray`
  whose association-list *spine* is forced but whose element values
  remain thunks — precisely Haskell's array-comprehension semantics, so
  recursively defined arrays (wavefronts, recurrences) evaluate in
  data-dependence order on demand;
* ``letrec*`` forces every element of each bound array before the body
  runs (the paper's strict-context construct, §2).

Arithmetic, comparisons, and ``if`` conditions are strict.
"""

from __future__ import annotations

import math
from typing import Any

from repro.interp.env import Env
from repro.interp.values import (
    NIL,
    Builtin,
    Closure,
    Cons,
    haskell_list,
    iter_list,
)
from repro.lang import ast
from repro.lang.parser import parse_expr, parse_program
from repro.runtime.accum import accum_array
from repro.runtime.bounds import Bounds
from repro.runtime.force import force_elements
from repro.runtime.nonstrict import NonStrictArray
from repro.runtime.strict import StrictArray
from repro.runtime.thunks import Thunk, force


class InterpError(Exception):
    """A run-time type or arity error in the interpreted program."""


def deep_force(value: Any) -> Any:
    """Force a value hereditarily (tuples and list spines included).

    Arrays are returned as-is (their elements force on demand).
    """
    value = force(value)
    if isinstance(value, tuple):
        return tuple(deep_force(part) for part in value)
    if value is NIL or isinstance(value, Cons):
        return [deep_force(head) for head in iter_list(value)]
    return value


def _lazy_from_iter(iterator):
    """A lazy list value that draws from a Python iterator on demand."""

    def step():
        try:
            item = next(iterator)
        except StopIteration:
            return NIL
        return Cons(item, Thunk(step))

    return Thunk(step)


def _lazy_append(xs, ys):
    """Lazy ``xs ++ ys`` on (possibly thunked) list values."""

    def step(node):
        node = force(node)
        if node is NIL:
            return force(ys)
        if not isinstance(node, Cons):
            raise InterpError(f"++ applied to non-list {node!r}")
        return Cons(node.head, Thunk(lambda tail=node.tail: step(tail)))

    return Thunk(lambda: step(xs))


def _enum_seq(start, second, stop):
    """Lazy arithmetic sequence ``[start,second..stop]``."""
    step = 1 if second is None else second - start
    if step == 0:
        raise InterpError("arithmetic sequence with zero stride")

    def gen():
        current = start
        if step > 0:
            while current <= stop:
                yield current
                current += step
        else:
            while current >= stop:
                yield current
                current -= -step

    return _lazy_from_iter(gen())


def _as_bounds(value) -> Bounds:
    value = deep_force(value)
    if not (isinstance(value, tuple) and len(value) == 2):
        raise InterpError(f"array bounds must be a pair, got {value!r}")
    return Bounds(value[0], value[1])


def _assoc_pairs(assocs):
    """Walk an association list, yielding ``(subscript, value_thunk)``."""
    for pair in iter_list(assocs):
        pair = force(pair)
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise InterpError(f"array association must be a pair: {pair!r}")
        subscript = deep_force(pair[0])
        yield subscript, pair[1]


class Interpreter:
    """Evaluator with a prelude; one instance may evaluate many terms."""

    def __init__(self, extra_globals=None, deforest: bool = False):
        self.globals = Env(self._prelude())
        self.deforest = deforest
        if extra_globals:
            for name, value in extra_globals.items():
                self.globals.define(name, value)

    # ------------------------------------------------------------------
    # Prelude.

    def _prelude(self):
        def arith(name, fn):
            return Builtin(name, 2, lambda a, b: fn(force(a), force(b)))

        def unary(name, fn):
            return Builtin(name, 1, lambda a: fn(force(a)))

        prelude = {
            "array": Builtin("array", 2, self._prim_array),
            "accumArray": Builtin("accumArray", 4, self._prim_accum_array),
            "bigupd": Builtin("bigupd", 2, self._prim_bigupd),
            "forceElements": unary("forceElements", self._prim_force_elements),
            "iterate": Builtin("iterate", 3, self._prim_iterate),
            "converge": Builtin("converge", 3, self._prim_converge),
            "bounds": unary("bounds", lambda a: (a.bounds.low, a.bounds.high)),
            "flatmap": Builtin("flatmap", 2, self._prim_flatmap),
            "foldl": Builtin("foldl", 3, self._prim_foldl),
            "foldr": Builtin("foldr", 3, self._prim_foldr),
            "map": Builtin("map", 2, self._prim_map),
            "sum": unary("sum", lambda xs: _sum_list(xs)),
            "product": unary("product", _product_list),
            "length": unary("length", lambda xs: sum(1 for _ in iter_list(xs))),
            "head": unary("head", _head),
            "tail": unary("tail", _tail),
            "null": unary("null", lambda xs: force(xs) is NIL),
            "abs": unary("abs", abs),
            "negate": unary("negate", lambda x: -x),
            "signum": unary("signum", lambda x: (x > 0) - (x < 0)),
            "fromIntegral": unary("fromIntegral", float),
            "truncate": unary("truncate", int),
            "sqrt": unary("sqrt", math.sqrt),
            "exp": unary("exp", math.exp),
            "log": unary("log", math.log),
            "sin": unary("sin", math.sin),
            "cos": unary("cos", math.cos),
            "min": arith("min", min),
            "max": arith("max", max),
            "div": arith("div", lambda a, b: a // b),
            "mod": arith("mod", lambda a, b: a % b),
        }
        return prelude

    def _prim_array(self, bounds, assocs):
        return NonStrictArray(_as_bounds(force(bounds)),
                              _assoc_pairs(force(assocs)))

    def _prim_accum_array(self, f, init, bounds, assocs):
        fn = force(f)
        return accum_array(
            lambda acc, v: force(self.apply(self.apply(fn, acc), v)),
            force(init),
            _as_bounds(force(bounds)),
            ((s, force(v)) for s, v in _assoc_pairs(force(assocs))),
        )

    def _prim_bigupd(self, arr, pairs):
        arr = force(arr)
        if not isinstance(arr, (NonStrictArray, StrictArray)):
            raise InterpError(f"bigupd on non-array {arr!r}")
        cells = {s: v for s, v in arr.assocs()}
        for subscript, value in _assoc_pairs(force(pairs)):
            arr.bounds.check(subscript)
            cells[subscript] = force(value)
        return StrictArray(arr.bounds, cells.items())

    def _prim_force_elements(self, arr):
        if not isinstance(arr, NonStrictArray):
            if isinstance(arr, StrictArray):
                return arr
            raise InterpError(f"forceElements on non-array {arr!r}")
        return force_elements(arr)

    def _settle(self, value):
        """Force an array's elements between sweeps.

        Keeps ``iterate``/``converge`` chains from stacking unbounded
        thunk towers; forcing is semantics-neutral (the values are
        demanded anyway), so the compiled drivers stay bit-identical.
        """
        if isinstance(value, NonStrictArray):
            return force_elements(value)
        return value

    def _prim_iterate(self, f, x, k):
        """``iterate f x k``: apply ``f`` to ``x``, ``k`` times."""
        fn = force(f)
        count = force(k)
        if not isinstance(count, int) or count < 0:
            raise InterpError(
                f"iterate needs a non-negative integer step count, "
                f"got {count!r}"
            )
        current = self._settle(force(x))
        for _ in range(count):
            current = self._settle(force(self.apply(fn, current)))
        return current

    def _prim_converge(self, f, x, tol):
        """``converge f x tol``: apply ``f`` until the largest
        element-wise change is at most ``tol``.

        The loop shape (compare *after* each application, return the
        new array) is shared verbatim with the compiled program driver
        — see :mod:`repro.program.iterate` — so the two agree on both
        the values and the sweep count.
        """
        from repro.program.iterate import CONVERGE_CAP, max_abs_diff

        fn = force(f)
        bound = force(tol)
        current = self._settle(force(x))
        for _ in range(CONVERGE_CAP):
            stepped = self._settle(force(self.apply(fn, current)))
            if max_abs_diff(stepped.to_list(), current.to_list()) <= bound:
                return stepped
            current = stepped
        raise InterpError(
            f"converge: no fixpoint within {CONVERGE_CAP} sweeps "
            f"(tol={bound!r}); the iteration is diverging or the "
            "tolerance is unreachable"
        )

    def _prim_flatmap(self, f, xs):
        fn = force(f)

        def instances():
            for head in iter_list(force(xs)):
                yield from iter_list(force(self.apply(fn, head)))

        return force(_lazy_from_iter(instances()))

    def _prim_foldl(self, f, acc, xs):
        fn = force(f)
        result = acc
        for head in iter_list(force(xs)):
            result = self.apply(self.apply(fn, result), head)
        return force(result)

    def _prim_foldr(self, f, z, xs):
        fn = force(f)

        def go(node):
            node = force(node)
            if node is NIL:
                return force(z)
            rest = Thunk(lambda: go(node.tail))
            return force(self.apply(self.apply(fn, node.head), rest))

        return go(xs)

    def _prim_map(self, f, xs):
        fn = force(f)
        iterator = iter_list(force(xs))
        return _lazy_from_iter(
            Thunk(lambda head=h: force(self.apply(fn, head)))
            for h in iterator
        )

    # ------------------------------------------------------------------
    # Application.

    def apply(self, fn, arg):
        """Apply a function value to one (possibly thunked) argument."""
        fn = force(fn)
        if isinstance(fn, Builtin):
            return fn.apply(arg)
        if isinstance(fn, Closure):
            env = fn.env.child({fn.params[0]: arg})
            if len(fn.params) == 1:
                return self.eval(fn.body, env)
            return Closure(fn.params[1:], fn.body, env)
        raise InterpError(f"cannot apply non-function {fn!r}")

    # ------------------------------------------------------------------
    # Evaluation.

    def eval(self, node: ast.Node, env: Env) -> Any:
        """Evaluate ``node`` in ``env`` to weak head normal form."""
        method = getattr(self, f"_eval_{type(node).__name__.lower()}", None)
        if method is None:
            raise InterpError(f"cannot evaluate {type(node).__name__}")
        return method(node, env)

    def _delay(self, node: ast.Node, env: Env) -> Thunk:
        return Thunk(lambda: self.eval(node, env))

    def _eval_lit(self, node, env):
        return node.value

    def _eval_var(self, node, env):
        return force(env.lookup(node.name))

    def _eval_lam(self, node, env):
        return Closure(tuple(node.params), node.body, env)

    def _eval_app(self, node, env):
        if self.deforest:
            # Fuse foldl/sum/product over comprehensions into loops —
            # the paper's DO-loop translation (§3.1), allocating no
            # cons cells.
            from repro.comprehension.deforest import (
                fold_comprehension,
                recognize_fold,
            )

            match = recognize_fold(node)
            if match is not None:
                f_spec, init, source = match
                return fold_comprehension(self, f_spec, init, source, env)
        fn = self.eval(node.fn, env)
        for arg in node.args:
            fn = force(self.apply(fn, self._delay(arg, env)))
        return fn

    def _eval_binop(self, node, env):
        op = node.op
        left = self.eval(node.left, env)
        # Short-circuit operators must not evaluate the right operand
        # eagerly — it may be bottom.
        if op == "&&":
            return bool(left) and bool(self.eval(node.right, env))
        if op == "||":
            return bool(left) or bool(self.eval(node.right, env))
        right = self.eval(node.right, env)
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return left / right
            if op == "%":
                return left % right
            if op == "==":
                return deep_force(left) == deep_force(right)
            if op == "/=":
                return deep_force(left) != deep_force(right)
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        except TypeError as exc:
            raise InterpError(f"bad operands for {op}: {exc}") from exc
        raise InterpError(f"unknown operator {op}")

    def _eval_unop(self, node, env):
        value = self.eval(node.operand, env)
        if node.op == "-":
            return -value
        if node.op == "not":
            return not value
        raise InterpError(f"unknown unary operator {node.op}")

    def _eval_if(self, node, env):
        if self.eval(node.cond, env):
            return self.eval(node.then, env)
        return self.eval(node.else_, env)

    def _eval_tupleexpr(self, node, env):
        return tuple(self.eval(item, env) for item in node.items)

    def _eval_listexpr(self, node, env):
        return haskell_list(self._delay(item, env) for item in node.items)

    def _eval_enumseq(self, node, env):
        start = self.eval(node.start, env)
        second = self.eval(node.second, env) if node.second else None
        stop = self.eval(node.stop, env)
        return force(_enum_seq(start, second, stop))

    def _eval_index(self, node, env):
        arr = self.eval(node.arr, env)
        idx = deep_force(self.eval(node.idx, env))
        if isinstance(idx, list):
            raise InterpError("array index must be an integer or tuple")
        try:
            return arr.at(idx) if hasattr(arr, "at") else arr[idx]
        except AttributeError as exc:
            raise InterpError(f"cannot index {arr!r}") from exc

    def _eval_svpair(self, node, env):
        # ':=' builds the pair (sub, val) with a lazy value component —
        # element values of monolithic arrays must stay suspended.
        return (self.eval(node.sub, env), self._delay(node.val, env))

    def _eval_append(self, node, env):
        return force(_lazy_append(self._delay(node.left, env),
                                  self._delay(node.right, env)))

    def _eval_comp(self, node, env):
        def instances():
            for inner_env in self._qual_envs(node.quals, env):
                yield self._delay(node.head, inner_env)

        return force(_lazy_from_iter(instances()))

    def _eval_nestedcomp(self, node, env):
        # [* body | quals *]: each qualifier instance of body is a list;
        # instances are appended (TE's flatmap), lazily.  A bare pair
        # body (the common ``[* s := v | ... *]`` shorthand) counts as
        # a singleton list, matching the compiler front end.
        def instances():
            for inner_env in self._qual_envs(node.quals, env):
                value = self.eval(node.body, inner_env)
                if value is NIL or isinstance(value, Cons):
                    yield from iter_list(value)
                else:
                    yield value

        return force(_lazy_from_iter(instances()))

    def _qual_envs(self, quals, env):
        """Yield an environment per qualifier-instance combination."""
        if not quals:
            yield env
            return
        first, rest = quals[0], quals[1:]
        if isinstance(first, ast.Generator):
            source = self.eval(first.source, env)
            for item in iter_list(source):
                inner = env.child({first.var: item})
                yield from self._qual_envs(rest, inner)
        elif isinstance(first, ast.Guard):
            if self.eval(first.cond, env):
                yield from self._qual_envs(rest, env)
        elif isinstance(first, ast.LetQual):
            inner = env.child()
            for bind in first.binds:
                inner.define(bind.name, self._delay(bind.expr, inner))
            yield from self._qual_envs(rest, inner)
        else:
            raise InterpError(f"bad qualifier {type(first).__name__}")

    def _eval_let(self, node, env):
        inner = env.child()
        if node.kind == "let":
            # Sequential scoping: each binding sees the ones before it
            # (but not itself — plain let is non-recursive).
            scope = env
            for bind in node.binds:
                inner.define(bind.name, self._delay(bind.expr, scope))
                scope = inner
        else:
            # letrec / letrec*: right-hand sides see the new scope.
            for bind in node.binds:
                inner.define(bind.name, self._delay(bind.expr, inner))
            if node.kind == "letrec*":
                # Strict context: force every element of each bound
                # array before the body can observe it (paper §2).  The
                # recursive references inside the definitions keep
                # pointing at the lazy version — exactly the paper's
                # translation via force-elements (fix (\\x. E0)).
                for bind in node.binds:
                    value = force(inner.lookup(bind.name))
                    if isinstance(value, NonStrictArray):
                        inner.bindings[bind.name] = force_elements(value)
        return self.eval(node.body, inner)


def _head(xs):
    xs = force(xs)
    if xs is NIL:
        raise InterpError("head of empty list")
    return force(xs.head)


def _tail(xs):
    xs = force(xs)
    if xs is NIL:
        raise InterpError("tail of empty list")
    return force(xs.tail)


def _sum_list(xs):
    total = 0
    for head in iter_list(xs):
        total += force(head)
    return total


def _product_list(xs):
    total = 1
    for head in iter_list(xs):
        total *= force(head)
    return total


def evaluate(src, bindings=None, deep: bool = True):
    """Evaluate an expression (source text or its parsed tree).

    ``bindings`` supplies extra global values (e.g. ``{"n": 10}``).
    With ``deep=True`` the result is hereditarily forced: lazy lists
    become Python lists, tuples are forced elementwise.
    """
    interp = Interpreter()
    env = interp.globals.child(
        {name: value for name, value in (bindings or {}).items()}
    )
    result = interp.eval(
        parse_expr(src) if isinstance(src, str) else src, env)
    return deep_force(result) if deep else result


def run_program(src, main: str = "main", bindings=None,
                deep: bool = True):
    """Evaluate a binding list (source text or parsed) recursively and
    return ``main``."""
    interp = Interpreter()
    env = interp.globals.child(
        {name: value for name, value in (bindings or {}).items()}
    )
    for bind in parse_program(src) if isinstance(src, str) else src:
        env.define(bind.name, Thunk(
            lambda node=bind.expr: interp.eval(node, env)
        ))
    result = force(env.lookup(main))
    return deep_force(result) if deep else result
