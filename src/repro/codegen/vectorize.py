"""Vectorization of dependence-free loop nests (paper §10).

The paper closes by noting that the same dependence information
enables *vectorization*: loops with no loop-carried dependences can
execute all instances at once.  For the thunkless emitter, a scheduled
perfect nest of k loops whose innermost body holds only clauses
becomes one rank-k slice assignment per clause (the "vector
instruction" of the paper's Cray/i860 discussion) when

* no dependence among its clauses is carried at any of its levels
  (:func:`carried_at`);
* every clause has an affine write, no ``let``s, and guards that use
  no nest variable: each becomes one ``if`` around its clause's
  statement, run only when the nest is non-empty;
* with k > 1, each subscript dimension of every read and write is
  affine in at most one nest variable, in nest order, so a reference
  is per-axis slices of an N-D view of its flat buffer (k = 1 keeps
  one strided slice of the flat buffer, which admits diagonals too);
* values are vector-translatable (arithmetic, the intrinsics below
  and array reads; no conditionals, whose lazy semantics numpy's
  eager ``where`` would break), and neither values nor hoisted guards
  hold a :func:`~repro.core.distplan.float_trap`: where Python raises
  on a zero divisor or the root of a negative, numpy gives inf or NaN.

A refused nest is tried one level down (its outer loop stays scalar),
down to the per-row form; the refusal of a nest of two or more loops,
and every float trap, is logged on the emitter's decision log.

A vector clause must compute the same bits as the scalar emitter, the
C tier and the oracle, which all call libm through ``math.*``.  So only
operations that IEEE 754 makes exact or correctly rounded vectorize:
``+ - * / %``, negation, ``abs``, ``sqrt`` and ``fromIntegral``.
numpy's ``exp``/``log``/``sin``/``cos`` are not libm's and may differ
in the last bit, so a clause that calls any other function stays
scalar.  Batching reorders independent instances, never the
operations of one.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.affine import NonAffineError, affine_from_ast
from repro.core.distplan import float_trap
from repro.core.schedule import ScheduledClause, ScheduledLoop
from repro.lang import ast

#: Intrinsics whose numpy equivalents (element-wise) are bit-identical
#: to the scalar ones: exact or correctly rounded under IEEE 754.
_NUMPY_INTRINSICS = {
    "abs": "_np.abs",
    "sqrt": "_np.sqrt",
    "fromIntegral": "(lambda _x: _x)",
    "negate": "(lambda _x: -_x)",
}

_VECTOR_BINOPS = {"+": "+", "-": "-", "*": "*", "/": "/", "%": "%"}


class NotVectorizable(Exception):
    """The loop/expression cannot be turned into slice operations."""


def substitute_var(node: ast.Node, name: str, replacement: ast.Node):
    """Structurally replace free occurrences of ``Var(name)``.

    Only used on subscript/bound expressions, which contain no binders,
    so capture is not a concern.
    """
    if isinstance(node, ast.Var):
        return replacement if node.name == name else node
    if isinstance(node, ast.Lit):
        return node
    if isinstance(node, ast.BinOp):
        return ast.BinOp(
            op=node.op,
            left=substitute_var(node.left, name, replacement),
            right=substitute_var(node.right, name, replacement),
        )
    if isinstance(node, ast.UnOp):
        return ast.UnOp(
            op=node.op,
            operand=substitute_var(node.operand, name, replacement),
        )
    if isinstance(node, ast.TupleExpr):
        return ast.TupleExpr(
            items=[substitute_var(i, name, replacement) for i in node.items]
        )
    raise NotVectorizable(f"subscript too complex: {type(node).__name__}")


def affine(node: ast.Node):
    try:
        return affine_from_ast(node, {})
    except NonAffineError as exc:
        raise NotVectorizable(str(exc)) from exc


def dims_of(subscript: ast.Node) -> List[ast.Node]:
    if isinstance(subscript, ast.TupleExpr):
        return subscript.items
    return [subscript]


def log_once(emitter, message: str) -> None:
    if message not in emitter.parallel_log:
        emitter.parallel_log.append(message)


def carried_at(edges, clauses, loops) -> Optional[str]:
    """Why a dependence among ``clauses`` is carried at one of
    ``loops``' levels (or has an unknown direction), else ``None``."""
    levels = [clauses[0].loops.index(loop) for loop in loops]
    inside = set(id(c) for c in clauses)
    for edge in edges or ():
        if id(edge.src) not in inside or id(edge.dst) not in inside:
            continue
        if "*" in edge.direction:
            return f"dependence {edge!r} has an unknown direction"
        for loop, level in zip(loops, levels):
            if len(edge.direction) > level and edge.direction[level] != "=":
                return f"dependence {edge!r} is carried at loop {loop.var}"
    return None


def _screen(emitter, clauses, loops) -> None:
    """Raise :class:`NotVectorizable` unless the clauses may run as
    vector statements over ``loops``; float traps are logged."""
    names = {loop.var for loop in loops}
    for clause in clauses:
        if clause.lets or clause.subscripts is None:
            raise NotVectorizable(f"{clause.label} has lets or a "
                                  "non-affine write")
        for node in (clause.value, *clause.guards):
            trap = float_trap(node)
            if trap:
                log_once(emitter, f"{clause.label}: {trap} — kept scalar, "
                         "since numpy gives inf or NaN where Python raises")
                raise NotVectorizable(trap)
        for guard in clause.guards:
            if ast.free_vars(guard) & names:
                raise NotVectorizable(f"{clause.label}'s guard uses a "
                                      "nest variable")
    reason = carried_at(emitter.vector_edges, clauses, loops)
    if reason:
        raise NotVectorizable(reason)


class _SliceBuilder:
    """Slices of one perfect nest of ``loops``, outermost first.

    Level ``l``'s variable takes the values ``start_l + step_l * t``
    for ``t < count_l``; the bound lines are written on construction.
    A subscript dimension with coefficient ``c`` in that variable
    strides by ``c * step_l`` along its axis (rank 1: by that times
    the dimension's row stride in the flat buffer).
    """

    def __init__(self, emitter, loops, locals_):
        self.emitter = emitter
        self.loops = loops
        self.vars = [loop.var for loop in loops]
        self.starts: List[str] = []
        self.counts: List[str] = []
        self.seqs = {}
        writer = emitter.body
        for level, loop in enumerate(loops):
            for bound in (loop.start, loop.stop) if level else ():
                # Inner bounds are evaluated once, even for an empty
                # outer loop: only affine, rectangular ones qualify.
                if set(affine(bound).coeffs) & set(self.vars[:level]):
                    raise NotVectorizable(f"loop {loop.var}'s bounds "
                                          "move with an outer nest loop")
            start, stop, count = (emitter.fresh(stem)
                                  for stem in ("vs", "ve", "vk"))
            writer.line(f"{start} = {emitter.emit_expr(loop.start, locals_)}")
            writer.line(f"{stop} = {emitter.emit_expr(loop.stop, locals_)}")
            writer.line(f"{count} = max(0, ({stop} - {start}) "
                        f"// {loop.step} + 1)")
            self.starts.append(start)
            self.counts.append(count)
        self.locals = locals_ | set(self.starts)

    def var(self, name: str) -> Optional[str]:
        """The vector of a nest variable used as a value."""
        if name not in self.vars:
            return None
        level = self.vars.index(name)
        return self.seqs.setdefault(level, f"_vseq{level or ''}")

    def write_sequences(self) -> None:
        rank = len(self.loops)
        for level, seq in sorted(self.seqs.items()):
            start, step = self.starts[level], self.loops[level].step
            axes = ", None" * (rank - 1 - level)
            self.emitter.body.line(
                f"{seq} = _np.arange({start}, {start} + {step} * "
                f"{self.counts[level]}, {step})" + (axes and f"[:{axes}]"))

    def moves(self, dims) -> bool:
        return any(affine(dim).coeff(var) for dim in dims
                   for var in self.vars)

    def scalar_read(self, node: ast.Index) -> str:
        """A read the nest does not move: numpy broadcasts it."""
        return self.emitter.emit_expr(node, self.locals)

    def _offset(self, key: str, position: int, dim: ast.Node) -> str:
        for var, start in zip(self.vars, self.starts):
            dim = substitute_var(dim, var, ast.Var(start))
        base = self.emitter.emit_expr(dim, self.locals)
        return f"(({base}) - _lo_{key}_{position})"

    def index(self, key: str, dims, what: str) -> str:
        """Buffer ``key`` (``'out'`` or an input) indexed by ``dims``."""
        flat = "_out" if key == "out" else f"_nparr_{key}"
        coeffs = [[affine(dim).coeff(var) for var in self.vars]
                  for dim in dims]
        if len(self.loops) == 1:
            base, strides = [], []
            for position, (dim, (coeff,)) in enumerate(zip(dims, coeffs)):
                row = "".join(f" * _ex_{key}_{inner}"
                              for inner in range(position + 1, len(dims)))
                base.append(self._offset(key, position, dim) + row)
                if coeff:
                    strides.append(f"({coeff * self.loops[0].step}){row}")
            if not strides:
                # A write the loop does not move collides with itself.
                raise NotVectorizable(f"{what} is constant in the loop")
            return (f"{flat}[_vslice({' + '.join(base)}, "
                    f"{' + '.join(strides)}, {self.counts[0]})]")
        entries, level = [], 0
        for position, (dim, row) in enumerate(zip(dims, coeffs)):
            moving = [at for at, coeff in enumerate(row) if coeff]
            offset = self._offset(key, position, dim)
            if not moving:
                entries.append(offset)
                continue
            at = moving[0]
            if len(moving) > 1 or at < level:
                raise NotVectorizable(
                    f"{what} is not one nest loop per dimension in nest "
                    f"order (dimension {position + 1} moves with "
                    + ", ".join(self.vars[m] for m in moving) + ")")
            entries += ["None"] * (at - level)
            entries.append(f"_vslice({offset}, "
                           f"{row[at] * self.loops[at].step}, "
                           f"{self.counts[at]})")
            level = at + 1
        entries += ["None"] * (len(self.loops) - level)
        if what == "write" and "None" in entries:
            raise NotVectorizable("write is constant in a nest loop")
        if len(dims) == 1:
            return f"{flat}[{', '.join(entries)}]"
        self.emitter.nd_views.add(key)
        return f"_nd_{key}[{', '.join(entries)}]"


class _VectorExprGen:
    """Translate a clause value into a numpy vector expression.

    ``slices`` places the references: a nest's :class:`_SliceBuilder`
    or the parallel backend's anti-diagonal slices.
    """

    def __init__(self, emitter, slices, locals_):
        self.emitter = emitter
        self.slices = slices
        self.locals = locals_

    def emit(self, node: ast.Node) -> str:
        if isinstance(node, ast.Lit):
            if isinstance(node.value, bool):
                raise NotVectorizable("boolean literal in vector value")
            return repr(node.value)
        if isinstance(node, ast.Var):
            vector = self.slices.var(node.name)
            if vector is not None:
                return vector
            return self.emitter.gen.clone_with(self.locals).var(node.name)
        if isinstance(node, ast.UnOp) and node.op == "-":
            return f"(-{self.emit(node.operand)})"
        if isinstance(node, ast.BinOp):
            op = _VECTOR_BINOPS.get(node.op)
            if op is None:
                raise NotVectorizable(f"operator {node.op!r}")
            return f"({self.emit(node.left)} {op} {self.emit(node.right)})"
        if isinstance(node, ast.Index):
            return self.read(node)
        if isinstance(node, ast.App):
            if isinstance(node.fn, ast.Var):
                fn = _NUMPY_INTRINSICS.get(node.fn.name)
                if fn is not None and len(node.args) == 1:
                    return f"{fn}({self.emit(node.args[0])})"
            raise NotVectorizable("function call in vector value")
        raise NotVectorizable(f"{type(node).__name__} in vector value")

    def read(self, node: ast.Index) -> str:
        if not isinstance(node.arr, ast.Var):
            raise NotVectorizable("computed array in vector value")
        name = node.arr.name
        dims = dims_of(node.idx)
        if not self.slices.moves(dims):
            return self.slices.scalar_read(node)
        comp = self.emitter.comp
        if comp.name and name == comp.name:
            return self.slices.index("out", dims, f"read of {name!r}")
        self.emitter.arrays[name] = len(dims)
        self.emitter.vector_arrays.add(name)
        return self.slices.index(name, dims, f"read of {name!r}")


def emit_vector_loop(emitter, item: ScheduledLoop, locals_) -> bool:
    """Try to emit the perfect nest rooted at ``item`` as slice
    assignments; False on fallback.

    Emits nothing on failure (the caller then produces the scalar
    loop, and so tries its body one level down).
    """
    nest = [item]
    while len(nest[-1].body) == 1 and isinstance(nest[-1].body[0],
                                                 ScheduledLoop):
        nest.append(nest[-1].body[0])
    body = nest[-1].body
    if not body or not all(isinstance(c, ScheduledClause) for c in body):
        return False
    clauses = [child.clause for child in body]
    loops = [scheduled.loop for scheduled in nest]
    writer = emitter.body
    probe = (len(writer.lines), emitter.counter, dict(emitter.arrays),
             set(emitter.vector_arrays), set(emitter.nd_views))
    try:
        _screen(emitter, clauses, loops)
        slices = _SliceBuilder(emitter, loops, locals_)
        statements = []
        for clause in clauses:
            target = slices.index("out", dims_of(clause.subscript_ast),
                                  "write")
            value = _VectorExprGen(emitter, slices, locals_).emit(
                clause.value)
            # Run only for a non-empty nest, as the scalar loops would:
            # an empty one must not evaluate guards or fixed reads.
            guard = " and ".join(
                [f"{count} > 0" for count in slices.counts]
                + [emitter.emit_expr(g, slices.locals)
                   for g in clause.guards])
            statements += [f"if {guard}:", f"    {target} = {value}"]
        slices.write_sequences()
        for line in statements:
            writer.line(line)
        emitter.vectorized_loops.extend(loops)
        return True
    except NotVectorizable as exc:
        del writer.lines[probe[0]:]
        emitter.arrays, emitter.vector_arrays, emitter.nd_views = probe[2:]
        if len(loops) > 1:
            # A refused nest draws no names: its per-row fallback
            # emits exactly what a lone inner loop would.
            emitter.counter = probe[1]
            labels = ", ".join(c.label for c in clauses)
            log_once(emitter, f"loops {', '.join(s.var for s in loops)} "
                     f"({labels}): no rank-{len(loops)} slices ({exc}); "
                     f"loop {loops[0].var} stays scalar")
        return False
