"""Vectorization of dependence-free innermost loops (paper §10).

The paper closes by noting that the same dependence information
enables *vectorization*: innermost loops with no loop-carried
dependences can execute all instances at once.  This module implements
that for the thunkless emitter: when a scheduled innermost loop

* contains only clauses (no deeper loops) without guards,
* carries no dependence at its own level (every active edge between or
  within its clauses is loop-independent ``=``), and
* has affine subscripts (writes and reads) in the loop variable with
  vector-translatable values (arithmetic, intrinsics, array reads —
  no conditionals, whose lazy semantics numpy's eager ``where`` would
  break),

each clause becomes one strided-slice assignment on a numpy buffer:
the "vector instruction" of the paper's Cray/i860 discussion.  Loops
that do not qualify fall back to scalar emission transparently.

A vector clause must compute the same bits as the scalar emitter, the
C tier and the oracle, which all call libm through ``math.*``.  So only
operations that IEEE 754 makes exact or correctly rounded vectorize:
``+ - * / %``, negation, ``abs``, ``sqrt`` and ``fromIntegral``.
numpy's ``exp``/``log``/``sin``/``cos`` are not libm's and may differ
in the last bit, so a clause that calls any other function stays
scalar.
"""

from __future__ import annotations

from typing import List

from repro.core.affine import NonAffineError, affine_from_ast
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


def loop_is_vector_candidate(item: ScheduledLoop, emitter, edges) -> bool:
    """Structural screen: innermost, guard-free, dependence-free."""
    clauses = []
    for child in item.body:
        if not isinstance(child, ScheduledClause):
            return False
        clauses.append(child.clause)
    if not clauses:
        return False
    for clause in clauses:
        if clause.guards or clause.lets:
            return False
        if clause.subscripts is None:
            return False
    # No dependence carried at this loop's level.
    level = len(clauses[0].loops) - 1
    inside = set(id(c) for c in clauses)
    for edge in edges or ():
        if id(edge.src) in inside and id(edge.dst) in inside:
            if len(edge.direction) > level and edge.direction[level] != "=":
                return False
            if "*" in edge.direction:
                return False
    return True


class _SliceBuilder:
    """Builds strided-slice index expressions for one vector loop.

    The loop variable ``var`` takes the values
    ``start, start+step, ...`` (``count`` of them); an affine subscript
    with coefficient ``c`` in ``var`` maps to a memory stride of
    ``c * step * (row stride of its dimension)``.
    """

    def __init__(self, emitter, loop, start_name, count_name, locals_):
        self.emitter = emitter
        self.loop = loop
        self.start_name = start_name
        self.count_name = count_name
        self.locals = locals_

    def slice_for(self, key: str, dims: List[ast.Node]) -> str:
        """A ``_vslice(start, stride, count)`` expression for ``dims``.

        ``key`` selects the buffer's extent locals (``'out'`` or an
        input array name).
        """
        var = self.loop.var
        base_terms = []
        stride_terms = []
        for position, dim in enumerate(dims):
            try:
                affine = affine_from_ast(dim, {})
            except NonAffineError as exc:
                raise NotVectorizable(str(exc)) from exc
            coeff = affine.coeff(var)
            at_start = substitute_var(
                dim, var, ast.Var(self.start_name)
            )
            base = self.emitter.emit_expr(
                at_start, self.locals | {self.start_name}
            )
            row = "".join(
                f" * _ex_{key}_{inner}"
                for inner in range(position + 1, len(dims))
            )
            base_terms.append(f"(({base}) - _lo_{key}_{position}){row}")
            if coeff:
                stride_terms.append(f"({coeff * self.loop.step}){row}")
        if not stride_terms:
            # The loop variable does not move this reference: a write
            # would collide with itself, and a read is a scalar.
            raise NotVectorizable("subscript constant in the loop variable")
        start = " + ".join(base_terms)
        stride = " + ".join(stride_terms)
        return f"_vslice({start}, {stride}, {self.count_name})"


class _VectorExprGen:
    """Translate a clause value into a numpy vector expression."""

    def __init__(self, emitter, slices: _SliceBuilder, locals_):
        self.emitter = emitter
        self.slices = slices
        self.locals = locals_
        self.loop_var = slices.loop.var

    def emit(self, node: ast.Node) -> str:
        if isinstance(node, ast.Lit):
            if isinstance(node.value, bool):
                raise NotVectorizable("boolean literal in vector value")
            return repr(node.value)
        if isinstance(node, ast.Var):
            if node.name == self.loop_var:
                return "_vseq"
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
        dims = (
            node.idx.items
            if isinstance(node.idx, ast.TupleExpr)
            else [node.idx]
        )
        if not self._moves_with_loop(dims):
            # Loop-invariant read: a scalar that numpy broadcasts.
            return self.emitter.emit_expr(node, self.locals)
        comp = self.emitter.comp
        if comp.name and name == comp.name:
            return f"_out[{self.slices.slice_for('out', dims)}]"
        self.emitter.arrays[name] = len(dims)
        self.emitter.vector_arrays.add(name)
        return f"_nparr_{name}[{self.slices.slice_for(name, dims)}]"

    def _moves_with_loop(self, dims) -> bool:
        for dim in dims:
            try:
                affine = affine_from_ast(dim, {})
            except NonAffineError as exc:
                raise NotVectorizable(str(exc)) from exc
            if affine.coeff(self.loop_var):
                return True
        return False


def emit_vector_loop(emitter, item: ScheduledLoop, locals_) -> bool:
    """Try to emit ``item`` as slice assignments; False on fallback.

    Emits nothing on failure (the caller then produces the scalar
    loop).
    """
    if not loop_is_vector_candidate(item, emitter, emitter.vector_edges):
        return False
    loop = item.loop
    writer = emitter.body
    probe = len(writer.lines)
    start_name = emitter.fresh("vs")
    stop_name = emitter.fresh("ve")
    count_name = emitter.fresh("vk")
    try:
        start = emitter.emit_expr(loop.start, locals_)
        stop = emitter.emit_expr(loop.stop, locals_)
        writer.line(f"{start_name} = {start}")
        writer.line(f"{stop_name} = {stop}")
        writer.line(
            f"{count_name} = max(0, ({stop_name} - {start_name}) "
            f"// {loop.step} + 1)"
        )
        slices = _SliceBuilder(emitter, loop, start_name, count_name,
                               locals_)
        sequence_needed = False
        assignments = []
        for child in item.body:
            clause = child.clause
            sub = clause.subscript_ast
            dims = (
                sub.items if isinstance(sub, ast.TupleExpr) else [sub]
            )
            target = slices.slice_for("out", dims)
            vec_gen = _VectorExprGen(emitter, slices, locals_)
            value = vec_gen.emit(clause.value)
            if "_vseq" in value:
                sequence_needed = True
            assignments.append(f"_out[{target}] = {value}")
        if sequence_needed:
            writer.line(
                f"_vseq = _np.arange({start_name}, {start_name} + "
                f"{loop.step} * {count_name}, {loop.step})"
            )
        for assignment in assignments:
            writer.line(assignment)
        emitter.vectorized_loops.append(loop.var)
        return True
    except NotVectorizable:
        del writer.lines[probe:]
        return False
