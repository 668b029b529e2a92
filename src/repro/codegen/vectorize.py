"""Vectorization of loop nests (paper §10).

The paper closes by noting that the same dependence information
enables *vectorization*: loops with no loop-carried dependences can
execute all instances at once, and the hyperplane method runs a nest
whose every loop carries a dependence as a sequence of independent
wavefronts.  Under ``CodegenOptions(vectorize=True)`` the thunkless
emitter lowers a scheduled loop nest one of two ways, tried in order:

* **wavefront** — a perfect rank-2 nest whose clause the §10 profile
  plans as a ``(1,1)`` hyperplane (:mod:`repro.core.parallel`; the
  paper's own wavefront and Gauss-Seidel/SOR, Livermore Kernel 23)
  becomes a sweep over anti-diagonals ``t = i + j``: the instances on
  one diagonal are mutually independent, so each diagonal is *one*
  strided-slice assignment on the flat output buffer — O(n) steps for
  O(n^2) work;
* **whole nest** — a scheduled perfect nest of k loops whose innermost
  body holds only clauses becomes one rank-k slice assignment per
  clause (the "vector instruction" of the paper's Cray/i860
  discussion) when

  * no dependence among its clauses is carried at any of its levels
    (:func:`carried_at`);
  * every clause has an affine write, no ``let``s, and guards that use
    no nest variable: each becomes one ``if`` around its clause's
    statement, run only when the nest is non-empty;
  * with k > 1, each subscript dimension of every read and write is
    affine in at most one nest variable, in nest order, so a reference
    is per-axis slices of an N-D view of its flat buffer (k = 1 keeps
    one strided slice of the flat buffer, which admits diagonals too).

Both need vector-translatable values (arithmetic, the intrinsics below
and array reads; no conditionals, whose lazy semantics numpy's eager
``where`` would break), and neither values nor hoisted guards may hold
a :func:`~repro.core.distplan.float_trap`: where Python raises on a
zero divisor or the root of a negative, numpy gives inf or NaN.

A refused nest is tried one level down (its outer loop stays scalar),
down to the per-row form; a wavefront that falls back, the refusal of
a nest of two or more loops, and every float trap are logged on the
emitter's decision log.  Any runtime check keeps the whole unit
scalar, logged: slice assignment cannot do per-store bookkeeping.

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
from repro.core.parallel import WAVEFRONT
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
    or a wavefront's :class:`_DiagSliceBuilder`.
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


def _probe(emitter):
    """The emitter state a refused attempt restores."""
    return (len(emitter.body.lines), emitter.counter, dict(emitter.arrays),
            set(emitter.vector_arrays), set(emitter.nd_views))


def _restore(emitter, probe, names: bool = True) -> None:
    del emitter.body.lines[probe[0]:]
    if names:
        emitter.counter = probe[1]
    emitter.arrays, emitter.vector_arrays, emitter.nd_views = probe[2:]


def emit_vector_loop(emitter, item: ScheduledLoop, locals_) -> bool:
    """Try to emit the perfect nest rooted at ``item`` as slice
    assignments: a planned wavefront first, then the whole nest;
    False on fallback.

    Emits nothing on failure (the caller then produces the scalar
    loop, and so tries its body one level down).
    """
    if not emitter.vectorize:
        log_once(emitter, "vectorize disabled: runtime checks need "
                 "per-store bookkeeping that slice assignment cannot "
                 "maintain, so the unit stays scalar")
        return False
    if _try_wavefront(emitter, item, locals_):
        return True
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
    probe = _probe(emitter)
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
        # A refused nest draws no names: its per-row fallback emits
        # exactly what a lone inner loop would.
        _restore(emitter, probe, names=len(loops) > 1)
        if len(loops) > 1:
            labels = ", ".join(c.label for c in clauses)
            log_once(emitter, f"loops {', '.join(s.var for s in loops)} "
                     f"({labels}): no rank-{len(loops)} slices ({exc}); "
                     f"loop {loops[0].var} stays scalar")
        return False


# ----------------------------------------------------------------------
# Wavefront emission (hyperplane h = (1,1) over a rank-2 nest).


def _wavefront_clause(emitter, item: ScheduledLoop):
    """The single clause of a wavefront-planned perfect 2-nest, or None."""
    if emitter.parallel_plan is None:
        return None
    if len(item.body) != 1 or not isinstance(item.body[0], ScheduledLoop):
        return None
    inner = item.body[0]
    if len(inner.body) != 1 or not isinstance(inner.body[0],
                                              ScheduledClause):
        return None
    clause = inner.body[0].clause
    entry = emitter.parallel_plan.for_clause(clause)
    if entry is None or entry.kind != WAVEFRONT:
        return None
    if tuple(clause.loops) != (item.loop, inner.loop):
        return None
    return inner, clause, entry


def _try_wavefront(emitter, item: ScheduledLoop, locals_) -> bool:
    found = _wavefront_clause(emitter, item)
    if found is None:
        return False
    inner, clause, entry = found
    outer_loop, inner_loop = item.loop, inner.loop

    def fallback(reason: str) -> bool:
        log_once(
            emitter,
            f"{clause.label}: wavefront planned but fell back to the "
            f"scalar schedule ({reason})",
        )
        return False

    if outer_loop.step != 1 or inner_loop.step != 1:
        return fallback("non-unit loop step")
    if clause.guards or clause.lets:
        return fallback("guards or lets in the clause")
    if (trap := float_trap(clause.value)):  # numpy gives inf or NaN
        return fallback(trap)
    if clause.subscripts is None:
        return fallback("non-affine write subscript")

    oi, oj = outer_loop.var, inner_loop.var
    # The write must be exactly (i + c0, j + c1): each diagonal then
    # occupies one strided slice of the flat buffer.
    dims = dims_of(clause.subscript_ast)
    if len(dims) != 2:
        return fallback("write rank is not 2")
    try:
        w0 = affine_from_ast(dims[0], {})
        w1 = affine_from_ast(dims[1], {})
    except NonAffineError:
        return fallback("non-affine write subscript")
    if (w0.coeff(oi), w0.coeff(oj)) != (1, 0) or \
            (w1.coeff(oi), w1.coeff(oj)) != (0, 1):
        return fallback("write subscript is not (i+c, j+c)")
    # Rectangular nest: the inner bounds must not involve the outer
    # variable, so both bound pairs hoist above the diagonal sweep.
    for bound in (inner_loop.start, inner_loop.stop):
        try:
            if affine_from_ast(bound, {}).coeff(oi):
                return fallback("inner bounds depend on the outer loop")
        except NonAffineError:
            return fallback("non-affine inner loop bounds")

    writer = emitter.body
    probe = _probe(emitter)
    a0, a1, b0, b1, t, lo, hi, count, seq = (
        emitter.fresh(stem) for stem in
        ("wi0", "wi1", "wj0", "wj1", "wt", "wlo", "whi", "wk", "wseq"))
    try:
        writer.line(f"{a0} = {emitter.emit_expr(outer_loop.start, locals_)}")
        writer.line(f"{a1} = {emitter.emit_expr(outer_loop.stop, locals_)}")
        writer.line(f"{b0} = {emitter.emit_expr(inner_loop.start, locals_)}")
        writer.line(f"{b1} = {emitter.emit_expr(inner_loop.stop, locals_)}")
        body_locals = locals_ | {a0, a1, b0, b1, t, lo, hi, count}
        slices = _DiagSliceBuilder(emitter, oi, oj, t, lo, seq, count,
                                   body_locals)
        target = slices.index("out", dims, "write")
        value = _VectorExprGen(emitter, slices, body_locals).emit(
            clause.value)
        writer.line(f"if {a0} <= {a1} and {b0} <= {b1}:")
        with writer.block():
            # Anti-diagonal sweep: t = i + j.  On each diagonal the
            # feasible i-range is the overlap of [a0,a1] with
            # [t-b1, t-b0]; non-empty for every t in the sweep.
            writer.line(
                f"for {t} in range({a0} + {b0}, {a1} + {b1} + 1):"
            )
            with writer.block():
                writer.line(f"{lo} = max({a0}, {t} - {b1})")
                writer.line(f"{hi} = min({a1}, {t} - {b0})")
                writer.line(f"{count} = {hi} - {lo} + 1")
                if slices.seq_needed:
                    writer.line(
                        f"{seq} = _np.arange({lo}, {hi} + 1)"
                    )
                writer.line(f"{target} = {value}")
        emitter.parallel_log.append(
            f"{clause.label}: wavefront h=(1,1) over loops "
            f"({oi}, {oj}) — one slice assignment per anti-diagonal "
            f"({entry.profile.steps} steps / {entry.profile.work} work)"
        )
        emitter.vectorized_loops.extend((outer_loop, inner_loop))
        return True
    except NotVectorizable as exc:
        _restore(emitter, probe)
        return fallback(str(exc))


class _DiagSliceBuilder:
    """Strided slices along one anti-diagonal ``t = i + j``.

    On the diagonal, ``j = t - i`` with ``i`` running ``lo..hi``; an
    affine subscript dimension with coefficients ``ci`` on ``i`` and
    ``cj`` on ``j`` moves by ``ci - cj`` per unit of ``i``, scaled by
    the dimension's row stride in the flat buffer.  Self reads come
    from earlier diagonals (h . d > 0 for every distance), all fully
    stored before a slice assignment's right-hand side is evaluated.
    """

    def __init__(self, emitter, outer_var, inner_var, t_name, lo_name,
                 seq_name, count_name, locals_):
        self.emitter = emitter
        self.outer_var = outer_var
        self.inner_var = inner_var
        self.t_name = t_name
        self.lo_name = lo_name
        self.seq_name = seq_name
        self.count_name = count_name
        self.locals = locals_
        self.seq_needed = False

    def var(self, name: str):
        if name not in (self.outer_var, self.inner_var):
            return None
        self.seq_needed = True
        if name == self.outer_var:
            return self.seq_name
        return f"({self.t_name} - {self.seq_name})"

    def _at_diag_start(self, dim: ast.Node) -> ast.Node:
        # i -> lo, j -> (t - lo): the reference's position at the
        # first instance of this diagonal.
        node = substitute_var(dim, self.outer_var, ast.Var(self.lo_name))
        return substitute_var(
            node, self.inner_var,
            ast.BinOp(op="-", left=ast.Var(self.t_name),
                      right=ast.Var(self.lo_name)),
        )

    def diag_coeff(self, dim: ast.Node) -> int:
        form = affine(dim)
        return form.coeff(self.outer_var) - form.coeff(self.inner_var)

    def moves(self, dims) -> bool:
        return any(self.diag_coeff(dim) for dim in dims)

    def scalar_read(self, node: ast.Index) -> str:
        """A read constant along the diagonal: numpy broadcasts it."""
        idx = node.idx
        if isinstance(idx, ast.TupleExpr):
            idx = ast.TupleExpr(items=[self._at_diag_start(dim)
                                       for dim in idx.items])
        else:
            idx = self._at_diag_start(idx)
        return self.emitter.emit_expr(ast.Index(arr=node.arr, idx=idx),
                                      self.locals)

    def index(self, key: str, dims: List[ast.Node], what: str) -> str:
        base_terms = []
        stride_terms = []
        for position, dim in enumerate(dims):
            coeff = self.diag_coeff(dim)
            base = self.emitter.emit_expr(
                self._at_diag_start(dim), self.locals
            )
            row = "".join(
                f" * _ex_{key}_{inner}"
                for inner in range(position + 1, len(dims))
            )
            base_terms.append(f"(({base}) - _lo_{key}_{position}){row}")
            if coeff:
                stride_terms.append(f"({coeff}){row}")
        if not stride_terms:
            raise NotVectorizable(f"{what} constant along the diagonal")
        start = " + ".join(base_terms)
        stride = " + ".join(stride_terms)
        buffer = "_out" if key == "out" else f"_nparr_{key}"
        return f"{buffer}[_vslice({start}, {stride}, {self.count_name})]"
