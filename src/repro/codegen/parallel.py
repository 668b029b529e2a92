"""Parallel codegen backend: hyperplane wavefronts + dep-free loops.

Turns the §10 parallelism *profiles* (:mod:`repro.core.parallel`) into
executed code, under ``CodegenOptions(parallel=True)``:

* **wavefront** — a rank-2 nest whose every loop carries a dependence
  but whose distance vectors admit the ``(1,1)`` hyperplane (the §1
  wavefront, Gauss-Seidel/SOR = Livermore Kernel 23) is emitted as a
  sweep over anti-diagonals ``t = i + j``: all instances on one
  diagonal are mutually independent, so each diagonal becomes *one*
  strided-slice assignment on the numpy output buffer.  O(n) "parallel
  steps" execute O(n^2) work — the paper's hyperplane schedule, with
  numpy's vector unit standing in for the Cray/i860 the paper had in
  mind;
* **dep-free** — a loop carrying no dependence executes all instances
  at once, as a whole-dimension strided-slice assignment (reusing the
  §10 vectorizer) when the values translate; else the scalar loop is
  kept (logged), because Python threads run its instances no faster;
* **sequential fallback** — anything else falls through to the scalar
  schedule, and the decision (with its reason) is recorded on the
  emitter's ``parallel_log`` for the compilation :class:`Report`.

The backend refuses nothing: a clause the plan marked parallel but
whose value expression resists vector translation silently gets the
scalar loops, logged.  Runtime checks (bounds / collision / empties)
keep per-store bookkeeping that slice assignment cannot maintain, so
any enabled check disables the backend for the whole unit (logged).
"""

from __future__ import annotations

from typing import List

from repro.core.affine import NonAffineError, affine_from_ast
from repro.core.distplan import float_trap
from repro.core.parallel import DEP_FREE, WAVEFRONT
from repro.core.schedule import ScheduledClause, ScheduledLoop
from repro.codegen.vectorize import (
    NotVectorizable,
    _VectorExprGen,
    affine,
    carried_at,
    dims_of,
    emit_vector_loop,
    log_once,
    substitute_var,
)
from repro.lang import ast


def emit_parallel_loop(emitter, item: ScheduledLoop, locals_) -> bool:
    """Try to emit ``item`` through the parallel backend.

    Returns ``False`` (emitting nothing) when the loop must stay on
    the scalar schedule; the caller then emits it sequentially.
    """
    plan = emitter.parallel_plan
    if plan is None:
        return False
    options = emitter.options
    if (options.bounds_checks or options.collision_checks
            or options.empties_check):
        log_once(
            emitter,
            "parallel backend disabled: runtime checks need per-store "
            "bookkeeping that slice assignment cannot maintain",
        )
        return False
    if _try_wavefront(emitter, item, locals_):
        return True
    return _try_dep_free(emitter, item, locals_)


# ----------------------------------------------------------------------
# Wavefront emission (hyperplane h = (1,1) over a rank-2 nest).


def _wavefront_clause(emitter, item: ScheduledLoop):
    """The single clause of a wavefront-planned perfect 2-nest, or None."""
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
    probe = len(writer.lines)
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
        emitter.parallelized_loops.append((oi, oj))
        return True
    except NotVectorizable as exc:
        del writer.lines[probe:]
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


# ----------------------------------------------------------------------
# Dep-free emission: whole-dimension slices, or the scalar loop.


def _clauses_under(item: ScheduledLoop):
    for child in item.body:
        if isinstance(child, ScheduledClause):
            yield child.clause
        else:
            yield from _clauses_under(child)


def _try_dep_free(emitter, item: ScheduledLoop, locals_) -> bool:
    """Slice a loop whose clauses are all planned dep-free and whose
    instances are mutually independent (nothing carried at its level)."""
    clauses = list(_clauses_under(item))
    for clause in clauses:
        entry = emitter.parallel_plan.for_clause(clause)
        if entry is None or entry.kind != DEP_FREE \
                or item.loop not in clause.loops:
            return False
    if not clauses or carried_at(emitter.vector_edges, clauses,
                                 [item.loop]):
        return False
    labels = ", ".join(c.label for c in clauses)
    # Whole-dimension slice assignment first (the strongest form: every
    # instance in one vector operation).
    if emit_vector_loop(emitter, item, locals_):
        emitter.parallel_log.append(
            f"loop {item.loop.var} ({labels}): dep-free — emitted as "
            "whole-dimension slice assignment(s)"
        )
        emitter.parallelized_loops.append((item.loop.var,))
        return True
    log_once(
        emitter,
        f"loop {item.loop.var} ({labels}): dep-free but not slice-"
        "translatable; scalar loop kept",
    )
    return False

