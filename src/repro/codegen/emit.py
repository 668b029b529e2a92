"""Emitters: scheduled comprehensions to Python source.

Three emitters, matching the paper's compilation strategies:

* :func:`emit_thunkless` — the schedule is safe, so elements are plain
  values stored directly into a fresh flat buffer (§8).  Checks that
  analysis could not elide are compiled in via
  :class:`CodegenOptions`.
* :func:`emit_thunked` — the fallback: element values become thunks in
  a :class:`~repro.runtime.nonstrict.NonStrictArray`, demanded in data-
  dependence order (§4's "the simplest, and in general the only, way").
* :func:`emit_inplace` — storage reuse: the loops write into the dead
  input array's buffer, with node-splitting temporaries (hoisted temps
  and snapshot rings) where the anti dependences demand them (§9).

All emitters produce a module defining ``def _build(_env):`` that takes
an environment dict (size parameters, input arrays, free functions) and
returns a :class:`~repro.codegen.support.FlatArray`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.comprehension.loopir import ArrayComp, SVClause
from repro.core.inplace import InPlacePlan, ReadPlan, SnapshotSpec
from repro.core.schedule import Schedule, ScheduledClause, ScheduledLoop
from repro.codegen.exprs import CodegenError, ExprGen
from repro.lang import ast

_HEADER = '''\
"""Generated by repro.codegen — do not edit."""
import math as _math
from collections import deque as _deque
from repro.runtime.bounds import Bounds
from repro.runtime.errors import BoundsError
from repro.runtime.force import force_elements
from repro.runtime.nonstrict import NonStrictArray
from repro.runtime import incremental as _incr
from repro.codegen.support import (
    CHECK_STATS as _CS,
    FlatArray,
    VERIFY_STATS as _VS,
    alloc_buffer as _alloc,
    as_index as _as_index,
    check_collision,
    check_empties,
    flatten_input,
    make_slice as _vslice,
    read_gather as _gather,
    verify_subscripts as _verify,
)
try:
    import numpy as _np
except ImportError:  # vector codegen is optional
    _np = None
'''


#: The backends ``CodegenOptions(backend=...)`` may name: the python
#: emitters and the native C tier (:mod:`repro.backends`).
BACKENDS = ("python", "c")


@dataclass(frozen=True)
class CodegenOptions:
    """What a compile asks of code generation.

    ``options=None`` is the same request as ``CodegenOptions()`` on
    every path.  The three check fields force a runtime check on even
    where the analysis proved it unnecessary (benchmarks measure what
    the proofs buy, experiments E9 and E25).  They never switch a check
    off: the pipeline adds every check the analysis could not discharge
    to the options it was given (``Report.checks`` records the result).
    Frozen and checked at construction: a malformed value raises
    :class:`CodegenError` here, never later.
    """

    bounds_checks: bool = False
    collision_checks: bool = False
    empties_check: bool = False
    #: Emit loop nests as numpy slice operations (paper §10):
    #: dependence-free nests as whole-nest slice assignments, and
    #: rank-2 nests the §10 profile plans as (1,1) wavefronts as one
    #: slice assignment per anti-diagonal.  The result buffer becomes
    #: float64.  Any runtime check keeps the unit scalar.
    vectorize: bool = False
    #: Which emitter lowers the scheduled loops (:mod:`repro.backends`),
    #: one of :data:`BACKENDS`: ``"python"`` (the default) or ``"c"``
    #: (native shared-object kernels via cffi).  The backend picks the
    #: emitter only, never the checks or the lowering mode.  A job the
    #: C backend cannot lower (vectorize, a runtime check, a guarded or
    #: accumulated store, ...) gets the python emitter's module for the
    #: same request, with a reasoned ``Report.backend`` entry.
    backend: str = "python"
    #: Cache-block the scheduled loops of a C kernel: ``None`` (off),
    #: ``"auto"`` (cache-model tile edge), or an int edge >= 1 applied
    #: to every tiled axis.  Legality is decided per nest by
    #: :mod:`repro.core.tiling`; python loops are never blocked, so a
    #: python unit, or a nest the legality pass refuses, runs untiled
    #: with a reasoned ``Report.tiling`` entry.  An out-of-core
    #: program also takes an int ``tile`` as its rows per tile.
    tile: object = None

    def __post_init__(self):
        for name in ("bounds_checks", "collision_checks", "empties_check",
                     "vectorize"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise CodegenError(f"{name} must be a bool, got {value!r}")
        if self.backend not in BACKENDS:
            raise CodegenError(
                f"unknown backend {self.backend!r}; backend must be one "
                "of " + ", ".join(BACKENDS)
            )
        tile = self.tile
        if tile is not None and tile != "auto" and (
            isinstance(tile, bool) or not isinstance(tile, int) or tile < 1
        ):
            raise CodegenError(
                f"tile must be None, 'auto' or an integer >= 1, got {tile!r}"
            )

    @property
    def checked(self) -> bool:
        """Whether any runtime check is compiled in."""
        return (self.bounds_checks or self.collision_checks
                or self.empties_check)

    @cached_property
    def is_default(self) -> bool:
        """Whether these are ``CodegenOptions()``; computed once per
        object, since a service cache key asks on every hit."""
        return self == _DEFAULT_OPTIONS

    @classmethod
    def of(cls, options) -> "CodegenOptions":
        """``options`` itself, or the shared defaults for ``None``.

        Anything else is a :class:`TypeError`: only the wire turns a
        dict into options (``repro.service.api.options_from_wire``).
        """
        if options is None:
            return _DEFAULT_OPTIONS
        if not isinstance(options, cls):
            raise TypeError(
                "options must be a CodegenOptions or None, got "
                f"{type(options).__name__} {options!r}"
            )
        return options


_DEFAULT_OPTIONS = CodegenOptions()


class _Writer:
    def __init__(self):
        self.lines: List[str] = []
        self.indent = 0

    def line(self, text: str = ""):
        self.lines.append("    " * self.indent + text if text else "")

    def block(self):
        writer = self
        indent_levels = []

        class _Ctx:
            def __enter__(self):
                indent_levels.append(writer.indent)
                writer.indent += 1

            def __exit__(self, *exc):
                writer.indent = indent_levels.pop()

        return _Ctx()

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _is_gather(node: ast.Index) -> bool:
    """Whether a read's subscript contains another array read.

    Such a subscript is an opaque *gather*: the index values are data
    (cells of another array), not loop-frame arithmetic, so nothing at
    compile time bounds them.  The unchecked ``_arr[linear]`` read
    would leak a raw ``IndexError`` — or silently wrap a negative
    index — where the oracle raises :class:`BoundsError`.
    """
    idx = node.idx
    dims = idx.items if isinstance(idx, ast.TupleExpr) else [idx]
    return any(
        isinstance(sub, ast.Index)
        for dim in dims
        for sub in dim.walk()
    )


def input_prologue(name: str, rank: int) -> List[str]:
    """Lines binding input ``name``'s flat cells, lows and extents.

    ``lows`` is the bounds' own tuple, so a call builds none of the
    per-dimension tuples that ``Bounds.dims`` would.
    """
    lows = ", ".join(f"_lo_{name}_{position}" for position in range(rank))
    return [
        f"_b_{name}, _arr_{name} = flatten_input(_env[{name!r}])",
        f"{lows}{',' if rank == 1 else ''} = _b_{name}.lows",
    ] + [
        f"_ex_{name}_{position} = _b_{name}.extent({position})"
        for position in range(rank)
    ]


def _gather_subscript(dims: List[str]) -> str:
    """The source-level subscript value handed to ``read_gather``."""
    if len(dims) == 1:
        return dims[0]
    return "(" + ", ".join(dims) + ")"


class _Emitter:
    """State shared by the three emitters for one compilation unit."""

    def __init__(self, comp: ArrayComp, options: CodegenOptions,
                 params: Optional[Dict[str, int]] = None):
        self.comp = comp
        self.options = options
        self.params = dict(params or {})
        self.arrays: Dict[str, int] = {}  # other arrays: name -> rank
        self.gen = ExprGen(self._read_array, params=self.params)
        self.body = _Writer()
        self.counter = 0
        self.self_reader = self._read_self_flat  # overridden per mode
        self.hoist_map: Dict[int, str] = {}      # id(read AST) -> temp
        self.snapshot_map: Dict[int, Tuple[str, "ReadPlan"]] = {}
        # Accumulated arrays: combine instead of assign.  None for
        # ordinary stores; an operator string ('+', '*'), an intrinsic
        # name ('min', 'max'), or ('env', fname) for a user combiner.
        self.accumulate = None
        # Vectorization state (paper §10): the dependence edges used to
        # qualify loops, input arrays needing numpy views, buffers
        # ('out' or an input) needing N-D views, and the loops
        # actually vectorized (for reports and tests).  Any runtime
        # check keeps the unit scalar: slice assignment cannot do the
        # per-store bookkeeping.
        self.vectorize = options.vectorize and not options.checked
        self.vector_edges = ()
        self.vector_arrays = set()
        self.nd_views = set()
        self.vectorized_loops = []
        # The row-block kernel form (repro.dist.kernel): the output is
        # the '.dst' view, its bounds are literals, and nothing returns.
        self.block = False
        # The §10 clause plan naming the wavefront nests, and the
        # human-readable log of every vectorizer decision (copied into
        # the report's ``parallel`` lines).
        self.parallel_plan = None
        self.parallel_log: List[str] = []
        # Lines emitted after the input-array flattening but before
        # the bounds (the in-place emitters bind the output buffer
        # here, since bigupd-style bounds come *from* that buffer).
        self.preamble_lines = []
        # Indirect-write dimensions needing an exact-int guard:
        # clause.index -> {dim position -> index array name}.  A cell
        # of an unverified index array could hold a float or bool,
        # which Python list indexing would truncate or crash on deep
        # inside the nest; ``_as_index`` rejects it loudly instead.
        self.indirect_guard_dims: Dict[int, Dict[int, str]] = {}

    # ------------------------------------------------------------------
    # Array access translation.

    def _read_array(self, name: str, dims: List[str], gen) -> str:
        node = getattr(gen, "_current_read_node", None)
        if node is not None and id(node) in self.hoist_map:
            return self.hoist_map[id(node)]
        if name == self.comp.name and self.comp.name:
            return self.self_reader(dims, node)
        self.arrays[name] = len(dims)
        if node is not None and _is_gather(node):
            return f"_gather(_b_{name}, _arr_{name}, {_gather_subscript(dims)})"
        return f"_arr_{name}[{self._linear(name, dims)}]"

    def _read_self_flat(self, dims: List[str], node) -> str:
        return f"_out[{self._linear('out', dims)}]"

    def _linear(self, key: str, dims: List[str]) -> str:
        parts = []
        for position, dim in enumerate(dims):
            term = f"(({dim}) - _lo_{key}_{position})"
            for inner in range(position + 1, len(dims)):
                term += f" * _ex_{key}_{inner}"
            parts.append(term)
        return " + ".join(parts)

    # ------------------------------------------------------------------
    # Expression helpers that track the current Index node (so read
    # plans can redirect individual reads).

    def emit_expr(self, node: ast.Node, locals_: Set[str]) -> str:
        gen = self.gen.clone_with(locals_)
        original_index = gen.index

        def tracked_index(index_node):
            previous = gen._current_read_node
            gen._current_read_node = index_node
            try:
                return original_index(index_node)
            finally:
                gen._current_read_node = previous

        gen.index = tracked_index
        gen._current_read_node = None
        return gen.emit(node)

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"_{stem}{self.counter}"

    def _nd_view(self, key: str, flat: str) -> str:
        """An N-D view of a flat buffer: a reshape, never a copy."""
        rank = self.comp.rank if key == "out" else self.arrays[key]
        extents = [f"_ex_{key}_{position}" for position in range(rank)]
        if key == "out" and self.block:
            extents[0] = "-1"  # a tile holds fewer rows than the array
        return f"_nd_{key} = {flat}.reshape({', '.join(extents)})"

    def vector_views(self) -> List[str]:
        """Prologue lines binding the numpy views vector statements read."""
        lines = []
        for name in sorted(self.vector_arrays):
            lines.append(
                f"_nparr_{name} = _np.asarray(_arr_{name}, dtype=float)")
            if name in self.nd_views:
                lines.append(self._nd_view(name, f"_nparr_{name}"))
        return lines

    def out_views(self) -> List[str]:
        """Lines binding the output's N-D view, after ``_out``."""
        return [self._nd_view("out", "_out")] if "out" in self.nd_views \
            else []

    # ------------------------------------------------------------------
    # Preamble / postamble.

    def assemble(self, result_line: str, out_init) -> str:
        """``out_init`` is one line, a list of lines, or ``""``."""
        if isinstance(out_init, str):
            out_init = [out_init] if out_init else []
        writer = _Writer()
        writer.line(_HEADER)
        writer.line("def _build(_env):")
        with writer.block():
            for name in sorted(self.gen.used_env):
                writer.line(f"_v_{name} = _env[{name!r}]")
            for name in sorted(self.arrays):
                for line in input_prologue(name, self.arrays[name]):
                    writer.line(line)
            for line in self.preamble_lines:
                writer.line(line)
            self._emit_bounds(writer)
            for init_line in out_init:
                writer.line(init_line)
            if self.options.collision_checks or self.options.empties_check:
                writer.line("_defined = [False] * _size")
            for line in self.body.lines:
                writer.line(line)
            if self.options.empties_check:
                writer.line("check_empties(_defined, _b)")
            writer.line(result_line)
        return writer.source()

    def _emit_bounds(self, writer: _Writer):
        if self.block:
            # Static bounds; stores count axis-0 rows from the tile's
            # first row when the caller passes one.
            for position, (low, high) in enumerate(self.comp.bounds.dims):
                first = (f"_env.get('.dst_row0', {low})" if position == 0
                         else low)
                writer.line(f"_lo_out_{position} = {first}")
                writer.line(f"_ex_out_{position} = {max(0, high - low + 1)}")
            return
        if self.comp.bounds_ast is None:
            # bigupd-style: bounds come from the input array (the
            # in-place preamble binds _bb before this runs).
            writer.line("_b = _bb")
        else:
            bounds_gen = self.gen.clone_with(())
            low, high = self.comp.bounds_ast.items
            writer.line(
                f"_b = Bounds({bounds_gen.emit(low)}, "
                f"{bounds_gen.emit(high)})"
            )
        writer.line("_size = _b.size()")
        for position in range(self.comp.rank):
            writer.line(f"_lo_out_{position} = _b.dims[{position}][0]")
            writer.line(f"_hi_out_{position} = _b.dims[{position}][1]")
            writer.line(f"_ex_out_{position} = _b.extent({position})")

    # ------------------------------------------------------------------
    # Scheduled-item emission (thunkless / in-place).

    def emit_items(self, items, locals_: Set[str],
                   snapshots: Optional[List[SnapshotSpec]] = None,
                   hoists: Optional[List[Tuple[SVClause, ReadPlan]]] = None):
        for item in items:
            if isinstance(item, ScheduledClause):
                self.emit_clause(item.clause, locals_)
            else:
                self.emit_loop(item, locals_, snapshots or [], hoists or [])

    def emit_loop(self, item: ScheduledLoop, locals_: Set[str],
                  snapshots: List[SnapshotSpec],
                  hoists: List[Tuple[SVClause, ReadPlan]]):
        if self.options.vectorize and not snapshots and not hoists:
            from repro.codegen.vectorize import emit_vector_loop

            if emit_vector_loop(self, item, locals_):
                return
        loop = item.loop
        writer = self.body
        start = self.emit_expr(loop.start, locals_)
        stop = self.emit_expr(loop.stop, locals_)
        step = loop.step
        sgn = 1 if step > 0 else -1
        start_name = self.fresh("s")
        stop_name = self.fresh("e")
        writer.line(f"{start_name} = {start}")
        writer.line(f"{stop_name} = {stop}")
        # Snapshot rings owned by this loop are created before it runs.
        owned_snapshots = [
            spec for spec in snapshots
            if spec.level < len(spec.clause.loops)
            and spec.clause.loops[spec.level] is loop
        ]
        for spec in owned_snapshots:
            # Depth+1 slots: during iteration t the ring holds the old
            # slabs of iterations t-depth .. t (t's own slab is pushed
            # at the top of the body, before any store).
            writer.line(
                f"_snap_{spec.clause.index}_{spec.level} = "
                f"_deque(maxlen={spec.depth + 1})"
            )
        if item.direction == "backward":
            count_name = self.fresh("k")
            writer.line(f"{count_name} = ({stop_name} - {start_name}) // {step}")
            header = (
                f"for {loop.var} in range({start_name} + {step} * "
                f"{count_name}, {start_name} - {sgn}, {-step}):"
            )
        else:
            header = (
                f"for {loop.var} in range({start_name}, "
                f"{stop_name} + {sgn}, {step}):"
            )
        writer.line(header)
        with writer.block():
            inner_locals = locals_ | {loop.var}
            for spec in owned_snapshots:
                self.emit_snapshot_push(spec, inner_locals)
            # Hoisted temporaries whose innermost loop is this one.
            owned_hoists = [
                (clause, plan) for clause, plan in hoists
                if clause.loops and clause.loops[-1] is loop
            ]
            for clause, plan in owned_hoists:
                expr = self.emit_expr(plan.read.node, inner_locals)
                writer.line(f"{plan.temp_name} = {expr}")
                writer.line("_incr.STATS.cells_copied += 1")
                self.hoist_map[id(plan.read.node)] = plan.temp_name
            self.emit_items(item.body, inner_locals, snapshots, hoists)

    def emit_snapshot_push(self, spec: SnapshotSpec, locals_: Set[str]):
        """Save the old values this instance's writes will touch."""
        clause = spec.clause
        writer = self.body
        inner_loops = clause.loops[spec.level + 1:]
        write_dims = clause.subscript_ast
        dims = (
            write_dims.items
            if isinstance(write_dims, ast.TupleExpr)
            else [write_dims]
        )
        if not inner_loops:
            # Innermost level: a single old cell.
            source = [self.emit_expr(dim, locals_) for dim in dims]
            writer.line(
                f"_snap_{clause.index}_{spec.level}.append("
                f"_out[{self._linear('out', source)}])"
            )
            writer.line("_incr.STATS.cells_copied += 1")
            return
        # Outer level: a flat slab over the inner iteration space, in
        # forward source order.
        loop_vars = {loop.var for loop in inner_loops}
        slab_locals = locals_ | loop_vars
        source = [self.emit_expr(dim, slab_locals) for dim in dims]
        comprehension = f"_out[{self._linear('out', source)}]"
        for loop in reversed(inner_loops):
            start = self.emit_expr(loop.start, locals_)
            stop = self.emit_expr(loop.stop, locals_)
            sgn = 1 if loop.step > 0 else -1
            comprehension = (
                f"[{comprehension} for {loop.var} in "
                f"range({start}, ({stop}) + {sgn}, {loop.step})]"
            )
            if loop is not inner_loops[0]:
                # Flatten nested levels as we go.
                comprehension = (
                    f"[_x for _row in {comprehension} for _x in _row]"
                )
        name = f"_snap_{clause.index}_{spec.level}"
        slab = self.fresh("slab")
        writer.line(f"{slab} = {comprehension}")
        writer.line(f"{name}.append({slab})")
        writer.line(f"_incr.STATS.cells_copied += len({slab})")

    def emit_clause(self, clause: SVClause, locals_: Set[str]):
        writer = self.body
        if clause.guards:
            guard_src = " and ".join(
                self.emit_expr(guard, locals_) for guard in clause.guards
            )
            writer.line(f"if {guard_src}:")
            context = writer.block()
        else:
            context = None
        if context:
            context.__enter__()
        try:
            let_locals = set(locals_)
            for bind in clause.lets:
                expr = self.emit_expr(bind.expr, let_locals)
                writer.line(f"{bind.name} = {expr}")
                let_locals = let_locals | {bind.name}
            # Peel top-level non-recursive ``let``s off the value into
            # plain assignments: a Let *expression* costs one lambda
            # construction and call per cell (ExprGen has no statement
            # position), which dominates tight fused nests.  Only
            # fresh, self-free, single-binding lets peel — anything
            # else keeps the (correct) expression form.
            value = clause.value
            while (isinstance(value, ast.Let) and value.kind == "let"
                   and len(value.binds) == 1):
                bind = value.binds[0]
                if (bind.params or bind.name in let_locals
                        or bind.name.startswith("_")
                        or bind.name in ast.free_vars(bind.expr)):
                    break
                expr = self.emit_expr(bind.expr, let_locals)
                writer.line(f"{bind.name} = {expr}")
                let_locals = let_locals | {bind.name}
                value = value.body
            self.emit_store(clause, let_locals, value=value)
        finally:
            if context:
                context.__exit__(None, None, None)

    def emit_store(self, clause: SVClause, locals_: Set[str],
                   value: Optional[ast.Node] = None):
        writer = self.body
        sub = clause.subscript_ast
        dims = sub.items if isinstance(sub, ast.TupleExpr) else [sub]
        dim_names = []
        guards = self.indirect_guard_dims.get(clause.index, {})
        for position, dim in enumerate(dims):
            name = f"_d{position}"
            writer.line(f"{name} = {self.emit_expr(dim, locals_)}")
            index_array = guards.get(position)
            if index_array is not None:
                writer.line(
                    f"{name} = _as_index({name}, {index_array!r})"
                )
            dim_names.append(name)
        if self.options.bounds_checks:
            condition = " and ".join(
                f"_lo_out_{k} <= {name} <= _hi_out_{k}"
                for k, name in enumerate(dim_names)
            )
            writer.line("_CS.bounds_checks += 1")
            writer.line(f"if not ({condition}):")
            with writer.block():
                writer.line(
                    "raise BoundsError(("
                    + ", ".join(dim_names)
                    + "), (_b.low, _b.high))"
                )
        writer.line(f"_idx = {self._linear('out', dim_names)}")
        if self.options.collision_checks or self.options.empties_check:
            writer.line(
                "check_collision(_defined, _idx, ("
                + ", ".join(dim_names) + ",))"
            )
        value = self.emit_expr(
            clause.value if value is None else value, locals_
        )
        if self.accumulate is None:
            writer.line(f"_out[_idx] = {value}")
        elif self.accumulate in ("+", "*"):
            writer.line(f"_out[_idx] = _out[_idx] {self.accumulate} ({value})")
        elif self.accumulate in ("min", "max"):
            writer.line(
                f"_out[_idx] = {self.accumulate}(_out[_idx], {value})"
            )
        elif self.accumulate[0] == "env":
            name = self.accumulate[1]
            self.gen.used_env.add(name)
            writer.line(f"_out[_idx] = _v_{name}(_out[_idx], {value})")
        else:
            # ('lambda', Lam): inline the combiner body with its two
            # parameters bound to the accumulator and the new value.
            lam = self.accumulate[1]
            acc_name, value_name = lam.params
            writer.line(f"{acc_name} = _out[_idx]")
            writer.line(f"{value_name} = {value}")
            body = self.emit_expr(
                lam.body, locals_ | {acc_name, value_name}
            )
            writer.line(f"_out[_idx] = {body}")


# ----------------------------------------------------------------------
# Public emitters.


def emit_thunkless(
    comp: ArrayComp,
    schedule: Schedule,
    options: Optional[CodegenOptions] = None,
    params: Optional[Dict[str, int]] = None,
    edges=(),
    parallel_plan=None,
    parallel_log: Optional[List[str]] = None,
    indirect_guard_dims: Optional[Dict[int, Dict[int, str]]] = None,
    vector_log: Optional[List] = None,
    block: bool = False,
) -> str:
    """Thunkless scheduled loops into a fresh buffer.

    With ``options.vectorize`` set, qualifying loop nests become
    numpy slice assignments (§10); ``edges`` supplies the dependence
    edges used to prove a nest carries nothing, ``parallel_plan`` (a
    :class:`~repro.core.parallel.ParallelPlan`) names the nests to
    sweep as (1,1) wavefronts, the vectorizer's decisions are appended
    to ``parallel_log`` and the loops taken to ``vector_log`` when
    given.  ``block`` emits the row-block kernel form
    (:func:`repro.dist.kernel.build_double_kernel`): stores go to
    ``_env['.dst']``, counting axis-0 rows from ``_env['.dst_row0']``
    when given, and the kernel returns ``None``.
    """
    emitter = _Emitter(comp, options or CodegenOptions(), params)
    emitter.block = block
    emitter.vector_edges = tuple(edges)
    emitter.parallel_plan = parallel_plan
    if parallel_log is not None:
        emitter.parallel_log = parallel_log
    if vector_log is not None:
        emitter.vectorized_loops = vector_log
    if indirect_guard_dims:
        emitter.indirect_guard_dims = dict(indirect_guard_dims)
    emitter.emit_items(schedule.items, set())
    if block:
        out_init = (emitter.vector_views() + ["_out = _env['.dst']"]
                    + emitter.out_views())
        result = "return None"
    elif emitter.vectorize:
        out_init = (["_alloc(_size)"] + emitter.vector_views()
                    + ["_out = _np.zeros(_size)"] + emitter.out_views())
        result = "return FlatArray(_b, _out.tolist())"
    else:
        # The program driver (repro.program) threads dead buffers back
        # in through the reserved '.reuse' env slot ('.' can never be a
        # language identifier, so the key cannot collide); a fresh
        # allocation is taken — and counted — only when no right-sized
        # buffer was handed in.
        out_init = [
            "_out = _env.pop('.reuse', None)",
            "if _out is None or len(_out) != _size:",
            "    _alloc(_size)",
            "    _out = [None] * _size",
        ]
        result = "return FlatArray(_b, _out)"
    return emitter.assemble(result, out_init)


def emit_accum(
    comp: ArrayComp,
    schedule: Schedule,
    combine,
    init_ast: ast.Node,
    options: Optional[CodegenOptions] = None,
    params: Optional[Dict[str, int]] = None,
    indirect_guard_dims: Optional[Dict[int, Dict[int, str]]] = None,
) -> str:
    """Accumulated-array loops: read-modify-write stores (§3/§7 ext).

    ``combine`` is an operator string (``'+'``, ``'*'``, ``'min'``,
    ``'max'``) or ``('env', name)`` for a combining function fetched
    from the environment.  Every cell starts at ``init_ast``'s value.
    Collision and empties checks never apply to accumulated arrays.
    """
    checked = options or CodegenOptions()
    checked = CodegenOptions(bounds_checks=checked.bounds_checks)
    emitter = _Emitter(comp, checked, params)
    emitter.accumulate = combine
    if indirect_guard_dims:
        emitter.indirect_guard_dims = dict(indirect_guard_dims)
    init_src = emitter.emit_expr(init_ast, set())
    emitter.emit_items(schedule.items, set())
    return emitter.assemble(
        "return FlatArray(_b, _out)",
        ["_alloc(_size)", f"_out = [{init_src}] * _size"],
    )


def emit_inplace(
    comp: ArrayComp,
    schedule: Schedule,
    plan: InPlacePlan,
    options: Optional[CodegenOptions] = None,
    params: Optional[Dict[str, int]] = None,
    indirect_guard_dims: Optional[Dict[int, Dict[int, str]]] = None,
) -> str:
    """In-place loops over the dead input array's buffer (§9).

    The environment must bind ``plan.old_array`` to the input array;
    its cell list is mutated.  Copy traffic (hoists, snapshots, or the
    whole-copy fallback) is counted in ``repro.runtime.incremental``'s
    global ``STATS``.  ``indirect_guard_dims`` wraps stores through
    unverified index arrays in exact-int guards, as for
    :func:`emit_thunkless`.
    """
    emitter = _Emitter(comp, options or CodegenOptions(), params)
    if indirect_guard_dims:
        emitter.indirect_guard_dims = dict(indirect_guard_dims)
    old = plan.old_array

    if plan.mode == "whole_copy":
        def read_old(dims, node, _emitter=emitter):
            return f"_old[{_emitter._linear('out', dims)}]"
    else:
        snapshot_reads = {}
        for clause in comp.clauses:
            for read_plan in plan.plans_for(clause):
                if read_plan.mode == "snapshot":
                    snapshot_reads[id(read_plan.read.node)] = (
                        clause, read_plan
                    )
                elif read_plan.mode == "hoist":
                    emitter.hoist_map.setdefault(
                        id(read_plan.read.node), read_plan.temp_name
                    )

        def read_old(dims, node, _emitter=emitter):
            entry = snapshot_reads.get(id(node))
            if entry is None:
                return f"_out[{_emitter._linear('out', dims)}]"
            clause, read_plan = entry
            return _snapshot_access(_emitter, clause, read_plan, dims)

    # Reads of the old array and of the (aliased) new array both go
    # through the same buffer; only old reads get plan redirection.
    def array_reader(name, dims, gen, _emitter=emitter):
        node = getattr(gen, "_current_read_node", None)
        if node is not None and id(node) in _emitter.hoist_map:
            return _emitter.hoist_map[id(node)]
        if name == old or (comp.name and name == comp.name):
            if name == old:
                return read_old(dims, node)
            return f"_out[{_emitter._linear('out', dims)}]"
        _emitter.arrays[name] = len(dims)
        if node is not None and _is_gather(node):
            return (f"_gather(_b_{name}, _arr_{name}, "
                    f"{_gather_subscript(dims)})")
        return f"_arr_{name}[{_emitter._linear(name, dims)}]"

    emitter.gen.array_reader = array_reader

    hoists = [
        (comp.clauses[clause_index], read_plan)
        for clause_index, plans in sorted(plan.read_plans.items())
        for read_plan in plans
        if read_plan.mode == "hoist"
    ]
    # Hoist temps are emitted inside loops; clear the premature map so
    # reads only use a temp after its assignment is placed.
    emitter.hoist_map.clear()

    emitter.emit_items(schedule.items, set(),
                       snapshots=plan.snapshots, hoists=hoists)
    if emitter.vectorized_loops:
        # The §10 vector path reads arrays through numpy views of
        # freshly flattened inputs; in-place codegen has no such views
        # (the buffer being read is the one being mutated), so honour
        # the request loudly instead of emitting dangling references.
        raise CodegenError(
            "in-place code generation cannot vectorize loop(s) "
            + ", ".join(sorted({loop.var
                                for loop in emitter.vectorized_loops}))
            + ": vector reads need immutable numpy views, but the "
            "input buffer is mutated in place; drop vectorize or "
            "compile monolithically"
        )

    preamble_lines = [
        f"_bb, _out = flatten_input(_env[{old!r}])",
    ]
    if plan.mode == "whole_copy":
        preamble_lines += [
            "_old = list(_out)",
            "_incr.STATS.arrays_copied += 1",
            "_incr.STATS.cells_copied += len(_old)",
        ]
    emitter.preamble_lines = preamble_lines
    return emitter.assemble("return FlatArray(_b, _out)", "")


def _snapshot_access(emitter: _Emitter, clause: SVClause,
                     read_plan: ReadPlan, dims: List[str]) -> str:
    """Index into a snapshot ring for a protected read.

    A slab saved at level-``l`` instance ``t`` holds the old values of
    the cells the clause writes at ``t``, flattened row-major over the
    inner loops.  The read's cell is the one written at instance
    ``t - distance`` with inner coordinates shifted by the read's inner
    deltas; positions falling outside the slab (or a ring that has not
    filled yet) mean the cell was never overwritten, so the buffer is
    read directly.
    """
    level = read_plan.level
    name = f"_snap_{clause.index}_{level}"
    inner_loops = clause.loops[level + 1:]
    distance = read_plan.distance
    direct = f"_out[{emitter._linear('out', dims)}]"
    filled = f"len({name}) > {distance}"
    if not inner_loops:
        return f"({name}[-{distance + 1}] if {filled} else {direct})"
    # Row-major slab position: the read's inner coordinate for the
    # loop at clause level l' is (loop_var + delta_l'), normalized by
    # the loop's own start and step.
    position_terms = []
    guards = [filled]
    for offset, loop in enumerate(inner_loops):
        clause_level = level + 1 + offset
        delta = (
            read_plan.deltas[clause_level]
            if clause_level < len(read_plan.deltas)
            else 0
        )
        start = emitter.emit_expr(loop.start, set(emitter.gen.locals))
        stop = emitter.emit_expr(loop.stop, set(emitter.gen.locals))
        count = f"((({stop}) - ({start})) // {loop.step} + 1)"
        term = f"((({loop.var}) + {delta} - ({start})) // {loop.step})"
        guards.append(f"0 <= {term} < {count}")
        for deeper in inner_loops[offset + 1:]:
            d_start = emitter.emit_expr(deeper.start, set())
            d_stop = emitter.emit_expr(deeper.stop, set())
            term = (
                f"({term}) * ((({d_stop}) - ({d_start})) // "
                f"{deeper.step} + 1)"
            )
        position_terms.append(term)
    position = " + ".join(position_terms)
    condition = " and ".join(guards)
    return (
        f"({name}[-{distance + 1}][{position}] "
        f"if {condition} else {direct})"
    )


def emit_thunked(
    comp: ArrayComp,
    options: Optional[CodegenOptions] = None,
    params: Optional[Dict[str, int]] = None,
) -> str:
    """Thunked fallback: a genuine non-strict array of suspensions.

    Collision and empties checking are inherent to the runtime here —
    ``NonStrictArray`` rejects duplicate definitions and
    ``force_elements`` demands every element — so ``options`` check
    flags are ignored.
    """
    del options  # checks are performed by the array runtime itself
    emitter = _Emitter(comp, CodegenOptions(), params)

    def self_reader(dims, node):
        tuple_src = ", ".join(dims)
        if comp.rank == 1:
            return f"_a.at({tuple_src})"
        return f"_a.at(({tuple_src}))"

    emitter.self_reader = self_reader

    writer = emitter.body
    writer.line("_pairs = []")

    def walk(entities, locals_: Set[str]):
        for entity in entities:
            if isinstance(entity, SVClause):
                emit_pair(entity, locals_)
            else:
                start = emitter.emit_expr(entity.start, locals_)
                stop = emitter.emit_expr(entity.stop, locals_)
                sgn = 1 if entity.step > 0 else -1
                writer.line(
                    f"for {entity.var} in range({start}, "
                    f"({stop}) + {sgn}, {entity.step}):"
                )
                with writer.block():
                    walk(entity.children, locals_ | {entity.var})

    def emit_pair(clause: SVClause, locals_: Set[str]):
        context = None
        if clause.guards:
            guard_src = " and ".join(
                emitter.emit_expr(guard, locals_) for guard in clause.guards
            )
            writer.line(f"if {guard_src}:")
            context = writer.block()
            context.__enter__()
        try:
            sub = clause.subscript_ast
            dims = sub.items if isinstance(sub, ast.TupleExpr) else [sub]
            sub_src = ", ".join(
                emitter.emit_expr(dim, locals_) for dim in dims
            )
            if len(dims) > 1:
                sub_src = f"({sub_src})"
            value = clause.value
            if clause.lets:
                value = ast.Let(kind="let", binds=clause.lets, body=value)
            loop_vars = [loop.var for loop in clause.loops]
            defaults = ", ".join(f"{v}={v}" for v in loop_vars)
            lam = "lambda" + (f" {defaults}" if defaults else "")
            value_src = emitter.emit_expr(
                value, locals_ | set(loop_vars)
            )
            writer.line(f"_pairs.append(({sub_src}, {lam}: {value_src}))")
        finally:
            if context:
                context.__exit__(None, None, None)

    walk(comp.roots, set())
    writer.line("_a = NonStrictArray(_b, _pairs)")
    writer.line("_strict = force_elements(_a)")
    return emitter.assemble(
        "return FlatArray(_b, _strict.to_list())", "_out = None"
    )
