"""The end-to-end compiler driver.

``compile(src, strategy=...)`` is the single public entry point.
Every strategy runs the paper's one chain of analyses, written once as
passes over one :class:`_State` (see :data:`PASSES`):

1. parse the definition and build the normalized loop IR (§6
   normalization);
2. subscript properties of indirect writes, then collision and
   empties analysis (§4, §7) — decides which runtime checks survive;
3. flow dependence (§5, §6) — plus anti dependence against the dead
   input array when the update runs in place (§9) — and static
   scheduling (§8);
4. guard planning and runtime checks, tiling, and code generation
   through one :class:`~repro.backends.base.LoweringJob`: thunkless
   loops when the schedule is safe, the thunked fallback otherwise —
   optionally vectorized (§10: dependence-free nests as slices,
   hyperplane wavefronts as anti-diagonal sweeps).

``strategy`` selects the compilation mode — ``"array"`` (monolithic),
``"inplace"`` (the §9 storage-reuse path: anti edges against the dead
input array, node-splitting, in-place codegen), ``"bigupd"`` (the §9
surface form), ``"accum"`` (accumulated arrays) — or ``"auto"``, which
detects the mode from the source's shape.  A strategy is a tuple of
passes: the shared ones above plus a few of its own (its front end,
the accumArray combiner and schedule, interchange, the
thunkless/thunked/guarded choice, the in-place plan, the wavefront
plan).  :func:`analyze` runs the analysis prefix of the same list.

All modes return a :class:`~repro.codegen.compile.CompiledComp` whose
``report`` records every decision (dependence edges, schedule, checks,
fallbacks, vectorizable loops, vectorizer decisions) — the
compile-time side of each experiment in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.backends import LoweringJob, lower
from repro.codegen.compile import CompiledComp
from repro.codegen.emit import CodegenOptions
from repro.comprehension.build import (
    BuildError,
    build_array_comp,
    find_array_comp,
)
from repro.comprehension.loopir import ArrayComp, LoopNest
from repro.core.collisions import (
    CERTAIN,
    CollisionReport,
    EmptiesReport,
    analyze_collisions,
    analyze_empties,
)
from repro.core.dependence import (
    DepEdge,
    anti_edges,
    dependence_memo,
    flow_edges,
)
from repro.core.inplace import InPlacePlan, plan_inplace
from repro.core.schedule import Schedule, schedule_comp
from repro.lang import ast
from repro.lang.parser import parse_expr
from repro.obs.trace import ensure_trace, span, span_timings, trace_scope


class CompileError(Exception):
    """The definition cannot be compiled at all (static error)."""


@dataclass
class Report:
    """Everything the compiler decided about one array definition."""

    comp: ArrayComp = None
    collision: CollisionReport = None
    empties: EmptiesReport = None
    edges: List[DepEdge] = field(default_factory=list)
    schedule: Schedule = None
    #: 'thunkless' | 'thunked' | 'guarded' | 'inplace' | 'inplace-copy'
    #: | 'accumulate' ('' for an analysis-only report).
    strategy: str = ""
    checks: CodegenOptions = None
    inplace_plan: Optional[InPlacePlan] = None
    vectorizable: List[str] = field(default_factory=list)
    parallelism: List = field(default_factory=list)
    #: §10 vectorizer decisions (one line per clause/loop): the
    #: clauses the profile leaves sequential, the wavefronts swept and
    #: why one fell back, and why a nest or a clause's float trap was
    #: refused.
    parallel: List[str] = field(default_factory=list)
    #: Backend-dispatch log: one line per skip or reasoned fallback
    #: (unavailable toolchain, unsupported construct) recorded by
    #: :func:`repro.backends.lower`.
    backend: List[str] = field(default_factory=list)
    #: The registered backend whose emitter produced the source
    #: (``"python"`` unless a non-default backend lowered the job).
    backend_used: str = ""
    #: Subscript-property analysis over indirect writes
    #: (:class:`~repro.core.subscripts_indirect.SubscriptReport`);
    #: ``None`` until the subscripts pass runs.
    subscripts: Optional[object] = None
    #: Cache-blocking decision (:class:`~repro.core.tiling.TilePlan`):
    #: the plan the C kernel ran, or a reasoned ``ok=False`` rejection
    #: (python loops are never blocked).  ``None`` when tiling was
    #: never requested for this definition.
    tiling: Optional[object] = None
    notes: List[str] = field(default_factory=list)
    #: Wall-clock seconds per pipeline pass (parse, build, dependence,
    #: schedule, codegen, ...) — consumed by the compile service's
    #: metrics; not part of the semantic compilation result.  Derived
    #: from :attr:`trace` (``"total"`` is the root span, so the pass
    #: entries always sum to at most ``total``, glue included).
    timings: Dict[str, float] = field(default_factory=dict)
    #: The structured compile trace (:class:`repro.obs.trace.Trace`)
    #: this report's ``timings`` view is derived from.
    trace: Optional[object] = None

    def summary(self) -> str:
        """A short human-readable account of the compilation."""
        lines = [f"strategy: {self.strategy or 'analysis only'}"]
        lines.append(f"collisions: {self.collision.status}")
        lines.append(f"empties: {self.empties.status}")
        if self.checks is not None:
            lines.append(
                "checks compiled: "
                f"bounds={self.checks.bounds_checks}, "
                f"collision={self.checks.collision_checks}, "
                f"empties={self.checks.empties_check}"
            )
        for edge in self.edges:
            lines.append(f"edge: {edge}")
        if self.schedule is not None:
            for var, dirs in self.schedule.loop_directions().items():
                lines.append(f"loop {var}: {', '.join(dirs)}")
        if self.vectorizable:
            lines.append(
                "vectorizable inner loops: " + ", ".join(self.vectorizable)
            )
        for profile in self.parallelism:
            if profile.hyperplane is not None:
                lines.append(
                    f"{profile.clause.label}: wavefront h="
                    f"{profile.hyperplane}, critical path "
                    f"{profile.steps} of {profile.work} "
                    f"(speedup bound {profile.speedup_bound:.1f})"
                )
        for decision in self.parallel:
            lines.append(f"parallel: {decision}")
        if self.backend_used and self.backend_used != "python":
            lines.append(f"backend: lowered by {self.backend_used}")
        for decision in self.backend:
            lines.append(f"backend: {decision}")
        if self.subscripts is not None and self.subscripts.has_indirect:
            lines.extend(self.subscripts.summary_lines())
        if self.tiling is not None:
            lines.append(f"tile: {self.tiling.summary()}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _parse(src) -> ast.Node:
    return parse_expr(src) if isinstance(src, str) else src


def _vectorizable_loops(comp: ArrayComp, edges: List[DepEdge]) -> List[str]:
    """Innermost loops with no loop-carried dependence (paper §10)."""
    out = []
    for loop in comp.iter_loops():
        if any(isinstance(c, LoopNest) for c in loop.children):
            continue  # not innermost
        carried = False
        for edge in edges:
            for clause in (edge.src, edge.dst):
                if loop not in clause.loops:
                    continue
                level = clause.loops.index(loop)
                if (
                    loop in edge.src.loops
                    and loop in edge.dst.loops
                    and len(edge.direction) > level
                    and edge.direction[level] in ("<", ">", "*")
                ):
                    carried = True
        if not carried:
            out.append(loop.var)
    return out


def _unproven_guard_dims(
    sub_report, need_injective: bool = True
) -> Dict[int, Dict[int, str]]:
    """Indirect dims whose index array is not fully statically proven.

    These are the store dimensions that need exact-int guards when the
    kernel runs with per-write checks (an unverified cell could hold a
    float or bool).  Accumulated and in-place stores pass
    ``need_injective=False``: duplicates are their semantics (combined,
    or a later store wins), so a static *bounded* proof alone
    discharges the dimension.
    """
    out: Dict[int, Dict[int, str]] = {}
    from repro.core.subscripts_indirect import STATIC

    for write in sub_report.writes:
        prop = sub_report.properties.get(write.index_array)
        if (prop is not None and prop.source == STATIC
                and (prop.injective or not need_injective)
                and prop.bounded):
            continue
        out.setdefault(write.clause.index, {})[write.dim] = \
            write.index_array
    return out


def find_bigupd(expr: ast.Node):
    """Locate ``bigupd old pairs``; returns ``(old_name, pairs_ast)``."""
    if isinstance(expr, ast.Let) and expr.binds:
        return find_bigupd(expr.binds[0].expr)
    if (
        isinstance(expr, ast.App)
        and isinstance(expr.fn, ast.Var)
        and expr.fn.name == "bigupd"
        and len(expr.args) == 2
        and isinstance(expr.args[0], ast.Var)
    ):
        return expr.args[0].name, expr.args[1]
    raise CompileError(
        "expected an application of 'bigupd' to an array name and pairs"
    )


@dataclass(frozen=True)
class _Stores:
    """How one strategy's stores are checked and guarded, and the
    wording of its notes and ``subscript`` explain decisions.

    ``monolithic``: a duplicate store or an unwritten cell is an error,
    so runtime collision and empties checks apply and an index array
    must be injective.  Accumulation combines duplicates and an update
    lets a later store win, both over cells that already hold a value.
    ``mode`` is the :class:`~repro.core.subscripts_indirect.GuardPlan`
    mode; ``guarded`` says whether the strategy has a guarded
    dual-schedule kernel at all.  ``{names}`` is the verified index
    arrays.
    """

    mode: str
    guarded: bool
    monolithic: bool
    checked_note: str
    accepted: str = ""
    accepted_note: str = ""
    static: str = ""
    static_note: str = ""
    rejected: str = ""


_SCATTER = _Stores(
    mode="scatter", guarded=True, monolithic=True,
    accepted="runtime verifier over {names} picks the unchecked fast "
             "schedule or the checked serial fallback per call",
    accepted_note="guarded dual-schedule kernel: O(n) runtime verifier "
                  "over {names} elides per-write checks on the fast path",
    static="every subscript property proven statically; the plain "
           "unchecked schedule needs no runtime verifier",
    static_note="indirect subscripts statically proven injective and "
                "bounded: unchecked scatter, no runtime verifier",
    rejected="no sound guard plan (opaque inner subscripts, unknown "
             "static ranges, or multi-dimension index use); per-write "
             "checks compiled instead",
    checked_note="indirect subscripts without a guard plan: runtime "
                 "bounds + exact-int checks compiled on every indirect "
                 "store",
)

_ACCUM = _Stores(
    mode="accum", guarded=True, monolithic=False,
    accepted="histogram fast path: runtime bounds verifier over {names} "
             "elides per-store checks",
    accepted_note="guarded accumulation: O(n) bounds verifier over "
                  "{names} elides per-store checks on the fast path",
    static="index array statically bounded; accumulation needs no "
           "runtime verifier",
    static_note="indirect accumulation statically bounded: unchecked "
                "stores, no runtime verifier",
    checked_note="indirect accumulation without a guard plan: runtime "
                 "bounds + exact-int checks compiled on every store",
)

_UPDATE = _Stores(
    mode="scatter", guarded=False, monolithic=False,
    checked_note="indirect in-place stores: runtime bounds + exact-int "
                 "checks compiled on every indirect store (a later "
                 "store to the same cell wins)",
)

_STORES = {"array": _SCATTER, "accum": _ACCUM, "inplace": _UPDATE,
           "bigupd": _UPDATE}


@dataclass
class _State:
    """Everything one compilation threads from pass to pass.

    The analyses write straight into :attr:`report`; the rest is what
    later passes (and the lowering job) need but the report does not
    keep.
    """

    strategy: str
    src: object
    params: Optional[Dict[str, int]] = None
    #: ``None`` is normalized to ``CodegenOptions()`` here, once; no
    #: pass branches on it.
    options: Optional[CodegenOptions] = None
    force_strategy: Optional[str] = None
    old_array: Optional[str] = None
    index_comps: Optional[Dict[str, ArrayComp]] = None
    report: Report = field(default_factory=Report)
    expr: Optional[ast.Node] = None
    name: str = ""
    bounds_ast: Optional[ast.Node] = None
    pairs_ast: Optional[ast.Node] = None
    #: accumArray only: the combining function and initial value, the
    #: combiner's ``(kind, op)`` classification, its lowering
    #: (``LoweringJob.combine``), and the fold-order note.
    f_ast: Optional[ast.Node] = None
    init_ast: Optional[ast.Node] = None
    combiner: tuple = ()
    combine: object = None
    fold_note: str = ""
    #: Flow edges alone (``report.edges`` adds the §9 anti edges).
    flow: List[DepEdge] = field(default_factory=list)
    #: The guarded kernel's :class:`GuardPlan`, when one was accepted.
    guard: object = None
    #: Indirect store dims needing exact-int guards when unguarded.
    unproven: Dict[int, Dict[int, str]] = field(default_factory=dict)
    #: The :class:`~repro.backends.base.LoweringJob` mode.
    lowering: str = ""
    parallel_plan: object = None
    source: str = ""
    compiled: Optional[CompiledComp] = None

    def __post_init__(self):
        self.options = CodegenOptions.of(self.options)


# ----------------------------------------------------------------------
# Passes.  Each takes the state and advances it; the strategy tuples in
# PASSES below pick and order them.


def _parse_pass(st: _State) -> None:
    with span("parse"):
        st.expr = _parse(st.src)


def _front_array(st: _State) -> None:
    st.name, st.bounds_ast, st.pairs_ast = find_array_comp(st.expr)


def _front_monolithic(st: _State) -> None:
    """``array`` definitions; ``accumArray`` ones analyze through the
    same bounds/pairs comprehension (the combiner only matters for
    codegen)."""
    from repro.core.accum import find_accum_array

    try:
        _front_array(st)
    except BuildError as build_exc:
        try:
            st.name, _f, _init, st.bounds_ast, st.pairs_ast = \
                find_accum_array(st.expr)
        except ValueError:
            raise build_exc from None


def _front_bigupd(st: _State) -> None:
    """``bigupd old pairs``: the old array is named by the source and
    the bounds come from it at run time."""
    st.old_array, st.pairs_ast = find_bigupd(st.expr)


def _front_accum(st: _State) -> None:
    from repro.core.accum import find_accum_array

    try:
        st.name, st.f_ast, st.init_ast, st.bounds_ast, st.pairs_ast = \
            find_accum_array(st.expr)
    except ValueError as exc:
        raise CompileError(str(exc)) from exc


def _build(st: _State) -> None:
    with span("build"):
        st.report.comp = build_array_comp(st.name, st.bounds_ast,
                                          st.pairs_ast, st.params)


def _accum_combiner(st: _State) -> None:
    """A commutative-associative combiner (recognized ``+``, ``*``,
    ``min``, ``max`` shapes) leaves the scheduler free; any other
    combiner is compiled as an environment call when it is a plain
    variable, inlined when it is a two-parameter lambda, else
    rejected."""
    from repro.core.accum import classify_combiner

    kind, op = classify_combiner(st.f_ast)
    if kind == "commutative":
        st.combine = op
    elif isinstance(st.f_ast, ast.Var):
        st.combine = ("env", st.f_ast.name)
    elif isinstance(st.f_ast, ast.Lam) and len(st.f_ast.params) == 2:
        st.combine = ("lambda", st.f_ast)
    else:
        raise CompileError(
            "combining function must be a two-parameter lambda or a name"
        )
    st.combiner = (kind, op)
    st.lowering = "accum"


def _subscripts(st: _State) -> None:
    """Properties of index arrays written through (``a!(p!i)``);
    ``index_comps`` lets visible definitions prove them statically."""
    from repro.core.subscripts_indirect import analyze_subscripts

    with span("subscripts"):
        st.report.subscripts = analyze_subscripts(
            st.report.comp, st.params, st.index_comps
        )


def _collisions(st: _State) -> None:
    report = st.report
    sub = report.subscripts
    with span("collisions"):
        report.collision = analyze_collisions(
            report.comp, injective=sub.static_injective, params=st.params,
        )
        report.empties = analyze_empties(
            report.comp, report.collision, bounded=sub.static_bounded,
            params=st.params,
        )


def _reject_certain(st: _State) -> None:
    collision = st.report.collision
    if collision.status == CERTAIN:
        raise CompileError(
            "write collision is certain: " + "; ".join(
                str(f) for f in collision.findings if f.status == CERTAIN
            )
        )


def _dependence(st: _State) -> None:
    """Flow edges of the array's own name; in place, anti edges from
    every read of the old array to the writes that kill it (§9)."""
    comp = st.report.comp
    with span("dependence"):
        st.flow = flow_edges(comp) if comp.name else []
        anti = anti_edges(comp, st.old_array) if st.old_array else []
        st.report.edges = st.flow + anti


def _schedule(st: _State) -> None:
    report = st.report
    with span("schedule"):
        report.schedule = schedule_comp(
            report.comp, report.edges,
            allow_node_splitting=st.old_array is not None,
        )


def _require_schedule(st: _State, what: str) -> None:
    schedule = st.report.schedule
    if not schedule.ok:
        raise CompileError(
            f"cannot schedule {what}: " + "; ".join(schedule.failures)
        )


def _accum_schedule(st: _State) -> None:
    """Colliding writes under an ordered combiner are *ordered* output
    dependences: the loops replay the pair list in source order."""
    from repro.core.accum import reordering_allowed, source_schedule

    report = st.report
    with span("schedule"):
        if reordering_allowed(report.comp, st.combiner[0]):
            report.schedule = schedule_comp(report.comp, report.edges)
            st.fold_note = "reorderable (commutative or collision-free)"
        else:
            report.schedule = source_schedule(report.comp)
            st.fold_note = "source order preserved (ordered combiner)"
    _require_schedule(st, "accumulated array")


def _profile(st: _State) -> None:
    """Vectorizable loops and §10 parallelism profiles from the *flow*
    edges, for every strategy — so ``summary()`` output is
    line-for-line comparable across strategies."""
    from repro.core.parallel import analyze_parallelism

    report = st.report
    with span("parallelism"):
        report.vectorizable = _vectorizable_loops(report.comp, st.flow)
        report.parallelism = analyze_parallelism(report.comp, st.flow)


def _interchange(st: _State) -> None:
    """§8.2/§10 extension: under ``vectorize``, interchange perfect
    nests whose inner loop carries a dependence but whose outer loop
    does not, so the vectorizer finds a dependence-free innermost
    loop.  Monolithic semantics make any loop permutation meaning-
    preserving; only the analysis must be redone."""
    if not st.options.vectorize:
        return
    from repro.core.interchange import interchange, plan_interchanges

    report = st.report
    proposals = plan_interchanges(report.comp, report.edges)
    if not proposals:
        return
    with span("interchange"):
        for outer in proposals:
            interchange(report.comp, outer)
        st.flow = report.edges = flow_edges(report.comp)
        report.schedule = schedule_comp(report.comp, report.edges)
        report.vectorizable = _vectorizable_loops(report.comp, report.edges)
    report.notes.append(
        "interchanged "
        + ", ".join(f"loops around {p.var}" for p in proposals)
        + " to expose a vectorizable innermost loop"
    )


def _inplace_plan(st: _State) -> None:
    """Node-splitting temporaries where the anti edges demand them, or
    the whole-copy fallback when the stencil model does not apply."""
    _require_schedule(st, "in-place update")
    report = st.report
    schedule = report.schedule
    with span("inplace-plan"):
        plan = plan_inplace(
            report.comp, st.old_array,
            schedule.clause_directions(), schedule.clause_positions(),
        )
    report.inplace_plan = plan
    st.lowering = "inplace"
    if plan.mode == "whole_copy":
        report.strategy = "inplace-copy"
        report.notes.append(f"whole-copy fallback: {plan.reason}")
    else:
        report.strategy = "inplace"
        if plan.snapshots or plan.hoisted:
            report.notes.append(
                f"node-splitting: {len(plan.snapshots)} snapshot ring(s), "
                f"{len(plan.hoisted)} hoisted temp(s)"
            )


def _guard(st: _State) -> None:
    """Indirect writes: when the schedule is safe but collision/empties
    stay inconclusive *only* because an index array's properties are
    runtime-verifiable, plan the guarded dual-schedule kernel — an
    O(n) verifier picks the unchecked (optionally vectorized) fast path
    or the fully checked serial fallback at call time."""
    report = st.report
    sub = report.subscripts
    if not sub.has_indirect:
        return
    stores = _STORES[st.strategy]
    st.unproven = _unproven_guard_dims(sub, stores.monolithic)
    # Forced checks pin the checked emission shape; the guarded kernel
    # replaces only the checks the analysis asks for (``vectorize``
    # rides along: its fast path is where a vector slice can engage).
    if not (stores.guarded and report.schedule.ok
            and st.force_strategy is None
            and not st.options.checked):
        return
    from repro.core.subscripts_indirect import plan_guard

    with span("subscript-guard"):
        guard = plan_guard(report.comp, sub, st.params, mode=stores.mode)
    if guard is None:
        if stores.rejected:
            sub.decisions.append(
                ("guarded kernel", "rejected", stores.rejected)
            )
    elif guard.verify:
        st.guard = sub.guard = guard
        sub.guarded = True
        st.lowering = "guarded"
        names = ", ".join(sorted(s.array for s in guard.verify))
        sub.decisions.append((
            "guarded kernel", "accepted", stores.accepted.format(names=names)
        ))
        report.notes.append(stores.accepted_note.format(names=names))
    else:
        # Every property proven statically: the analyses already came
        # back clean, so the plain path elides the checks outright.
        sub.decisions.append(("static proof", "accepted", stores.static))
        report.notes.append(stores.static_note)


def _checks(st: _State) -> None:
    """The checks the options force on, plus every runtime check the
    analyses could not discharge: collisions and empties for monolithic
    arrays without a guarded kernel; and bounds + exact-int checks on
    stores through an unverified index array, which can hold
    out-of-range or non-int values that unchecked stores would wrap
    silently or crash on."""
    report = st.report
    stores = _STORES[st.strategy]
    needed = {}
    if st.guard is None and stores.monolithic:
        if report.collision.checks_needed:
            needed["collision_checks"] = True
            report.notes.append(
                "runtime collision checks compiled (analysis inconclusive)"
            )
        if report.empties.checks_needed:
            needed["empties_check"] = True
            report.notes.append(
                "runtime empties check compiled (analysis inconclusive)"
            )
    if st.unproven and st.guard is None:
        needed["bounds_checks"] = True
        report.notes.append(stores.checked_note)
    if needed:
        st.options = replace(st.options, **needed)
    report.checks = st.options


def _choose(st: _State) -> None:
    """The thunkless/thunked/guarded choice; ``force_strategy``
    overrides it (forcing thunkless on an unsafe schedule fails)."""
    report = st.report
    strategy = st.force_strategy
    if strategy is None:
        if st.guard is not None:
            strategy = "guarded"
        else:
            strategy = "thunkless" if report.schedule.ok else "thunked"
        for failure in report.schedule.failures:
            report.notes.append(f"thunk fallback: {failure}")
    elif strategy == "thunkless" and not report.schedule.ok:
        raise CompileError(
            "cannot force thunkless code: "
            + "; ".join(report.schedule.failures)
        )
    report.strategy = st.lowering = strategy


def _accum_notes(st: _State) -> None:
    report = st.report
    kind, op = st.combiner
    report.strategy = "accumulate"
    report.notes += [f"combiner: {kind}" + (f" ({op})" if op else ""),
                     st.fold_note]


#: Why a python unit asked for tiles runs untiled.
_PYTHON_UNTILED = (
    "only the C backend blocks loops: python loops are "
    "interpreter-bound, not memory-bound, so they run untiled (an "
    "out-of-core program takes tile= as its rows per tile)"
)


def _tiling(st: _State) -> None:
    tile = st.options.tile
    if tile is None or st.options.backend == "python":
        return  # python units: _codegen records the fallback
    from repro.core.tiling import plan_tiling

    report = st.report
    plan = report.inplace_plan
    # Whole-copy updates read every old value from the frozen copy, so
    # the anti edges the copy satisfies do not constrain the tile
    # order; only flow (self-name) edges remain live.
    live = st.flow if plan is not None and plan.mode == "whole_copy" \
        else report.edges
    with span("tiling"):
        report.tiling = plan_tiling(
            report.schedule, live, mode=st.lowering, tile=tile,
            inplace_plan=plan,
        )


def _wavefront_plan(st: _State) -> None:
    """Under ``vectorize``, the §10 plan of the nests the vectorizer
    sweeps as (1,1) wavefronts; clauses it leaves sequential are
    logged with the reason."""
    if not st.options.vectorize \
            or st.lowering not in ("thunkless", "guarded"):
        return
    from repro.core.parallel import SEQUENTIAL, plan_parallelism

    report = st.report
    st.parallel_plan = plan_parallelism(
        report.comp, report.edges, report.parallelism,
        subscripts=report.subscripts,
    )
    for entry in st.parallel_plan.clauses:
        if entry.kind == SEQUENTIAL:
            report.parallel.append(entry.describe())


def _codegen(st: _State) -> None:
    from repro.codegen.exprs import CodegenError

    report = st.report
    guard = st.guard
    if guard is None and st.unproven:
        from repro.core.subscripts_indirect import GuardPlan

        guard = GuardPlan(verify=(), mode=_STORES[st.strategy].mode,
                          indirect_dims=st.unproven)
    job = LoweringJob(
        mode=st.lowering, comp=report.comp, options=st.options,
        schedule=report.schedule, params=st.params, edges=report.edges,
        parallel_plan=st.parallel_plan, parallel_log=report.parallel,
        plan=report.inplace_plan, old_array=st.old_array,
        combine=st.combine, init_ast=st.init_ast, subscripts=guard,
        tiling=report.tiling,
    )
    try:
        with span("codegen"):
            st.source = lower(job, report)
    except CodegenError as exc:
        raise CompileError(f"cannot generate code: {exc}") from exc
    if st.options.tile is None:
        return
    # Only C kernels run tile loops; the note names what ran.
    tiling = report.tiling
    if report.backend_used == "python" and (tiling is None or tiling.ok):
        from repro.core.tiling import TilePlan

        tiling = report.tiling = TilePlan(ok=False, note=(
            f"{report.backend[-1]}, which blocks no loops"
            if report.backend else _PYTHON_UNTILED))
    report.notes.append(f"tiled: {tiling.summary()}" if tiling.ok
                        else f"tile fallback: {tiling.note}")


def _vectorize_note(st: _State) -> None:
    if st.lowering == "thunkless" and st.options.vectorize:
        st.report.notes.append(
            "vectorization requested (paper §10): qualifying loop nests "
            "emitted as numpy slices, planned wavefronts as one slice "
            "per anti-diagonal"
        )


def _exec(st: _State) -> None:
    with span("exec"):
        st.compiled = CompiledComp(st.source, st.report)


#: The analysis prefix :func:`analyze` runs (monolithic front end).
_ANALYSIS = (_parse_pass, _front_monolithic, _build, _subscripts, _collisions,
             _dependence, _schedule, _profile)

_INPLACE_TAIL = (_build, _subscripts, _collisions, _reject_certain,
                 _dependence, _schedule, _profile, _inplace_plan, _guard,
                 _checks, _tiling, _codegen, _exec)

#: Each strategy's passes, in order.  Shared passes appear in every
#: tuple; the rest are the strategy's own choices.
PASSES = {
    "array": _ANALYSIS + (
        _interchange, _reject_certain, _guard, _checks, _choose, _tiling,
        _wavefront_plan, _codegen, _vectorize_note, _exec,
    ),
    "inplace": (_parse_pass, _front_array) + _INPLACE_TAIL,
    "bigupd": (_parse_pass, _front_bigupd) + _INPLACE_TAIL,
    "accum": (
        _parse_pass, _front_accum, _build, _accum_combiner, _subscripts,
        _collisions, _dependence, _accum_schedule, _profile, _tiling,
        _guard, _checks, _accum_notes, _codegen, _exec,
    ),
}


def _drive(
    strategy: str,
    src,
    params: Optional[Dict[str, int]] = None,
    options: Optional[CodegenOptions] = None,
    old_array: Optional[str] = None,
    force_strategy: Optional[str] = None,
    index_comps: Optional[Dict[str, ArrayComp]] = None,
) -> CompiledComp:
    """Run ``strategy``'s passes inside one ``compile`` trace scope."""
    st = _State(strategy, src, params, options, force_strategy,
                old_array, index_comps)
    with trace_scope("compile") as scope:
        for step in PASSES[strategy]:
            step(st)
    st.report.trace = scope
    st.report.timings = span_timings(scope)
    return st.compiled


def analyze(
    src,
    params: Optional[Dict[str, int]] = None,
    index_comps: Optional[Dict[str, ArrayComp]] = None,
) -> Report:
    """Run analysis and scheduling without generating code.

    ``index_comps`` maps sibling binding names to their built
    comprehensions; the subscript-property pass uses them to prove
    injectivity/boundedness of index arrays statically, which feeds
    the collision and empties analyses for indirect writes.
    """
    st = _State("array", src, params, index_comps=index_comps)
    with ensure_trace("analyze") as trace, dependence_memo():
        for step in _ANALYSIS:
            step(st)
    st.report.trace = trace.root
    st.report.timings = trace.timings()
    return st.report


# ----------------------------------------------------------------------
# The facade.

#: Strategies the facade accepts.
STRATEGIES = ("auto", "array", "inplace", "bigupd", "accum")

#: ``force_strategy`` values (monolithic arrays only).
FORCED = ("thunkless", "thunked")


def detect_strategy(expr) -> str:
    """Pick the compilation strategy from the source's shape.

    ``bigupd`` applications compile in place into their named input;
    ``accumArray`` applications compile as accumulated arrays;
    everything else is a monolithic array definition.
    """
    expr = _parse(expr)
    try:
        find_bigupd(expr)
        return "bigupd"
    except CompileError:
        pass
    from repro.core.accum import find_accum_array

    try:
        find_accum_array(expr)
        return "accum"
    except ValueError:
        pass
    return "array"


def compile(
    src,
    *,
    strategy: str = "auto",
    params: Optional[Dict[str, int]] = None,
    options: Optional[CodegenOptions] = None,
    old_array: Optional[str] = None,
    force_strategy: Optional[str] = None,
    cache=None,
    explain: bool = False,
    dist: bool = False,
    workers: int = 0,
    ooc: bool = False,
    index_comps: Optional[Dict[str, ArrayComp]] = None,
) -> CompiledComp:
    """Compile an array definition — the single public entry point.

    Parameters
    ----------
    strategy:
        ``"array"`` (monolithic), ``"inplace"`` (§9 storage reuse into
        ``old_array``), ``"bigupd"`` (the §9 surface form), ``"accum"``
        (accumulated arrays), or ``"auto"`` (the default): detect
        ``bigupd``/``accumArray`` shapes from the source, treat a
        given ``old_array`` as a request for ``"inplace"``, and fall
        back to ``"array"``.
    params:
        Size parameters the analyses may fold into trip counts.
    options:
        :class:`~repro.codegen.emit.CodegenOptions` (checks,
        ``vectorize``, ``backend``, ``tile``); ``None`` is
        ``CodegenOptions()``.  The pipeline adds every runtime check
        its analysis could not discharge to the options given.
    old_array:
        The input array overwritten by the ``"inplace"`` strategy.
    force_strategy:
        ``"thunkless"``/``"thunked"`` override for the ``"array"``
        strategy (benchmarking).
    cache:
        Route through the compile service: ``True`` for the shared
        in-memory service, a directory path for a persistent cache, or
        a :class:`~repro.service.service.CompileService`.  Covers
        every strategy.
    explain:
        Attach the decision trace (an
        :class:`~repro.obs.explain.Explanation`) to the result's
        ``explanation`` attribute — *why* each schedule/in-place/
        vectorize decision was taken or rejected.
    dist / workers:
        Program sources only: plan block-partitioned convergence
        sweeps over ``workers`` processes
        (see :func:`repro.program.compile.compile_program`).  A
        single definition has no convergence loop to distribute, so
        ``dist=True`` on one is a :class:`CompileError`.
    ooc:
        Program sources only: stream iterate/converge sweeps through
        spill-file row tiles (:mod:`repro.program.outofcore`),
        bounding resident memory by the tile (``options.tile``).
        Like ``dist``, a :class:`CompileError` on single definitions.
    index_comps:
        Loop IR of previously compiled definitions, keyed by binding
        name (see :mod:`repro.core.subscripts_indirect`): when an
        index array used in a write subscript (``a!(p!i) := ...``) was
        itself built by a visible comprehension, its properties
        (injective/monotone/bounded) are proven *statically* and the
        runtime verifier is skipped.  The program compiler threads
        this automatically; single-definition callers rarely need it.
    """
    with dependence_memo():
        compiled = _compile_dispatch(
            src, strategy=strategy, params=params, options=options,
            old_array=old_array, force_strategy=force_strategy,
            cache=cache, dist=dist, workers=workers, ooc=ooc,
            index_comps=index_comps,
        )
    if explain:
        from repro.obs.explain import explain_report

        compiled.explanation = explain_report(compiled.report)
    return compiled


def _compile_dispatch(
    src,
    *,
    strategy: str,
    params: Optional[Dict[str, int]],
    options: Optional[CodegenOptions],
    old_array: Optional[str],
    force_strategy: Optional[str],
    cache,
    dist: bool = False,
    workers: int = 0,
    ooc: bool = False,
    index_comps: Optional[Dict[str, ArrayComp]] = None,
) -> CompiledComp:
    if strategy not in STRATEGIES:
        raise CompileError(
            f"unknown strategy {strategy!r}; expected one of "
            + ", ".join(repr(s) for s in STRATEGIES)
        )
    if force_strategy is not None and force_strategy not in FORCED:
        raise CompileError(
            f"unknown force_strategy {force_strategy!r}; expected one of "
            + ", ".join(repr(s) for s in FORCED)
        )
    cached = cache is not None and cache is not False
    text = src
    if isinstance(src, str):
        from repro.program.compile import classify_source, compile_program

        kind, src = classify_source(src)
        if kind == "program":
            if (strategy == "auto" and old_array is None
                    and force_strategy is None):
                return compile_program(text if cached else src,
                                       params=params, options=options,
                                       cache=cache, dist=dist,
                                       workers=workers, ooc=ooc)
            raise CompileError(
                "source is a multi-binding program (bindings "
                + ", ".join(repr(b.name) for b in src)
                + "); strategy=/old_array=/force_strategy= apply to "
                "single definitions — use repro.compile_program(src, "
                "params=..., options=...) for whole programs"
            )
    if dist:
        raise CompileError(
            "dist= distributes a program's iterate/converge sweeps; "
            "a single definition has no convergence loop — use "
            "repro.compile_program on a multi-binding program"
        )
    if ooc:
        raise CompileError(
            "ooc= streams a program's iterate/converge sweeps out of "
            "core; a single definition has no convergence loop — use "
            "repro.compile_program on a multi-binding program"
        )
    resolved = strategy
    if resolved == "auto":
        resolved = "inplace" if old_array is not None \
            else detect_strategy(src)
    if resolved == "inplace" and old_array is None:
        raise CompileError(
            "strategy 'inplace' needs old_array= (the input array "
            "whose storage is reused)"
        )
    if resolved != "inplace" and old_array is not None:
        raise CompileError(
            f"old_array= only applies to strategy 'inplace' "
            f"(resolved strategy here: {resolved!r})"
        )
    if force_strategy is not None and resolved != "array":
        raise CompileError(
            "force_strategy= (thunkless/thunked) only applies to "
            f"strategy 'array' (resolved strategy here: {resolved!r})"
        )

    if cached:
        if index_comps:
            # Loop IR is not serializable into a cache key; the
            # program compiler (which owns the only real producer of
            # index_comps) never routes through here with them.
            raise CompileError(
                "index_comps= cannot be combined with cache= (compiled "
                "loop IR does not key a cache entry); drop one"
            )
        from repro.service.api import CompileRequest
        from repro.service.service import resolve_cache

        # The request as sent, so it keys like repro.fingerprint of
        # the same arguments.
        return resolve_cache(cache).submit(CompileRequest(
            text, params, options, force_strategy, strategy, old_array,
            kind="definition",
        )).value()

    return _drive(resolved, src, params, options, old_array,
                  force_strategy, index_comps)
