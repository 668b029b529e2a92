"""The end-to-end compiler driver.

``compile(src, strategy=...)`` is the single public entry point; it
runs the full pipeline of the paper:

1. parse the ``letrec``/``letrec*`` array definition;
2. build the normalized loop IR (§6 normalization);
3. collision and empties analysis (§4, §7) — decides which runtime
   checks survive;
4. flow-dependence analysis (§5, §6) and static scheduling (§8);
5. code generation: thunkless loops when the schedule is safe, the
   thunked fallback otherwise — optionally vectorized (§10) or run
   through the parallel backend (§10: hyperplane wavefronts and
   dependence-free loops).

``strategy`` selects the compilation mode — ``"array"`` (monolithic),
``"inplace"`` (the §9 storage-reuse path: anti edges against the dead
input array, node-splitting, in-place codegen), ``"bigupd"`` (the §9
surface form), ``"accum"`` (accumulated arrays) — or ``"auto"``, which
detects the mode from the source's shape.  The legacy per-mode entry
points (``compile_array`` and friends) remain as thin deprecated
wrappers.

All modes return a :class:`~repro.codegen.compile.CompiledComp` whose
``report`` records every decision (dependence edges, schedule, checks,
fallbacks, vectorizable loops, parallel-backend decisions) — the
compile-time side of each experiment in EXPERIMENTS.md.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
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
    strategy: str = ""  # 'thunkless' | 'thunked' | 'inplace' | 'inplace-copy'
    checks: CodegenOptions = None
    inplace_plan: Optional[InPlacePlan] = None
    vectorizable: List[str] = field(default_factory=list)
    parallelism: List = field(default_factory=list)
    #: Parallel-backend decisions (one line per clause/loop): what the
    #: wavefront/dep-free emitters did and why anything fell back.
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
    #: ``None`` until :func:`analyze` runs.
    subscripts: Optional[object] = None
    #: Cache-blocking decision (:class:`~repro.core.tiling.TilePlan`):
    #: an accepted plan or a reasoned ``ok=False`` rejection.  ``None``
    #: when tiling was never requested for this definition.
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


def _base_report(
    comp: ArrayComp,
    collision: CollisionReport,
    empties: EmptiesReport,
    edges: List[DepEdge],
    schedule: Optional[Schedule],
    flow: Optional[List[DepEdge]] = None,
) -> Report:
    """One :class:`Report` constructor for every strategy.

    All strategies populate the same analysis fields (vectorizable
    loops, §10 parallelism profiles) from the *flow* edges, so
    ``summary()`` output is line-for-line comparable — and stable —
    across strategies (the facade's fingerprints rely on this).
    """
    from repro.core.parallel import analyze_parallelism

    flow = edges if flow is None else flow
    return Report(
        comp=comp,
        collision=collision,
        empties=empties,
        edges=edges,
        schedule=schedule,
        vectorizable=_vectorizable_loops(comp, flow),
        parallelism=analyze_parallelism(comp, flow),
    )


def analyze(
    src,
    params: Optional[Dict[str, int]] = None,
    verify_exact: bool = True,
    index_comps: Optional[Dict[str, ArrayComp]] = None,
) -> Report:
    """Run analysis and scheduling without generating code.

    ``index_comps`` maps sibling binding names to their built
    comprehensions; the subscript-property pass uses them to prove
    injectivity/boundedness of index arrays statically, which feeds
    the collision and empties analyses for indirect writes.
    """
    from repro.core.subscripts_indirect import analyze_subscripts

    from repro.core.accum import find_accum_array

    with ensure_trace("analyze") as trace, dependence_memo():
        with span("parse"):
            expr = _parse(src)
        with span("build"):
            try:
                name, bounds_ast, pairs_ast = find_array_comp(expr)
            except BuildError as build_exc:
                # accumArray definitions analyze through the same
                # bounds/pairs comprehension; the combiner only
                # matters for codegen.
                try:
                    name, _f, _init, bounds_ast, pairs_ast = \
                        find_accum_array(expr)
                except ValueError:
                    raise build_exc from None
            comp = build_array_comp(name, bounds_ast, pairs_ast, params)
        with span("subscripts"):
            sub_report = analyze_subscripts(comp, params, index_comps)
        with span("collisions"):
            collision = analyze_collisions(
                comp, injective=sub_report.static_injective,
                params=params,
            )
            empties = analyze_empties(
                comp, collision, bounded=sub_report.static_bounded,
                params=params,
            )
        with span("dependence"):
            edges = flow_edges(comp, verify_exact=verify_exact)
        with span("schedule"):
            schedule = schedule_comp(comp, edges)
        with span("parallelism"):
            report = _base_report(comp, collision, empties, edges,
                                  schedule)
    report.subscripts = sub_report
    report.trace = trace.root
    report.timings = trace.timings()
    return report


def _compile_array(
    src,
    params: Optional[Dict[str, int]] = None,
    options: Optional[CodegenOptions] = None,
    force_strategy: Optional[str] = None,
    index_comps: Optional[Dict[str, ArrayComp]] = None,
) -> CompiledComp:
    """Monolithic compilation (the ``"array"`` strategy of the facade).

    ``force_strategy`` overrides the pipeline's choice (``"thunked"``
    or ``"thunkless"``) for benchmarking; forcing ``"thunkless"`` on an
    unsafely scheduled array raises :class:`CompileError`.
    """
    with trace_scope("compile") as scope:
        compiled = _compile_array_traced(src, params, options,
                                         force_strategy, index_comps)
    compiled.report.trace = scope
    compiled.report.timings = span_timings(scope)
    return compiled


def _guard_compatible(options: Optional[CodegenOptions]) -> bool:
    """Whether user options leave room for a guarded dual schedule.

    Explicitly requested runtime checks, vectorization, or a
    non-python backend all pin the emission shape; the guarded kernel
    only replaces the *auto-chosen* checked path (``parallel`` rides
    along — the fast path is where it can actually engage).
    """
    if options is None:
        return True
    return not (options.bounds_checks or options.collision_checks
                or options.empties_check or options.vectorize
                or options.backend != "python")


def _unproven_guard_dims(
    sub_report, need_injective: bool = True
) -> Dict[int, Dict[int, str]]:
    """Indirect dims whose index array is not fully statically proven.

    These are the store dimensions that need exact-int guards when the
    kernel runs with per-write checks (an unverified cell could hold a
    float or bool).  Accumulated stores pass ``need_injective=False``:
    duplicates are their semantics, so a static *bounded* proof alone
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


def _compile_array_traced(
    src,
    params: Optional[Dict[str, int]],
    options: Optional[CodegenOptions],
    force_strategy: Optional[str],
    index_comps: Optional[Dict[str, ArrayComp]] = None,
) -> CompiledComp:
    report = analyze(src, params, index_comps=index_comps)
    if options is not None and options.vectorize:
        # §8.2/§10 extension: interchange perfect nests whose inner
        # loop carries a dependence but whose outer loop does not, so
        # the vectorizer finds a dependence-free innermost loop.
        # Monolithic semantics make any loop permutation meaning-
        # preserving; only the analysis must be redone.
        from repro.core.interchange import interchange, plan_interchanges
        from repro.core.schedule import schedule_comp as _schedule

        proposals = plan_interchanges(report.comp, report.edges)
        if proposals:
            with span("interchange"):
                for outer in proposals:
                    interchange(report.comp, outer)
                report.edges = flow_edges(report.comp)
                report.schedule = _schedule(report.comp, report.edges)
                report.vectorizable = _vectorizable_loops(
                    report.comp, report.edges
                )
            report.notes.append(
                "interchanged "
                + ", ".join(f"loops around {p.var}" for p in proposals)
                + " to expose a vectorizable innermost loop"
            )
    if report.collision.status == CERTAIN:
        witnesses = [
            f for f in report.collision.findings if f.status == CERTAIN
        ]
        raise CompileError(
            "write collision is certain: "
            + "; ".join(str(f) for f in witnesses)
        )

    # Indirect writes: when the schedule is safe but collision/empties
    # stay inconclusive *only* because an index array's properties are
    # runtime-verifiable, emit the guarded dual-schedule kernel — an
    # O(n) verifier picks the unchecked (optionally parallel) fast
    # path or the fully checked serial fallback at call time.
    sub = report.subscripts
    guard = None
    static_discharged = False
    unproven_dims: Dict[int, Dict[int, str]] = {}
    if sub is not None and sub.has_indirect:
        unproven_dims = _unproven_guard_dims(sub)
        if (report.schedule.ok and force_strategy is None
                and _guard_compatible(options)):
            from repro.core.subscripts_indirect import plan_guard

            with span("subscript-guard"):
                guard = plan_guard(report.comp, sub, params,
                                   mode="scatter")
            if guard is not None and not guard.verify:
                # Every property proven statically: the collision and
                # empties analyses already came back NONE, so the
                # plain thunkless path elides the checks outright.
                static_discharged = True
                guard = None
    guarded = guard is not None
    if guarded:
        sub.guarded = True
        sub.guard = guard
        names = ", ".join(sorted(s.array for s in guard.verify))
        sub.decisions.append((
            "guarded kernel", "accepted",
            f"runtime verifier over {names} picks the unchecked fast "
            "schedule or the checked serial fallback per call",
        ))
        report.notes.append(
            f"guarded dual-schedule kernel: O(n) runtime verifier "
            f"over {names} elides per-write checks on the fast path"
        )
    elif static_discharged:
        sub.decisions.append((
            "static proof", "accepted",
            "every subscript property proven statically; the plain "
            "unchecked schedule needs no runtime verifier",
        ))
        report.notes.append(
            "indirect subscripts statically proven injective and "
            "bounded: unchecked scatter, no runtime verifier"
        )
    elif sub is not None and sub.has_indirect and report.schedule.ok \
            and force_strategy is None and _guard_compatible(options):
        sub.decisions.append((
            "guarded kernel", "rejected",
            "no sound guard plan (opaque inner subscripts, unknown "
            "static ranges, or multi-dimension index use); per-write "
            "checks compiled instead",
        ))

    if options is None:
        if guarded:
            options = CodegenOptions()
        else:
            options = CodegenOptions(
                bounds_checks=False,
                collision_checks=report.collision.checks_needed,
                empties_check=report.empties.checks_needed,
            )
            if report.collision.checks_needed:
                report.notes.append(
                    "runtime collision checks compiled (analysis "
                    "inconclusive)"
                )
            if report.empties.checks_needed:
                report.notes.append(
                    "runtime empties check compiled (analysis "
                    "inconclusive)"
                )
            if unproven_dims:
                # An unverified index array can hold out-of-range or
                # non-int values; unchecked stores would wrap Python
                # list indices silently or crash with a raw error.
                options.bounds_checks = True
                report.notes.append(
                    "indirect subscripts without a guard plan: "
                    "runtime bounds + exact-int checks compiled on "
                    "every indirect store"
                )
    report.checks = options

    strategy = force_strategy
    if strategy is None:
        if guarded:
            strategy = "guarded"
        else:
            strategy = "thunkless" if report.schedule.ok else "thunked"
        for failure in report.schedule.failures:
            report.notes.append(f"thunk fallback: {failure}")
    elif strategy == "thunkless" and not report.schedule.ok:
        raise CompileError(
            "cannot force thunkless code: " + "; ".join(
                report.schedule.failures
            )
        )
    report.strategy = strategy

    from repro.codegen.exprs import CodegenError

    tiling = None
    if options.tile is not None:
        from repro.core.tiling import plan_tiling

        with span("tiling"):
            tiling = plan_tiling(
                report.schedule, report.edges, mode=strategy,
                tile=options.tile, options=options,
            )
        report.tiling = tiling
        if tiling.ok:
            report.notes.append(f"tiled: {tiling.summary()}")
        else:
            report.notes.append(f"tile fallback: {tiling.note}")
            tiling = None

    parallel_plan = None
    if options.parallel:
        if strategy in ("thunkless", "guarded"):
            from repro.core.parallel import plan_parallelism

            parallel_plan = plan_parallelism(
                report.comp, report.edges, report.parallelism,
                subscripts=sub,
            )
            for entry in parallel_plan.clauses:
                if entry.kind == "sequential":
                    report.parallel.append(entry.describe())
            report.notes.append(
                "parallel backend requested (paper §10 executed): "
                "wavefront nests sweep anti-diagonals, dep-free loops "
                "run as slices or thread chunks"
            )
        else:
            report.notes.append(
                "parallel backend inapplicable: the thunked fallback "
                "has no static schedule to parallelize"
            )

    try:
        with span("codegen"):
            if strategy == "guarded":
                source = lower(LoweringJob(
                    mode="guarded", comp=report.comp,
                    options=options, schedule=report.schedule,
                    params=params, edges=report.edges,
                    parallel_plan=parallel_plan,
                    parallel_log=report.parallel,
                    empties_needed=report.empties.checks_needed,
                    subscripts=guard,
                ), report)
            elif strategy == "thunkless":
                job_guard = None
                if unproven_dims:
                    from repro.core.subscripts_indirect import GuardPlan

                    job_guard = GuardPlan(
                        verify=(), mode="scatter",
                        indirect_dims=unproven_dims,
                    )
                source = lower(LoweringJob(
                    mode="thunkless", comp=report.comp,
                    options=options, schedule=report.schedule,
                    params=params, edges=report.edges,
                    parallel_plan=parallel_plan,
                    parallel_log=report.parallel,
                    empties_needed=report.empties.checks_needed,
                    subscripts=job_guard,
                    tiling=tiling,
                ), report)
                if options.vectorize:
                    report.notes.append(
                        "vectorization requested (paper §10): "
                        "qualifying innermost loops emitted as numpy "
                        "slices"
                    )
            elif strategy == "thunked":
                source = lower(LoweringJob(
                    mode="thunked", comp=report.comp,
                    options=options, params=params,
                ), report)
            else:
                raise CompileError(f"unknown strategy {strategy!r}")
    except CodegenError as exc:
        raise CompileError(f"cannot generate code: {exc}") from exc
    with span("exec"):
        return CompiledComp(source, report)


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


def _compile_bigupd(
    src,
    params: Optional[Dict[str, int]] = None,
    options: Optional[CodegenOptions] = None,
) -> CompiledComp:
    """Compile the paper's §9 ``bigupd a svpairs`` construct directly.

    Sugar over the in-place path: the updated array's name
    is read from the ``bigupd`` application and its bounds are taken
    from the input array at run time.  ``bigupd`` semantics — all reads
    see the *original* values — is exactly the anti-dependence model,
    so node-splitting (or the whole-copy fallback) preserves it while
    mutating in place.
    """
    expr = _parse(src)
    old_name, pairs_ast = find_bigupd(expr)
    return _compile_inplace_parts(
        "", None, pairs_ast, old_name, params, options
    )


def _compile_accum_array(
    src,
    params: Optional[Dict[str, int]] = None,
    options: Optional[CodegenOptions] = None,
    index_comps: Optional[Dict[str, ArrayComp]] = None,
) -> CompiledComp:
    """Compile ``accumArray f init bounds pairs`` (§3/§7 extension).

    A commutative-associative combiner (recognized ``+``, ``*``,
    ``min``, ``max`` shapes) leaves the scheduler free; any other
    combiner makes colliding writes *ordered* output dependences, so
    the loops replay the pair list in source order (the fold order).
    An unrecognized combiner expression is compiled as an environment
    call when it is a plain variable, otherwise rejected.
    """
    with trace_scope("compile") as scope:
        compiled = _compile_accum_traced(src, params, options, index_comps)
    compiled.report.trace = scope
    compiled.report.timings = span_timings(scope)
    return compiled


def _compile_accum_traced(
    src,
    params: Optional[Dict[str, int]],
    options: Optional[CodegenOptions],
    index_comps: Optional[Dict[str, ArrayComp]] = None,
) -> CompiledComp:
    from repro.codegen.exprs import CodegenError
    from repro.core.accum import (
        classify_combiner,
        find_accum_array,
        reordering_allowed,
        source_schedule,
    )

    with span("parse"):
        expr = _parse(src)
        try:
            name, f_ast, init_ast, bounds_ast, pairs_ast = \
                find_accum_array(expr)
        except ValueError as exc:
            raise CompileError(str(exc)) from exc
    with span("build"):
        comp = build_array_comp(name, bounds_ast, pairs_ast, params)
    kind, op = classify_combiner(f_ast)

    if kind == "commutative":
        combine = op
    elif isinstance(f_ast, ast.Var):
        combine = ("env", f_ast.name)
    elif isinstance(f_ast, ast.Lam) and len(f_ast.params) == 2:
        combine = ("lambda", f_ast)
    else:
        raise CompileError(
            "combining function must be a two-parameter lambda or a name"
        )

    with span("subscripts"):
        from repro.core.subscripts_indirect import analyze_subscripts

        sub = analyze_subscripts(comp, params, index_comps)
    with span("collisions"):
        collision = analyze_collisions(
            comp, injective=sub.static_injective, params=params
        )
        empties = analyze_empties(
            comp, collision, bounded=sub.static_bounded, params=params
        )
    with span("dependence"):
        edges = flow_edges(comp) if comp.name else []

    with span("schedule"):
        if reordering_allowed(comp, kind):
            schedule = schedule_comp(comp, edges)
            strategy_note = "reorderable (commutative or collision-free)"
        else:
            schedule = source_schedule(comp)
            strategy_note = "source order preserved (ordered combiner)"
    if not schedule.ok:
        raise CompileError(
            "cannot schedule accumulated array: "
            + "; ".join(schedule.failures)
        )

    with span("parallelism"):
        report = _base_report(comp, collision, empties, edges, schedule)
    report.strategy = "accumulate"
    report.subscripts = sub

    if options is not None and options.tile is not None:
        from repro.core.tiling import TilePlan

        report.tiling = TilePlan(
            ok=False,
            note="accumulated arrays fold colliding stores in source "
                 "order; tiling would re-associate the float combine",
        )
        report.notes.append(f"tile fallback: {report.tiling.note}")

    # Indirect accumulation (histograms): duplicates are semantics, so
    # only bounds and int-ness of the index array are at stake.  A
    # static bounded proof elides even those; otherwise the guarded
    # kernel verifies bounds once per call, and failing that every
    # store runs checked.
    guard = None
    static_discharged = False
    unproven_dims: Dict[int, Dict[int, str]] = {}
    if sub.has_indirect:
        unproven_dims = _unproven_guard_dims(sub, need_injective=False)
        if _guard_compatible(options):
            from repro.core.subscripts_indirect import plan_guard

            with span("subscript-guard"):
                guard = plan_guard(comp, sub, params, mode="accum")
            if guard is not None and not guard.verify:
                static_discharged = True
                guard = None
    guarded = guard is not None
    if guarded:
        sub.guarded = True
        sub.guard = guard
        names = ", ".join(sorted(s.array for s in guard.verify))
        sub.decisions.append((
            "guarded kernel", "accepted",
            f"histogram fast path: runtime bounds verifier over "
            f"{names} elides per-store checks",
        ))
        report.notes.append(
            f"guarded accumulation: O(n) bounds verifier over {names} "
            "elides per-store checks on the fast path"
        )
    elif static_discharged:
        sub.decisions.append((
            "static proof", "accepted",
            "index array statically bounded; accumulation needs no "
            "runtime verifier",
        ))
        report.notes.append(
            "indirect accumulation statically bounded: unchecked "
            "stores, no runtime verifier"
        )
    if options is None:
        options = CodegenOptions()
        if unproven_dims and not guarded:
            options.bounds_checks = True
            report.notes.append(
                "indirect accumulation without a guard plan: runtime "
                "bounds + exact-int checks compiled on every store"
            )
    report.checks = options
    report.notes += [f"combiner: {kind}" + (f" ({op})" if op else ""),
                     strategy_note]
    if options.parallel:
        report.notes.append(
            "parallel backend inapplicable: accumulated arrays "
            "combine element-wise in schedule order"
        )
    try:
        with span("codegen"):
            if guarded:
                source = lower(LoweringJob(
                    mode="guarded", comp=comp, options=options,
                    schedule=schedule, params=params,
                    combine=combine, init_ast=init_ast,
                    subscripts=guard,
                ), report)
            else:
                job_guard = None
                if unproven_dims:
                    from repro.core.subscripts_indirect import GuardPlan

                    job_guard = GuardPlan(
                        verify=(), mode="accum",
                        indirect_dims=unproven_dims,
                    )
                source = lower(LoweringJob(
                    mode="accum", comp=comp, options=options,
                    schedule=schedule, params=params,
                    combine=combine, init_ast=init_ast,
                    subscripts=job_guard,
                ), report)
    except CodegenError as exc:
        raise CompileError(f"cannot generate code: {exc}") from exc
    with span("exec"):
        return CompiledComp(source, report)


def _compile_array_inplace(
    src,
    old_array: str,
    params: Optional[Dict[str, int]] = None,
    options: Optional[CodegenOptions] = None,
) -> CompiledComp:
    """Compile a definition to run in the storage of ``old_array`` (§9).

    The definition's reads of ``old_array`` become anti dependences;
    reads of the array's own name (if recursive) stay flow
    dependences.  Node-splitting temporaries are inserted exactly where
    the anti dependences demand; if the stencil model does not apply,
    the whole-copy fallback is generated (and noted in the report).
    """
    expr = _parse(src)
    name, bounds_ast, pairs_ast = find_array_comp(expr)
    return _compile_inplace_parts(
        name, bounds_ast, pairs_ast, old_array, params, options
    )


def _compile_inplace_parts(
    name: str,
    bounds_ast,
    pairs_ast,
    old_array: str,
    params: Optional[Dict[str, int]],
    options: Optional[CodegenOptions],
) -> CompiledComp:
    with trace_scope("compile") as scope:
        compiled = _compile_inplace_traced(
            name, bounds_ast, pairs_ast, old_array, params, options
        )
    compiled.report.trace = scope
    compiled.report.timings = span_timings(scope)
    return compiled


def _compile_inplace_traced(
    name: str,
    bounds_ast,
    pairs_ast,
    old_array: str,
    params: Optional[Dict[str, int]],
    options: Optional[CodegenOptions],
) -> CompiledComp:
    with span("build"):
        comp = build_array_comp(name, bounds_ast, pairs_ast, params)
    with span("collisions"):
        collision = analyze_collisions(comp)
        empties = analyze_empties(comp, collision)
    if collision.status == CERTAIN:
        raise CompileError("write collision is certain")

    with span("dependence"):
        flow = flow_edges(comp) if comp.name else []
        anti = anti_edges(comp, old_array)
        edges = flow + anti
    with span("schedule"):
        schedule = schedule_comp(comp, edges, allow_node_splitting=True)
    with span("parallelism"):
        report = _base_report(comp, collision, empties, edges, schedule,
                              flow=flow)
    if not schedule.ok:
        raise CompileError(
            "cannot schedule in-place update: "
            + "; ".join(schedule.failures)
        )
    with span("inplace-plan"):
        plan = plan_inplace(
            comp,
            old_array,
            schedule.clause_directions(),
            schedule.clause_positions(),
        )
    report.inplace_plan = plan
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
    report.checks = options or CodegenOptions()
    from repro.codegen.exprs import CodegenError

    tiling = None
    if report.checks.tile is not None:
        from repro.core.tiling import plan_tiling

        # Whole-copy updates read every old value from the frozen
        # copy, so the anti edges the copy satisfies do not constrain
        # the tile order; only flow (self-name) edges remain live.
        live_edges = flow if plan.mode == "whole_copy" else edges
        with span("tiling"):
            tiling = plan_tiling(
                schedule, live_edges, mode="inplace",
                tile=report.checks.tile, inplace_plan=plan,
                options=report.checks,
            )
        report.tiling = tiling
        if tiling.ok:
            report.notes.append(f"tiled: {tiling.summary()}")
        else:
            report.notes.append(f"tile fallback: {tiling.note}")
            tiling = None

    try:
        with span("codegen"):
            source = lower(LoweringJob(
                mode="inplace", comp=comp, options=report.checks,
                schedule=schedule, params=params, plan=plan,
                old_array=plan.old_array, tiling=tiling,
            ), report)
    except CodegenError as exc:
        raise CompileError(f"cannot generate code: {exc}") from exc
    with span("exec"):
        return CompiledComp(source, report)


# ----------------------------------------------------------------------
# The unified facade (and the deprecated per-mode wrappers).

#: Strategies the facade accepts.
STRATEGIES = ("auto", "array", "inplace", "bigupd", "accum")


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
        ``vectorize``, ``parallel``); ``None`` lets the pipeline pick
        runtime checks from its own analysis.
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
        vectorize/parallel decision was taken or rejected.
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
    if isinstance(src, str):
        from repro.program.compile import as_program

        program = as_program(src)
        if program is not None:
            if (strategy == "auto" and old_array is None
                    and force_strategy is None):
                from repro.program.compile import compile_program

                return compile_program(src, params=params,
                                       options=options, cache=cache,
                                       dist=dist, workers=workers,
                                       ooc=ooc)
            raise CompileError(
                "source is a multi-binding program (bindings "
                + ", ".join(repr(b.name) for b in program)
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
    if options is not None and options.parallel \
            and resolved in ("inplace", "bigupd"):
        raise CompileError(
            "the parallel backend cannot target in-place updates "
            f"(strategy {resolved!r}): wavefront/dep-free slices read "
            "immutable numpy views, but the input buffer is mutated "
            "in place; drop parallel or compile monolithically"
        )

    if cache is not None and cache is not False:
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

        return resolve_cache(cache).submit(CompileRequest(
            src, params, options, force_strategy, resolved, old_array,
            kind="definition",
        )).value()

    if resolved == "array":
        return _compile_array(src, params, options, force_strategy,
                              index_comps)
    if resolved == "inplace":
        return _compile_array_inplace(src, old_array, params, options)
    if resolved == "bigupd":
        return _compile_bigupd(src, params, options)
    return _compile_accum_array(src, params, options, index_comps)


def _deprecated(old_name: str, hint: str) -> None:
    warnings.warn(
        f"{old_name}() is deprecated; use repro.compile({hint})",
        DeprecationWarning,
        stacklevel=3,
    )


def compile_array(
    src,
    params: Optional[Dict[str, int]] = None,
    options: Optional[CodegenOptions] = None,
    force_strategy: Optional[str] = None,
    cache=None,
) -> CompiledComp:
    """Deprecated: use :func:`compile` (``strategy="array"``)."""
    _deprecated("compile_array", "src, strategy='array'")
    return compile(src, strategy="array", params=params, options=options,
                   force_strategy=force_strategy, cache=cache)


def compile_array_inplace(
    src,
    old_array: str,
    params: Optional[Dict[str, int]] = None,
    options: Optional[CodegenOptions] = None,
) -> CompiledComp:
    """Deprecated: use :func:`compile` (``strategy="inplace"``)."""
    _deprecated("compile_array_inplace",
                "src, strategy='inplace', old_array=...")
    return compile(src, strategy="inplace", old_array=old_array,
                   params=params, options=options)


def compile_bigupd(
    src,
    params: Optional[Dict[str, int]] = None,
    options: Optional[CodegenOptions] = None,
) -> CompiledComp:
    """Deprecated: use :func:`compile` (``strategy="bigupd"``)."""
    _deprecated("compile_bigupd", "src, strategy='bigupd'")
    return compile(src, strategy="bigupd", params=params, options=options)


def compile_accum_array(
    src,
    params: Optional[Dict[str, int]] = None,
    options: Optional[CodegenOptions] = None,
) -> CompiledComp:
    """Deprecated: use :func:`compile` (``strategy="accum"``)."""
    _deprecated("compile_accum_array", "src, strategy='accum'")
    return compile(src, strategy="accum", params=params, options=options)
