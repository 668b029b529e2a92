"""Whole-program compilation: binding list -> executable pipeline.

The single-definition pipeline (:func:`repro.core.pipeline.compile`)
treats one array comprehension as the compilation unit.  This module
widens the unit to a full ``parse_program`` binding list:

1. the inter-binding dependence graph is scheduled topologically
   (:mod:`repro.core.liveness`), with a loud cycle diagnostic;
2. each binding compiles with the strategy its shape calls for, and
   liveness threads ``old_array=`` automatically when a producer array
   is provably dead after its last consumer — the paper's §9 in-place
   reasoning extended across statements;
3. ``iterate``/``converge`` bindings compile their step function once
   and drive it with true in-place sweeps (Gauss-Seidel/SOR) or
   double-buffer swapping (Jacobi);
4. every decision — schedule, reuse edge, elided copy, fallback —
   lands in the :class:`~repro.program.report.ProgramReport`.

The correctness bar is the lazy oracle: a compiled program must be
bit-identical to :func:`repro.interp.run_program` on the same source.
That is why storage reuse is gated on *proofs* (liveness, static
bounds equality, totality of the comprehension) and why every
rejection is recorded instead of silently degrading.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import Dict, List, Optional, Sequence, Set

from repro.codegen.emit import CodegenError, CodegenOptions
from repro.comprehension.build import BuildError, find_array_comp
from repro.core import pipeline
from repro.core.dependence import dependence_memo
from repro.core.fusion import wrap_binding
from repro.core.liveness import (
    ProgramCycleError,
    dependence_graph,
    last_uses,
    reachable,
    topo_order,
)
from repro.core.pipeline import CompileError
from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.parser import Parser, parse_program
from repro.obs.trace import count, span, span_timings, trace_scope
from repro.program.iterate import (
    IterateShapeError,
    IterateSpec,
    find_iterate,
)
from repro.program.report import (
    BindingInfo,
    FusedChain,
    ProgramReport,
    ReuseEdge,
)
from repro.program.run import CompiledProgram, IteratePlan, ProgramStep


def classify_source(src, kind: str = "auto"):
    """Parse ``src`` once and say what it is: ``(kind, tree)``.

    ``kind="auto"`` tokenizes once and tries the expression grammar,
    then the binding-list grammar over the same tokens: an expression
    is a ``"definition"``, a binding list a ``"program"``.  A source
    that is neither is a definition, so the expression parser's
    :class:`ParseError` is raised.  An explicit kind parses with its
    own grammar only.  Parsed input passes through (a binding list is
    a program).
    """
    kind = kind or "auto"
    if kind not in ("auto", "definition", "program"):
        raise ValueError(
            f"unknown request kind {kind!r} (expected 'auto', "
            "'definition', or 'program')"
        )
    if not isinstance(src, str):
        if kind == "auto":
            kind = "program" if isinstance(src, list) else "definition"
        return kind, src
    parser = Parser(src)
    if kind == "program":
        return kind, parser.parse_program()
    try:
        return "definition", parser.parse_expression()
    except ParseError as exc:
        if kind == "definition":
            raise
        error = exc
    parser.pos = 0
    try:
        return "program", parser.parse_program()
    except ParseError:
        raise error from None


def as_program(src) -> Optional[List[ast.Binding]]:
    """The binding list when ``src`` is program text, else ``None``
    (:func:`classify_source` on a string; a parse error is ``None``)."""
    if not isinstance(src, str):
        return None
    try:
        kind, tree = classify_source(src)
    except ParseError:
        return None
    return tree if kind == "program" else None


def compile_program(
    src,
    *,
    params: Optional[Dict[str, int]] = None,
    options=None,
    cache=None,
    result: Optional[str] = None,
    fuse: bool = True,
    dist: bool = False,
    workers: int = 0,
    ooc: bool = False,
) -> CompiledProgram:
    """Compile a whole program (string or parsed binding list).

    Parameters
    ----------
    params:
        Size parameters, folded into every per-binding compilation and
        stored on the result (the runtime environment inherits them).
    options:
        :class:`~repro.codegen.emit.CodegenOptions` applied to every
        compiled binding; ``None`` is ``CodegenOptions()``.
    cache:
        Route through the compile service (``True``, a directory path,
        or a :class:`~repro.service.service.CompileService`).
    result:
        The binding whose value the program returns; defaults to
        ``main`` when defined, else the last binding.
    fuse:
        Cross-binding loop fusion (default on): a dead single-consumer
        producer comprehension whose reads are all provably distance
        zero after loop alignment is inlined into its consumer and
        never allocated.  ``False`` compiles every binding separately
        (the pre-fusion behavior; the unfused baseline in benchmarks).
    dist / workers:
        Distributed execution (:mod:`repro.dist`): plan every
        ``iterate``/``converge`` binding for block-partitioned sweeps
        over ``workers`` processes.  ``workers=0`` with ``dist=True``
        takes the machine's CPU count.  Bindings the planner rejects
        run single-process with the reason in
        ``ProgramReport.fallbacks`` (``dist`` prefix) and the plans in
        ``ProgramReport.dist``.
    ooc:
        Out-of-core streaming (:mod:`repro.program.outofcore`): plan
        every ``iterate``/``converge`` binding to sweep row tiles
        kept in spill files through RAM halo-window and destination
        buffers, bounding resident memory by the tile
        (``options.tile`` sets the rows per tile) instead of the
        array.  Rejected bindings run the in-memory sweeps with the
        reason in ``ProgramReport.fallbacks`` (``ooc`` prefix).
    """
    if cache is not None and cache is not False:
        from repro.service.api import CompileRequest
        from repro.service.service import resolve_cache

        return resolve_cache(cache).submit(CompileRequest(
            src, params, options, kind="program", result=result,
            fuse=fuse, dist=dist, workers=workers, ooc=ooc,
        )).value()
    if dist and workers <= 0:
        import os

        workers = os.cpu_count() or 1
    if not dist:
        workers = 0
    options = CodegenOptions.of(options)

    with trace_scope("compile-program") as scope, dependence_memo():
        program = _compile_program_traced(src, params, options, result,
                                          fuse, dist, workers, ooc)
    program.report.trace = scope
    program.report.timings = span_timings(scope)
    return program


def _compile_program_traced(src, params, options, result, fuse=True,
                            dist=False, workers=0,
                            ooc=False) -> CompiledProgram:
    with span("parse"):
        binds = parse_program(src) if isinstance(src, str) else list(src)
    if not binds:
        raise CompileError("empty program: no bindings to compile")
    _reject_duplicates(binds)
    by_name = {bind.name: bind for bind in binds}
    if result is None:
        result = "main" if "main" in by_name else binds[-1].name
    elif result not in by_name:
        raise CompileError(
            f"result binding {result!r} is not defined; the program "
            "defines " + ", ".join(repr(b.name) for b in binds)
        )

    kinds, extras = _classify_all(binds)
    with span("liveness"):
        graph = dependence_graph(binds)
        try:
            order = topo_order(binds, graph)
        except ProgramCycleError as exc:
            raise CompileError(str(exc)) from exc

    fusion_edges: List[tuple] = []
    fusion_rejects: Dict[tuple, str] = {}
    if fuse:
        with span("fusion"):
            binds, fusion_edges, fusion_rejects = _fusion_pass(
                binds, kinds, extras, result, params
            )
        if fusion_edges:
            by_name = {bind.name: bind for bind in binds}
            graph = dependence_graph(binds)
            order = topo_order(binds, graph)
    count("program.fused", len(fusion_edges))

    live = reachable(graph, result)
    schedule = [name for name in order if name in live]
    last = last_uses(schedule, graph)
    protected = _protected_names(result, schedule, kinds, extras, by_name)

    report = ProgramReport(order=list(schedule), result=result)
    requested_backend = options.backend
    if requested_backend != "python":
        report.notes.append(
            f"backend {requested_backend!r} requested: each compiled "
            "binding lowers natively where supported (see the "
            "per-binding reports for fallbacks)"
        )
    final_names = set(by_name)
    for (consumer, producer), reason in fusion_rejects.items():
        if consumer != "*" and consumer not in final_names:
            continue
        label = (f"fuse {producer} rejected" if consumer == "*"
                 else f"fuse {consumer}<-{producer} rejected")
        report.fallbacks.append(f"{label}: {reason}")
    report.fused.extend(_fusion_chains(fusion_edges))
    for producer, consumer, cells, reads in fusion_edges:
        report.elided.append(
            f"allocation of {cells} cells for {producer!r} elided: "
            f"fused into {consumer!r} (never materialized)"
        )
        report.bindings.append(BindingInfo(
            name=producer, kind="fused",
            detail=f"inlined into {consumer!r} (distance-zero reads "
                   "only; the intermediate array never materializes)",
        ))
    for name in order:
        if name not in live:
            report.bindings.append(BindingInfo(
                name=name, kind="skipped",
                detail="dead code: never reaches the result (the lazy "
                       "oracle never forces it either)",
            ))
            report.notes.append(
                f"dead code: binding {name!r} never reaches result "
                f"{result!r} — skipped"
            )

    state = _CompileState(
        by_name=by_name, kinds=kinds, extras=extras, graph=graph,
        last=last, protected=protected, params=params, options=options,
        report=report, dist=dist, workers=workers, ooc=ooc,
        index_users=_index_array_names(binds),
    )
    steps = []
    for name in schedule:
        with span(f"binding:{name}"):
            steps.append(state.compile_binding(name))
    count("program.bindings", len(schedule))
    count("program.reuse.accepted", len(report.reuse_edges))
    count("program.reuse.rejected", len([
        entry for entry in report.fallbacks
        if not entry.startswith("fuse ")
    ]))
    count("program.fusion.rejected", len([
        entry for entry in report.fallbacks
        if entry.startswith("fuse ")
    ]))
    return CompiledProgram(steps, report, params)


# ----------------------------------------------------------------------
# Binding classification.


def _sweep_driver(report, native: bool) -> str:
    """Where an in-place step's sweeps run, and why."""
    if native:
        return "all sweeps run in one native call (the step lowered to C)"
    why = "; ".join(report.backend) or "the python backend was requested"
    return ("sweeps run in the Python driver (the step lowered to "
            f"python: {why})")


def _index_array_names(binds: Sequence[ast.Binding]) -> Set[str]:
    """Names whose *cells* become subscripts somewhere in the program.

    ``p`` in ``a!(p!i) := v`` (scatter destination) or ``x!(col!k)``
    (gather).  Their cells must stay exact python ints: the C tier
    computes all-integer kernels in double, and a double cannot index.
    """
    names: Set[str] = set()

    def scan(sub: ast.Node) -> None:
        for node in sub.walk():
            if isinstance(node, ast.Index) and isinstance(node.arr, ast.Var):
                names.add(node.arr.name)

    for bind in binds:
        for node in bind.expr.walk():
            if isinstance(node, ast.SVPair):
                scan(node.sub)
            elif isinstance(node, ast.Index):
                scan(node.idx)
    return names


def _reject_duplicates(binds: Sequence[ast.Binding]) -> None:
    names = [bind.name for bind in binds]
    dupes = sorted({name for name in names if names.count(name) > 1})
    if dupes:
        raise CompileError(
            "duplicate binding(s) "
            + ", ".join(repr(d) for d in dupes)
            + ": each top-level name may be defined once"
        )


def _classify(bind: ast.Binding):
    """``(kind, extra)`` for one binding.

    ``extra`` carries the :class:`IterateSpec` for iterate bindings,
    the alias target for aliases, and the updated array's name for
    ``bigupd`` bindings.
    """
    expr = bind.expr
    try:
        spec = find_iterate(expr)
    except IterateShapeError as exc:
        raise CompileError(f"binding {bind.name!r}: {exc}") from exc
    if spec is not None:
        return "iterate", spec
    if isinstance(expr, ast.Lam):
        return "function", None
    if isinstance(expr, ast.Var):
        return "alias", expr.name
    try:
        old_name, _ = pipeline.find_bigupd(expr)
        return "bigupd", old_name
    except CompileError:
        pass
    from repro.core.accum import find_accum_array

    try:
        find_accum_array(expr)
        return "accum", None
    except ValueError:
        pass
    try:
        find_array_comp(expr)
        return "array", None
    except BuildError:
        return "scalar", None


def _classify_all(binds: Sequence[ast.Binding]):
    kinds: Dict[str, str] = {}
    extras: Dict[str, object] = {}
    for bind in binds:
        kinds[bind.name], extras[bind.name] = _classify(bind)
    return kinds, extras


def _protected_names(result, schedule, kinds, extras, by_name) -> Set[str]:
    """Names whose storage must survive: the result (through aliases)
    plus both ends of every live alias (they share one buffer)."""
    protected: Set[str] = set()
    node = result
    while node not in protected:
        protected.add(node)
        if kinds.get(node) == "alias" and extras[node] in by_name:
            node = extras[node]
        else:
            break
    for name in schedule:
        if kinds.get(name) == "alias":
            protected.add(name)
            protected.add(extras[name])
    return protected


# ----------------------------------------------------------------------
# Cross-binding loop fusion (dependence-driven deforestation).


def _fusion_pass(binds, kinds, extras, result, params):
    """Greedy topological fusion to a fixpoint.

    Repeatedly finds a live producer comprehension with exactly one
    live consumer, dead afterwards and legal to inline
    (:func:`repro.core.fusion.plan_fusion`), rewrites the consumer with
    the producer's value substituted
    (:func:`repro.comprehension.fuse.inline_producer`), and drops the
    producer from the binding list — so a 3-stage pointwise chain
    collapses into one loop nest.  Returns ``(binds, edges, rejects)``
    where ``edges`` are ``(producer, consumer, cells, reads)`` tuples
    in application order and ``rejects`` maps candidate pairs to the
    reason fusion was refused (every rejection is reasoned, like the
    §9 reuse gates).
    """
    from repro.comprehension.fuse import FuseError, inline_producer
    from repro.core.fusion import FusionReject, plan_fusion

    binds = list(binds)
    edges: List[tuple] = []
    rejects: Dict[tuple, str] = {}
    while True:
        by_name = {bind.name: bind for bind in binds}
        graph = dependence_graph(binds)
        try:
            order = topo_order(binds, graph)
        except ProgramCycleError:
            break  # the main path re-runs and raises the diagnostic
        live = reachable(graph, result)
        schedule = [name for name in order if name in live]
        last = last_uses(schedule, graph)
        protected = _protected_names(result, schedule, kinds, extras,
                                     by_name)
        applied = False
        for producer in schedule:
            pkind = kinds.get(producer)
            if pkind not in ("array", "bigupd", "accum", "iterate"):
                continue
            consumers = [name for name in schedule
                         if producer in graph.get(name, ())]
            if not consumers:
                continue
            if len(consumers) > 1:
                rejects[("*", producer)] = (
                    f"{producer!r} has {len(consumers)} live consumers "
                    f"({', '.join(sorted(consumers))}) — fusing would "
                    "recompute it per consumer, so it must materialize"
                )
                continue
            consumer = consumers[0]
            key = (consumer, producer)
            if kinds.get(consumer) != "array":
                rejects[key] = (
                    f"consumer {consumer!r} is not a plain array "
                    f"comprehension (kind {kinds.get(consumer)!r})"
                )
                continue
            if pkind != "array":
                rejects[key] = (
                    f"producer {producer!r} is a {pkind} binding — "
                    "update-in-place/accumulation/convergence "
                    "semantics cannot be inlined into a consumer "
                    "clause"
                )
                continue
            if producer in protected:
                rejects[key] = (
                    f"producer {producer!r} is (an alias of) the "
                    f"program result — it stays live after "
                    f"{consumer!r} and must materialize"
                )
                continue
            if last.get(producer) != consumer:
                rejects[key] = (
                    f"producer {producer!r} is still read after "
                    f"{consumer!r} (last reader: "
                    f"{last.get(producer)!r})"
                )
                continue
            try:
                plan = plan_fusion(by_name[producer],
                                   by_name[consumer], params)
                fused = inline_producer(
                    by_name[consumer], producer,
                    plan.producer_clause, plan.clause_plans,
                )
            except (FusionReject, FuseError) as exc:
                rejects[key] = str(exc)
                continue
            binds = [
                fused if bind.name == consumer else bind
                for bind in binds
                if bind.name != producer
            ]
            edges.append((producer, consumer, plan.cells, plan.reads))
            rejects.pop(key, None)
            rejects.pop(("*", producer), None)
            applied = True
            break
        if not applied:
            break
    return binds, edges, rejects


def _fusion_chains(edges) -> List[FusedChain]:
    """Group applied fusion edges into per-host chains for the report."""
    fused_into = {producer: consumer for producer, consumer, _, _ in edges}
    chains: Dict[str, FusedChain] = {}
    hosts: List[str] = []
    for producer, consumer, cells, reads in edges:
        host = consumer
        while host in fused_into:
            host = fused_into[host]
        chain = chains.get(host)
        if chain is None:
            chain = FusedChain(host=host, members=[])
            chains[host] = chain
            hosts.append(host)
        chain.members.append(producer)
        chain.cells += cells
        chain.reads += reads
    return [chains[host] for host in hosts]


# ----------------------------------------------------------------------
# Per-binding compilation.


class _CompileState:
    """Mutable walk state: what has been produced/consumed so far."""

    def __init__(self, *, by_name, kinds, extras, graph, last, protected,
                 params, options, report: ProgramReport, dist=False,
                 workers=0, ooc=False, index_users=frozenset()):
        self.by_name = by_name
        self.kinds = kinds
        self.extras = extras
        self.graph = graph
        self.last = last
        self.protected = protected
        self.params = params
        #: Out-of-core rows per tile.  On python that is all ``tile=``
        #: means, so the bindings compile without it; a C binding
        #: still blocks its loops by it.
        self.tile = options.tile
        if ooc and self.tile is not None and options.backend == "python":
            options = _dc_replace(options, tile=None)
        self.options = options
        self.report = report
        self.dist = dist
        self.workers = workers
        self.ooc = ooc
        #: Program-allocated arrays eligible as storage donors, with
        #: their static bounds (``None`` bounds disqualifies matching).
        self.produced: Dict[str, object] = {}
        #: Buffers already donated — a buffer is donated at most once.
        self.consumed: Set[str] = set()
        #: Loop IR of already-compiled array bindings, keyed by name.
        #: Later bindings that write through one of these as an index
        #: array (``a!(p!i) := ...``) get its subscript properties
        #: proven *statically* instead of runtime-verified (see
        #: :mod:`repro.core.subscripts_indirect`).
        self.index_comps: Dict[str, object] = {}
        #: Names whose cells subscript a later binding; these must
        #: compile on the python backend (exact int cells).
        self.index_users = index_users

    # -- helpers -------------------------------------------------------

    def _info(self, **kwargs) -> BindingInfo:
        info = BindingInfo(**kwargs)
        self.report.bindings.append(info)
        tiling = getattr(info.report, "tiling", None)
        if tiling is not None and not tiling.ok:
            # Tiling was requested but this binding's nest rejected
            # it; surface the reason at program level too.
            self.report.fallbacks.append(
                f"tile {info.name!r}: {tiling.note}"
            )
        return info

    def _dead_after(self, producer: str, consumer: str) -> bool:
        return (
            producer in self.produced
            and self.last.get(producer) == consumer
            and producer not in self.protected
            and producer not in self.consumed
        )

    def _blocking_reason(self, producer: str, consumer: str) -> str:
        if producer not in self.produced:
            return f"{producer!r} is an external input, not program-allocated"
        if producer in self.consumed:
            return f"{producer!r}'s buffer was already donated"
        if producer in self.protected:
            return f"{producer!r} is (an alias of) the program result"
        return (
            f"{producer!r} is still read after {consumer!r} "
            f"(last reader: {self.last.get(producer)!r})"
        )

    # -- dispatch ------------------------------------------------------

    def compile_binding(self, name: str) -> ProgramStep:
        kind = self.kinds[name]
        bind = self.by_name[name]
        if self.dist and kind != "iterate":
            if kind in ("scalar", "function", "alias"):
                why = (f"{kind} binding evaluates once in the parent "
                       "— nothing to block-partition")
            else:
                why = ("one-shot binding executes once in the parent; "
                       "only iterate/converge sweeps repeat enough to "
                       "amortize block dispatch")
            self.report.fallbacks.append(f"dist {name!r}: {why}")
        if self.ooc and kind != "iterate":
            if kind in ("scalar", "function", "alias"):
                why = (f"{kind} binding evaluates once — nothing to "
                       "stream")
            else:
                why = ("one-shot binding executes once; only iterate/"
                       "converge sweeps repeat enough to amortize "
                       "tile streaming")
            self.report.fallbacks.append(f"ooc {name!r}: {why}")
        if kind == "scalar":
            self._info(name=name, kind="scalar",
                       detail="evaluated by the reference interpreter")
            return ProgramStep(name=name, kind="scalar", expr=bind.expr)
        if kind == "function":
            self._info(name=name, kind="function",
                       detail="closure; callable from compiled bindings")
            return ProgramStep(name=name, kind="function", expr=bind.expr)
        if kind == "alias":
            target = self.extras[name]
            self._info(name=name, kind="alias",
                       detail=f"alias of {target!r} (shares storage; "
                              "both protected from reuse)")
            return ProgramStep(name=name, kind="alias", target=target)
        if kind == "iterate":
            return self._compile_iterate(name, self.extras[name])
        if kind == "bigupd":
            return self._compile_bigupd(name, bind, self.extras[name])
        if kind == "accum":
            return self._compile_accum(name, bind)
        return self._compile_array(name, bind)

    # -- array bindings ------------------------------------------------

    def _note_subscripts(self, name: str, report) -> None:
        """Surface a binding's subscript verdicts at program level."""
        sub = getattr(report, "subscripts", None)
        if sub is None or not getattr(sub, "has_indirect", False):
            return
        for subject, verdict, reason in sub.decisions:
            if verdict in ("fallback", "rejected"):
                self.report.fallbacks.append(
                    f"subscript {name!r}: {subject} — {reason}"
                )
            else:
                self.report.notes.append(
                    f"subscript {name!r}: {subject} — {reason}"
                )

    def _binding_options(self, name: str):
        """Per-binding codegen options.

        A binding whose cells subscript a later binding keeps integer
        cells, because a double cell cannot serve as a list index in
        the consumer's (python-emitted) scatter or gather: it is pinned
        to the python backend (the C tier computes all-integer kernels
        in double) and compiled without ``vectorize`` (vectorized
        cells are float64).
        """
        options = self.options
        if name not in self.index_users:
            return options
        if options.backend != "python":
            self.report.fallbacks.append(
                f"backend {name!r}: stays on python — its cells "
                f"subscript a later binding, and the {options.backend} "
                "tier computes integer kernels in double (a double "
                "cannot index)"
            )
            options = _dc_replace(options, backend="python")
        if options.vectorize:
            self.report.fallbacks.append(
                f"vectorize {name!r}: stays scalar — its cells subscript "
                "a later binding, and vectorized cells are float64 (a "
                "double cannot index)"
            )
            options = _dc_replace(options, vectorize=False)
        return options

    def _compile_array(self, name: str, bind: ast.Binding) -> ProgramStep:
        wrapped = wrap_binding(bind)
        options = self._binding_options(name)
        mono = pipeline.compile(wrapped, strategy="array",
                                params=self.params, options=options,
                                index_comps=self.index_comps or None)
        self.index_comps[name] = mono.report.comp
        self._note_subscripts(name, mono.report)
        bounds = mono.report.comp.bounds
        reused = self._try_reuse(name, wrapped, bounds, options)
        self.produced[name] = bounds
        if reused is not None:
            donor, compiled = reused
            cells = bounds.size() if bounds is not None else 0
            self.report.reuse_edges.append(ReuseEdge(
                consumer=name, producer=donor, via="inplace",
                cells=cells,
            ))
            self.report.elided.append(
                f"allocation of {cells} cells for {name!r} elided: "
                f"writes into {donor!r}'s buffer"
            )
            self.consumed.add(donor)
            self._info(name=name, kind="inplace",
                       strategy=compiled.report.strategy, reuses=donor,
                       report=compiled.report,
                       detail=f"overwrites dead producer {donor!r} (§9 "
                              "across statements)")
            return ProgramStep(name=name, kind="inplace",
                               compiled=compiled, old_array=donor)
        self._info(name=name, kind="array",
                   strategy=mono.report.strategy, report=mono.report,
                   detail="monolithic array definition")
        return ProgramStep(name=name, kind="array", compiled=mono)

    def _try_reuse(self, name: str, wrapped, bounds, options):
        """First dead producer whose storage this binding can take."""
        fallbacks = self.report.fallbacks
        for cand in self.graph[name]:
            if self.kinds.get(cand) in ("function", "scalar", None):
                continue
            if not self._dead_after(cand, name):
                if cand in self.produced and cand not in self.consumed:
                    fallbacks.append(
                        f"reuse {name}<-{cand} rejected: "
                        + self._blocking_reason(cand, name)
                    )
                continue
            if bounds is None or self.produced.get(cand) != bounds:
                fallbacks.append(
                    f"reuse {name}<-{cand} rejected: bounds not "
                    f"statically equal ({self.produced.get(cand)!r} vs "
                    f"{bounds!r})"
                )
                continue
            try:
                compiled = pipeline.compile(
                    wrapped, strategy="inplace", old_array=cand,
                    params=self.params, options=options,
                )
            except CompileError as exc:
                fallbacks.append(
                    f"reuse {name}<-{cand} rejected: in-place "
                    f"compilation failed ({exc})"
                )
                continue
            if compiled.report.strategy != "inplace":
                plan = compiled.report.inplace_plan
                why = plan.reason if plan is not None else "whole copy"
                fallbacks.append(
                    f"reuse {name}<-{cand} rejected: §9 plan fell back "
                    f"to whole-copy ({why})"
                )
                continue
            if compiled.report.empties.checks_needed:
                fallbacks.append(
                    f"reuse {name}<-{cand} rejected: comprehension not "
                    "provably total — stale cells could survive in the "
                    "reused buffer"
                )
                continue
            return cand, compiled
        return None

    # -- bigupd / accum ------------------------------------------------

    def _compile_bigupd(self, name, bind, old_name) -> ProgramStep:
        compiled = pipeline.compile(bind.expr, strategy="bigupd",
                                    params=self.params,
                                    options=self.options)
        dead = self._dead_after(old_name, name)
        self.produced[name] = self.produced.get(old_name)
        if dead:
            old_bounds = self.produced.get(old_name)
            cells = old_bounds.size() if old_bounds is not None else 0
            self.report.reuse_edges.append(ReuseEdge(
                consumer=name, producer=old_name, via="bigupd",
                cells=cells,
            ))
            self.report.elided.append(
                f"bigupd {name!r}: updates {old_name!r} in its own "
                "storage (defensive copy elided)"
            )
            self.consumed.add(old_name)
        else:
            self.report.fallbacks.append(
                f"bigupd {name!r}: copies {old_name!r} before updating "
                "— " + self._blocking_reason(old_name, name)
            )
        self._info(name=name, kind="bigupd",
                   strategy=compiled.report.strategy,
                   reuses=old_name if dead else None,
                   report=compiled.report,
                   detail=("in place into " if dead else
                           "on a private copy of ") + repr(old_name))
        return ProgramStep(name=name, kind="bigupd", compiled=compiled,
                           old_array=old_name, copy_old=not dead)

    def _compile_accum(self, name, bind) -> ProgramStep:
        compiled = pipeline.compile(bind.expr, strategy="accum",
                                    params=self.params,
                                    options=self._binding_options(name),
                                    index_comps=self.index_comps or None)
        self._note_subscripts(name, compiled.report)
        self.produced[name] = compiled.report.comp.bounds
        self._info(name=name, kind="accum",
                   strategy=compiled.report.strategy,
                   report=compiled.report,
                   detail="accumulated array")
        return ProgramStep(name=name, kind="accum", compiled=compiled)

    # -- iterate -------------------------------------------------------

    def _compile_iterate(self, name, spec: IterateSpec) -> ProgramStep:
        fn_bind = self.by_name.get(spec.fn)
        if fn_bind is None or self.kinds.get(spec.fn) != "function":
            raise CompileError(
                f"iterate/converge in binding {name!r}: the step "
                f"{spec.fn!r} must be a program-defined function "
                "binding (so its body compiles once)"
            )
        lam = fn_bind.expr
        if len(lam.params) != 1:
            raise CompileError(
                f"iterate/converge in binding {name!r}: step "
                f"{spec.fn!r} must take the array as its single "
                f"parameter (it takes {len(lam.params)})"
            )
        param = lam.params[0]
        body = lam.body

        compiled, mode, reuse_buffers, why_not_inplace = \
            self._pick_iterate_mode(body, param)
        bounds = compiled.report.comp.bounds
        from repro.core.distplan import (
            double_kernel,
            plan_distribution,
            plan_outofcore,
        )

        # One block kernel per binding, emitted on first use, serves
        # every row placement below.
        kernel = double_kernel(compiled.report, self.params)
        seed_dead = self._dead_after(spec.seed, name)
        on_c = compiled.report.backend_used == "c"
        # An in-place step is a §9 split plan, and the C backend gives
        # every split-plan kernel its own sweep loop.
        native_sweeps = mode == "inplace" and on_c
        block = None
        if mode == "inplace":
            self.report.iterate.append(
                f"{name}: true in-place sweeps — {spec.fn!r} runs in "
                "the seed buffer (zero steady-state allocations); "
                + _sweep_driver(compiled.report, native_sweeps)
            )
        else:
            block, placement = self._one_block(name, compiled.report,
                                               param, on_c, kernel)
            self.report.fallbacks.append(
                f"iterate {name!r}: in-place sweeps rejected — "
                + why_not_inplace
            )
        self.produced[name] = bounds
        self._info(name=name, kind="iterate",
                   strategy=compiled.report.strategy,
                   reuses=spec.seed if seed_dead else None,
                   report=compiled.report,
                   detail=f"{spec.kind}-driven, mode {mode}, step "
                          f"{spec.fn!r} over seed {spec.seed!r}")
        plan = IteratePlan(
            kind=spec.kind, param=param, seed=spec.seed,
            control=spec.control, mode=mode, step=compiled,
            seed_dead=seed_dead, reuse_buffers=reuse_buffers,
            native_sweeps=native_sweeps, block=block,
        )
        if self.ooc:
            plan.ooc = self._place(
                name, "ooc", param,
                "only scalars and arrays ride the streamed tile "
                "environment",
                lambda: plan_outofcore(
                    name, compiled.report, mode, param,
                    params=self.params, tile=self.tile, kernel=kernel,
                ),
            )
            if plan.ooc is not None and on_c:
                self.report.fallbacks.append(
                    f"ooc {name!r}: tiles run the numpy block kernel, "
                    "not the C step — streaming keeps the memory bound "
                    "it was asked for"
                )
        if self.dist and (on_c or plan.ooc is not None):
            self.report.fallbacks.append(f"dist {name!r}: " + (
                "the step lowered to C, and dist blocks run the numpy "
                "block kernel — the C step in one process is faster"
                if on_c else
                "out-of-core streaming is planned and runs first; it "
                "admits the same seeds, so dist would never run"))
        elif self.dist:
            plan.dist = self._place(
                name, "dist", param,
                "interpreter closures cannot ship to workers",
                lambda: plan_distribution(
                    name, compiled.report, mode, param,
                    params=self.params, workers=self.workers,
                    kernel=kernel,
                ),
            )
        # Named once the placements are decided: out-of-core streaming
        # runs first, then dist, then the one block, and all three
        # admit the same float seeds.
        copier = "the one block" if block is not None else None
        if plan.ooc is not None:
            copier = "the out-of-core placement"
            placement = ("out-of-core placement: float seeds stream row "
                         "tiles through the vectorized block kernel (see "
                         "the ooc lines); other seeds run the list path")
        elif plan.dist is not None:
            copier = "the dist placement"
            placement = ("dist placement: float seeds run the vectorized "
                         f"block kernel in row blocks over {self.workers} "
                         "worker(s) (see the dist lines); other seeds run "
                         "the list path")
        if mode == "double":
            self.report.iterate.append(
                f"{name}: double-buffer sweeps (in-place rejected: "
                f"{why_not_inplace}); {placement}, buffer recycling "
                + ("on" if reuse_buffers else "off")
            )
        if seed_dead and (mode == "inplace" or reuse_buffers):
            seed_bounds = self.produced.get(spec.seed)
            cells = seed_bounds.size() if seed_bounds is not None else 0
            self.report.reuse_edges.append(ReuseEdge(
                consumer=name, producer=spec.seed, via="iterate-seed",
                cells=cells,
            ))
            self.report.elided.append(
                f"iterate {name!r}: seed {spec.seed!r}'s buffer joins "
                + ("the sweep rotation (initial copy elided)"
                   if copier is None else
                   "the list path's sweep rotation (initial copy "
                   f"elided; {copier} copies it into float64)")
            )
            self.consumed.add(spec.seed)
        return ProgramStep(name=name, kind="iterate", iterate=plan)

    def _one_block(self, name, report, param, on_c: bool, kernel):
        """The one-block plan, or ``None``, and the placement text of
        the binding's ``iterate`` line."""
        from repro.core.distplan import DistReject, plan_block

        try:
            if on_c:
                raise DistReject("the step lowered to C, and its "
                                 "per-sweep native call is faster")
            block = self._closure_free(
                plan_block(name, report, param, params=self.params,
                           kernel=kernel),
                param, "only scalars and arrays ride the block kernel "
                "environment")
        except (DistReject, CodegenError) as exc:
            return None, f"one-block placement refused ({exc}); list path"
        superseded = " (superseding vectorize)" \
            if self.options.vectorize else ""
        return block, ("one-block placement: float seeds run the "
                       "vectorized block kernel on two float64 buffers"
                       f"{superseded}; other seeds run the list path")

    def _closure_free(self, placed, param, no_closures: str):
        """``placed``, unless its kernel calls a program function.

        Program functions are interpreter closures, which no block
        kernel can take as an input; ``no_closures`` says why for the
        placement.
        """
        from repro.core.distplan import DistReject

        for env_name in placed.kernel.env_names:
            if env_name != param and (
                self.kinds.get(env_name) == "function"
            ):
                raise DistReject(
                    f"step calls program function {env_name!r} — "
                    + no_closures
                )
        return placed

    def _place(self, name, prefix: str, param, no_closures: str, plan):
        """A block placement's plan for one binding, or ``None``.

        ``plan()`` builds it (dist row blocks, or out-of-core row
        tiles).  A step that calls a program function cannot run as a
        block kernel either way — ``no_closures`` says why for this
        placement.  The plan's notes land in the report list named by
        ``prefix`` (``dist`` or ``ooc``).  Rejection is *compile-time*
        information: the reason lands in ``report.fallbacks``
        (``prefix`` names the placement; ``dist`` surfaces in the
        ``dist`` explain area, ``ooc`` in the ``tile`` one) and the
        binding runs the ordinary in-memory sweeps.
        """
        from repro.core.distplan import DistReject

        try:
            placed = self._closure_free(plan(), param, no_closures)
        except (DistReject, CodegenError) as exc:
            self.report.fallbacks.append(f"{prefix} {name!r}: {exc}")
            return None
        getattr(self.report, prefix).extend(placed.notes)
        count(f"program.{prefix}.bindings")
        return placed

    def _pick_iterate_mode(self, body, param):
        """In-place sweeps when §9 proves them free; else double-buffer.

        In-place mode demands a clean split plan (no snapshot rings or
        hoisted temporaries — they would re-allocate every sweep) and a
        provably total comprehension (an unwritten cell would carry the
        previous sweep's value, which the pure oracle never does).
        """
        inplace = None
        why = ""
        try:
            inplace = pipeline.compile(
                body, strategy="inplace", old_array=param,
                params=self.params, options=self.options,
            )
        except CompileError as exc:
            why = str(exc)
        if inplace is not None:
            plan = inplace.report.inplace_plan
            if inplace.report.strategy != "inplace":
                why = "§9 plan fell back to whole-copy (" + (
                    plan.reason if plan is not None else "unknown"
                ) + ")"
            elif plan is not None and (plan.snapshots or plan.hoisted):
                why = ("split plan needs snapshot/hoisted temporaries, "
                       "re-allocated every sweep")
            elif inplace.report.empties.checks_needed:
                why = ("comprehension not provably total — unwritten "
                       "cells would leak the previous sweep")
            else:
                return inplace, "inplace", False, ""
        mono = pipeline.compile(body, strategy="array",
                                params=self.params, options=self.options)
        reuse_buffers = (
            mono.report.strategy == "thunkless"
            and not mono.report.empties.checks_needed
            and not self.options.vectorize
        )
        return mono, "double", reuse_buffers, why
