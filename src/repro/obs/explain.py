"""Decision-trace rendering: *why* the compiler did what it did.

The pipeline already records every decision — schedule failures,
in-place plans, §10 wavefront verdicts, program-level reuse
fallbacks — but scattered across :class:`~repro.core.pipeline.Report`
and :class:`~repro.program.report.ProgramReport` fields.  This module
normalizes them into one flat list of :class:`Decision` entries
(area, subject, verdict, reason) behind two entry points:

* :func:`explain_report` — decisions from an existing report
  (single-definition or whole-program, detected by shape);
* :func:`explain` — compile source and explain it; a static rejection
  (certain collision, unschedulable in-place update) does not raise
  but comes back as a ``rejected`` compile decision over the analysis
  that is still available.

``Explanation.render()`` is the human form; ``to_json()`` the
machine form (the CLI's ``--json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Decision areas, in render order.
AREAS = ("compile", "strategy", "schedule", "checks", "subscript",
         "inplace", "vectorize", "parallel", "backend", "tile", "fuse",
         "reuse", "iterate", "dist", "note")

ACCEPTED = "accepted"
REJECTED = "rejected"
FALLBACK = "fallback"
INFO = "info"


@dataclass
class Decision:
    """One compilation decision: what was decided about what, and why."""

    area: str      # one of AREAS
    subject: str   # the loop / clause / binding the decision is about
    verdict: str   # accepted | rejected | fallback | info
    reason: str

    def to_dict(self) -> Dict[str, str]:
        return {"area": self.area, "subject": self.subject,
                "verdict": self.verdict, "reason": self.reason}

    def __str__(self):
        return (f"[{self.area}] {self.subject}: {self.verdict} — "
                f"{self.reason}")


@dataclass
class Explanation:
    """An ordered decision trace for one compilation."""

    kind: str  # 'definition' | 'program'
    decisions: List[Decision] = field(default_factory=list)

    def add(self, area: str, subject: str, verdict: str,
            reason: str) -> None:
        self.decisions.append(Decision(area, subject, verdict, reason))

    def by_area(self, area: str) -> List[Decision]:
        return [d for d in self.decisions if d.area == area]

    def to_json(self) -> Dict:
        return {
            "kind": self.kind,
            "decisions": [d.to_dict() for d in self.decisions],
        }

    def render(self) -> str:
        """Human-readable decision trace, grouped by area."""
        lines = [f"decision trace ({self.kind})"]
        for area in AREAS:
            group = self.by_area(area)
            if not group:
                continue
            lines.append(f"{area}:")
            for d in group:
                lines.append(f"  {d.subject}: {d.verdict} — {d.reason}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Single-definition reports.


def _explain_schedule(out: Explanation, report, prefix: str) -> None:
    schedule = report.schedule
    if schedule is None:
        return
    if schedule.ok:
        directions = ", ".join(
            f"{var} {'/'.join(dirs)}"
            for var, dirs in schedule.loop_directions().items()
        ) or "straight-line (no loops)"
        out.add("schedule", prefix + "static schedule", ACCEPTED,
                f"every dependence satisfied by loop order: {directions}")
    else:
        out.add("schedule", prefix + "static schedule", REJECTED,
                "; ".join(schedule.failures))


#: Why an inconclusive analysis compiled no runtime check, per report
#: strategy: ``(collisions, empties)``.
_UNCHECKED = {
    "guarded": ("only the guarded kernel's checked fallback schedule "
                "runs them, when the runtime verifier fails",
                "only the guarded kernel's checked fallback schedule "
                "runs it, when the runtime verifier fails"),
    "accumulate": ("colliding stores combine; accumulation has no "
                   "collisions to reject",
                   "every cell starts at the initial value"),
    "inplace": ("a later store to the same cell wins in place",
                "unwritten cells keep the input's values"),
}
_UNCHECKED["inplace-copy"] = _UNCHECKED["inplace"]
_NOT_COMPILED = "the definition was not compiled"


def _explain_checks(out: Explanation, report, prefix: str) -> None:
    """What the analyses proved, and which runtime checks that left
    compiled (``report.checks``; ``None`` for an analysis-only report,
    which compiled nothing)."""
    from repro.core.collisions import CERTAIN, NONE

    checks = report.checks
    # Only the strategies in _UNCHECKED leave a needed check out: a
    # thunkless or thunked unit compiles every check its analysis needs.
    unchecked = _UNCHECKED.get(report.strategy) if checks is not None \
        else (_NOT_COMPILED, _NOT_COMPILED)
    collision = report.collision
    if collision is not None:
        compiled = checks is not None and checks.collision_checks
        if collision.status == CERTAIN:
            witnesses = "; ".join(
                str(f) for f in collision.findings
                if f.status == CERTAIN
            )
            out.add("checks", prefix + "collisions", REJECTED,
                    f"write collision is certain: {witnesses}")
        elif collision.status == NONE:
            out.add("checks", prefix + "collisions", ACCEPTED,
                    "proven collision-free; runtime collision checks "
                    "compiled as requested" if compiled else
                    "proven collision-free; runtime checks elided")
        elif compiled:
            out.add("checks", prefix + "collisions", FALLBACK,
                    "analysis inconclusive; runtime collision checks "
                    "compiled")
        else:
            out.add("checks", prefix + "collisions", FALLBACK,
                    "analysis inconclusive; no runtime collision checks "
                    "compiled: " + unchecked[0])
    empties = report.empties
    if empties is not None:
        compiled = checks is not None and checks.empties_check
        if empties.status == NONE:
            out.add("checks", prefix + "empties", ACCEPTED,
                    "proven total; definedness sweep compiled as "
                    "requested" if compiled else
                    "proven total; definedness sweep elided")
        elif compiled:
            out.add("checks", prefix + "empties", FALLBACK,
                    "totality not proven; runtime definedness sweep "
                    "compiled")
        else:
            out.add("checks", prefix + "empties", FALLBACK,
                    "totality not proven; no definedness sweep "
                    "compiled: " + unchecked[1])


def _explain_subscripts(out: Explanation, report, prefix: str) -> None:
    sub = getattr(report, "subscripts", None)
    if sub is None or not getattr(sub, "has_indirect", False):
        return
    for subject, verdict, reason in sub.decisions:
        out.add("subscript", prefix + subject, verdict, reason)
    if sub.gather_arrays:
        out.add("subscript", prefix + "gathers", INFO,
                "read-side index arrays (no write hazard): "
                + ", ".join(sub.gather_arrays))
    if sub.guarded and sub.guard is not None:
        specs = "; ".join(
            f"{s.array} ({'injective+bounded' if s.need_injective else 'bounded'})"
            for s in sub.guard.verify
        )
        out.add("subscript", prefix + "runtime verifier", INFO,
                f"O(n) scan per call over {specs}; failure falls back "
                "to the fully checked serial schedule")


def _explain_inplace(out: Explanation, report, prefix: str) -> None:
    plan = report.inplace_plan
    if plan is None:
        return
    if report.strategy == "inplace":
        extras = []
        if plan.snapshots:
            extras.append(f"{len(plan.snapshots)} snapshot ring(s)")
        if plan.hoisted:
            extras.append(f"{len(plan.hoisted)} hoisted temp(s)")
        detail = ("node-splitting: " + ", ".join(extras)
                  if extras else "no anti conflict needs a temporary")
        out.add("inplace", prefix + "storage reuse", ACCEPTED,
                f"update runs in the input's buffer; {detail}")
    else:
        out.add("inplace", prefix + "storage reuse", FALLBACK,
                f"whole-copy fallback: {plan.reason}")


def _explain_vectorize(out: Explanation, report, prefix: str) -> None:
    if report.vectorizable:
        for var in report.vectorizable:
            out.add("vectorize", prefix + f"loop {var}", ACCEPTED,
                    "innermost loop carries no dependence; eligible "
                    "for numpy-slice emission")
    elif report.comp is not None:
        out.add("vectorize", prefix + "innermost loops", REJECTED,
                "every innermost loop carries a dependence")


def _explain_parallel(out: Explanation, report, prefix: str) -> None:
    for profile in report.parallelism:
        label = prefix + profile.clause.label
        if profile.hyperplane is not None:
            out.add("parallel", label, ACCEPTED,
                    f"wavefront h={profile.hyperplane}: critical path "
                    f"{profile.steps} of {profile.work} instances "
                    f"(speedup bound {profile.speedup_bound:.1f})")
        else:
            out.add("parallel", label, REJECTED,
                    "no legal hyperplane (dependence distances not "
                    "all constant and positive)")
    for line in report.parallel:
        verdict = REJECTED if "sequential" in line else INFO
        out.add("parallel", prefix + "backend", verdict, line)


def _explain_backend(out: Explanation, report, prefix: str) -> None:
    used = getattr(report, "backend_used", "")
    log = getattr(report, "backend", None) or []
    if used and used != "python":
        out.add("backend", prefix + "emitter", ACCEPTED,
                f"lowered by the {used!r} backend")
    elif used and log:
        # A non-default backend was requested but the python emitter
        # produced the source — every reason is in the log below.
        out.add("backend", prefix + "emitter", FALLBACK,
                "python emitter produced the code")
    for line in log:
        out.add("backend", prefix + "dispatch", INFO, line)


def _explain_tiling(out: Explanation, report, prefix: str) -> None:
    tiling = getattr(report, "tiling", None)
    if tiling is None:
        return
    if tiling.ok:
        sizes = " x ".join(
            f"{var}:{size}"
            for var, size in zip(tiling.loop_vars, tiling.sizes)
        )
        out.add("tile", prefix + "cache blocking", ACCEPTED,
                f"{tiling.kind} tiles [{sizes}] ({tiling.source}), "
                f"halo {tiling.halo} — direction vectors permit "
                "lexicographic tile order")
    else:
        out.add("tile", prefix + "cache blocking", FALLBACK,
                f"untiled loops emitted: {tiling.note}")


def explain_definition_report(report, prefix: str = "",
                              out: Optional[Explanation] = None
                              ) -> Explanation:
    """Decisions from one single-definition :class:`Report`."""
    if out is None:
        out = Explanation(kind="definition")
    if report.strategy:
        verdict = FALLBACK if report.strategy == "thunked" else ACCEPTED
        reasons = {
            "thunkless": "static schedule found; loops run without "
                         "thunks",
            "thunked": "no static schedule; memoized-thunk fallback",
            "inplace": "§9 node-splitting plan; writes reuse the input "
                       "buffer",
            "inplace-copy": "§9 plan fell back to a whole copy",
            "accumulate": "accumArray combiner drives the fold order",
            "guarded": "dual-schedule indirect-write kernel; a runtime "
                       "subscript verifier picks the unchecked fast "
                       "path or the checked fallback per call",
        }
        out.add("strategy", prefix + "strategy", verdict,
                f"{report.strategy}: "
                + reasons.get(report.strategy, "selected by shape"))
    _explain_schedule(out, report, prefix)
    _explain_checks(out, report, prefix)
    _explain_subscripts(out, report, prefix)
    _explain_inplace(out, report, prefix)
    _explain_vectorize(out, report, prefix)
    _explain_parallel(out, report, prefix)
    _explain_backend(out, report, prefix)
    _explain_tiling(out, report, prefix)
    for note in report.notes:
        out.add("note", prefix.rstrip(": ") or "pipeline", INFO, note)
    return out


# ----------------------------------------------------------------------
# Whole-program reports.


def _fallback_area(text: str) -> str:
    if text.startswith("fuse"):
        return "fuse"
    if text.startswith("iterate"):
        return "inplace"
    if text.startswith("dist"):
        return "dist"
    if text.startswith(("tile", "ooc")):
        return "tile"
    if text.startswith("subscript"):
        return "subscript"
    if text.startswith("backend"):
        return "backend"
    if text.startswith("vectorize"):
        return "vectorize"
    return "reuse"


def explain_program_report(report) -> Explanation:
    """Decisions from one :class:`ProgramReport`."""
    out = Explanation(kind="program")
    out.add("compile", "program", INFO,
            "topo order: " + " -> ".join(report.order)
            + f"; result {report.result!r}")
    for chain in report.fused:
        out.add("fuse", f"{chain.host} <- {', '.join(chain.members)}",
                ACCEPTED, str(chain))
    for edge in report.reuse_edges:
        out.add("reuse", f"{edge.consumer} <- {edge.producer}", ACCEPTED,
                str(edge))
    for entry in report.elided:
        out.add("reuse", "allocation", INFO, entry)
    for entry in report.fallbacks:
        out.add(_fallback_area(entry), "program", REJECTED, entry)
    for entry in report.iterate:
        verdict = ACCEPTED if "in-place sweeps" in entry else INFO
        out.add("iterate", "driver", verdict, entry)
    for entry in report.dist:
        out.add("dist", "planner", ACCEPTED, entry)
    for entry in report.ooc:
        # The tile is the out-of-core partition unit.
        out.add("tile", "planner", ACCEPTED, entry)
    for note in report.notes:
        out.add("note", "program", INFO, note)
    for info in report.bindings:
        if info.report is not None:
            explain_definition_report(info.report,
                                      prefix=f"{info.name}: ", out=out)
        else:
            out.add("strategy", info.name, INFO,
                    info.kind + (f": {info.detail}" if info.detail
                                 else ""))
    return out


def explain_report(report, prefix: str = "") -> Explanation:
    """Explain any report (program detected by its ``bindings`` list)."""
    if hasattr(report, "bindings"):
        return explain_program_report(report)
    return explain_definition_report(report, prefix=prefix)


# ----------------------------------------------------------------------
# Source-level entry point (the CLI's ``explain`` command).


def explain(src, *, params=None, options=None, old_array=None,
            strategy: str = "auto", force_strategy=None,
            ooc: bool = False, dist: bool = False,
            workers: int = 0) -> Explanation:
    """Compile ``src`` and return its decision trace.

    A program compiles with the placements ``ooc``, ``dist`` and
    ``workers`` as :func:`repro.program.compile.compile_program` takes
    them, so the trace names the placements that ``run`` would use.

    A static rejection (certain write collision, unschedulable
    in-place update) is part of the story, not an error: the
    exception becomes a ``rejected`` compile decision and the
    analysis-only report still contributes its decisions.
    """
    from repro.core.pipeline import CompileError, analyze
    from repro.core.pipeline import compile as pipeline_compile
    from repro.program.compile import classify_source, compile_program

    kind, src = classify_source(src)
    if kind == "program":
        program = compile_program(src, params=params, options=options,
                                  ooc=ooc, dist=dist, workers=workers)
        return explain_program_report(program.report)

    try:
        compiled = pipeline_compile(
            src, strategy=strategy, params=params, options=options,
            old_array=old_array, force_strategy=force_strategy,
        )
    except CompileError as exc:
        out = Explanation(kind="definition")
        out.add("compile", "definition", REJECTED, str(exc))
        try:
            report = analyze(src, params)
        except Exception:
            return out
        report.strategy = ""
        return explain_definition_report(report, out=out)
    return explain_definition_report(compiled.report)
