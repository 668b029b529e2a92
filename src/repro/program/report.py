"""Program-level compilation reports.

:class:`ProgramReport` aggregates the per-binding
:class:`~repro.core.pipeline.Report` objects with the decisions that
only exist at program scope: the topological schedule, every
cross-binding storage-reuse edge (§9 extended across statements), each
copy/allocation elided, and — mirroring ``Report.parallel`` — a reason
string for every fallback, so nothing degrades silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.pipeline import Report


@dataclass
class BindingInfo:
    """What the program compiler did with one binding."""

    name: str
    #: 'array' | 'inplace' | 'bigupd' | 'accum' | 'iterate' | 'scalar'
    #: | 'function' | 'alias' | 'skipped' | 'fused'
    kind: str
    #: Per-binding strategy string ('' for non-array bindings).
    strategy: str = ""
    #: Name of the dead array whose storage this binding overwrites.
    reuses: Optional[str] = None
    #: The full per-binding pipeline report, when one was produced.
    report: Optional[Report] = None
    #: One-line description for the summary.
    detail: str = ""


@dataclass
class ReuseEdge:
    """One cross-binding storage-reuse decision (§9 across statements)."""

    consumer: str
    producer: str
    #: 'inplace' (liveness-threaded old_array), 'bigupd' (surface
    #: form), or 'iterate-seed' (the driver sweeps in the seed buffer).
    via: str
    #: Cells whose allocation/copy the reuse elides (0 if unknown).
    cells: int = 0

    def __str__(self):
        suffix = f", {self.cells} cells elided" if self.cells else ""
        return (
            f"{self.consumer} overwrites {self.producer} "
            f"({self.producer} dead after {self.consumer}; "
            f"via {self.via}{suffix})"
        )


@dataclass
class FusedChain:
    """One cross-binding fusion chain (deforestation at loop level).

    ``members`` are the producers inlined away, in fusion order;
    ``host`` is the surviving consumer whose single nest computes the
    whole chain.  None of the members is ever allocated.
    """

    host: str
    members: List[str]
    #: Statically known cells whose allocation fusion elides (total
    #: over all members; 0 when bounds were not static).
    cells: int = 0
    #: Read sites substituted by producer value expressions.
    reads: int = 0

    def __str__(self):
        path = " -> ".join(self.members + [self.host])
        cells = f", {self.cells} cells never allocated" if self.cells else ""
        return (
            f"{path}: {len(self.members)} producer(s) inlined into "
            f"{self.host!r}'s loop nest ({self.reads} read site(s) "
            f"substituted{cells})"
        )


@dataclass
class ProgramReport:
    """Everything the program compiler decided."""

    #: Topological execution order (pruned to what the result needs).
    order: List[str] = field(default_factory=list)
    bindings: List[BindingInfo] = field(default_factory=list)
    #: The binding whose value the compiled program returns.
    result: str = ""
    #: Cross-binding storage reuse: one edge per overwritten producer.
    reuse_edges: List[ReuseEdge] = field(default_factory=list)
    #: Cross-binding loop fusion: one chain per surviving consumer
    #: whose nest absorbed dead producers (dependence-driven
    #: deforestation).
    fused: List[FusedChain] = field(default_factory=list)
    #: Human-readable line per elided copy/allocation.
    elided: List[str] = field(default_factory=list)
    #: Reason strings for every fallback (reuse rejected, double-buffer
    #: chosen over in-place, ...) — never silent, as Report.parallel.
    fallbacks: List[str] = field(default_factory=list)
    #: Convergence-driver decisions (mode chosen per iterate binding).
    iterate: List[str] = field(default_factory=list)
    #: Distribution-planner decisions (block counts, halo widths) for
    #: bindings that distribute; the reasons
    #: bindings *don't* distribute live in :attr:`fallbacks` with a
    #: ``dist`` prefix.
    dist: List[str] = field(default_factory=list)
    #: Out-of-core planner decisions (row tiles, resident window, halo
    #: re-reads), with the rejections under an ``ooc`` fallback prefix.
    ooc: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Wall-clock seconds per program pass (consumed by the service
    #: metrics like the single-definition Report.timings).  Derived
    #: from :attr:`trace` when the program compiled under tracing.
    timings: Dict[str, float] = field(default_factory=dict)
    #: The sealed compile-scope :class:`~repro.obs.trace.Span`.
    trace: Optional[object] = None

    def binding(self, name: str) -> BindingInfo:
        """The :class:`BindingInfo` for ``name`` (KeyError if absent)."""
        for info in self.bindings:
            if info.name == name:
                return info
        raise KeyError(name)

    def summary(self) -> str:
        """A human-readable account of the whole-program compilation."""
        lines = [
            f"program: {len(self.bindings)} binding(s), "
            f"result {self.result!r}"
        ]
        lines.append("topo order: " + " -> ".join(self.order))
        for info in self.bindings:
            label = info.kind + (f"/{info.strategy}" if info.strategy
                                 else "")
            detail = f" — {info.detail}" if info.detail else ""
            lines.append(f"binding {info.name}: {label}{detail}")
        for chain in self.fused:
            lines.append(f"fused: {chain}")
        for edge in self.reuse_edges:
            lines.append(f"reuse: {edge}")
        for entry in self.elided:
            lines.append(f"elided: {entry}")
        for entry in self.iterate:
            lines.append(f"iterate: {entry}")
        for entry in self.dist:
            lines.append(f"dist: {entry}")
        for entry in self.ooc:
            lines.append(f"ooc: {entry}")
        for entry in self.fallbacks:
            lines.append(f"fallback: {entry}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
