"""Structured tracing: nestable spans, counters, attributes.

Two instrumentation surfaces with different cost budgets:

* **Compile-time spans.**  Every pipeline entry point opens (or joins)
  a :class:`Trace`; passes record themselves with ``with
  span("schedule"):``.  This replaces the ad-hoc ``perf_counter``
  bookkeeping that used to fill ``Report.timings`` — the dict is now
  *derived* from the trace (see :meth:`Trace.timings`), with
  ``"total"`` taken from the root span so child pass times always sum
  to at most the total.  Compiles were already timed per pass, so
  this layer is always on.

* **Runtime counters.**  Generated code and the program driver run in
  tight loops, so their counters (buffer allocations, convergence
  sweeps, block and tile runs) are gated behind the ``REPRO_TRACE``
  environment variable: one module-global boolean test when disabled,
  nothing else.  Benchmarks flip the gate with
  :func:`refresh_runtime_tracing` after setting the variable.

Everything is plain data (no locks, no weakrefs), so traces pickle
through the compile service's disk tier attached to their reports.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

#: Environment variable gating the runtime-side counters.
TRACE_ENV = "REPRO_TRACE"


class Span:
    """One timed region: name, wall time, counters, attributes.

    ``elapsed`` is ``None`` while the span is open; :attr:`duration`
    reports elapsed-so-far for open spans so derived views are always
    monotone.
    """

    __slots__ = ("name", "attrs", "counters", "children", "started",
                 "elapsed")

    def __init__(self, name: str, attrs: Optional[Dict] = None):
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.counters: Dict[str, int] = {}
        self.children: List["Span"] = []
        self.started = perf_counter()
        self.elapsed: Optional[float] = None

    @property
    def duration(self) -> float:
        """Seconds spent in the span (elapsed-so-far while open)."""
        if self.elapsed is None:
            return perf_counter() - self.started
        return self.elapsed

    def count(self, name: str, n: int = 1) -> None:
        """Bump a counter on this span."""
        self.counters[name] = self.counters.get(name, 0) + n

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict:
        """JSON-able rendering of the span subtree."""
        out: Dict[str, object] = {
            "name": self.name,
            "duration_s": self.duration,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    # Spans ride on pickled reports through the service's disk tier.
    def __getstate__(self):
        return (self.name, self.attrs, self.counters, self.children,
                self.started, self.elapsed)

    def __setstate__(self, state):
        (self.name, self.attrs, self.counters, self.children,
         self.started, self.elapsed) = state

    def __repr__(self):
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
                f"children={len(self.children)})")


class Trace:
    """A per-compile span tree with a cursor for nesting."""

    def __init__(self, name: str = "compile"):
        self.root = Span(name)
        self._stack: List[Span] = [self.root]

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child span under the innermost open span."""
        child = Span(name, attrs)
        parent = self._stack[-1]
        parent.children.append(child)
        self._stack.append(child)
        try:
            yield child
        finally:
            child.elapsed = perf_counter() - child.started
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        """Bump a counter on the innermost open span."""
        self._stack[-1].count(name, n)

    def annotate(self, key: str, value) -> None:
        """Attach a key/value attribute to the innermost open span."""
        self._stack[-1].attrs[key] = value

    def close(self) -> None:
        """Seal the root span (idempotent)."""
        if self.root.elapsed is None:
            self.root.elapsed = perf_counter() - self.root.started

    # -- derived views -------------------------------------------------

    def timings(self) -> Dict[str, float]:
        """The backward-compatible ``Report.timings`` view.

        One entry per *top-level* pass name (durations summed over
        repeats, e.g. a re-run dependence pass after interchange), and
        ``"total"`` from the root span itself — so the children can
        never sum to more than ``total``, glue included.
        """
        return span_timings(self.root)

    def counters(self) -> Dict[str, int]:
        """All counters in the tree, summed by name."""
        out: Dict[str, int] = {}
        for node in self.root.walk():
            for name, n in node.counters.items():
                out[name] = out.get(name, 0) + n
        return out

    def to_dict(self) -> Dict:
        """JSON-able rendering of the whole trace."""
        return self.root.to_dict()

    def render(self, indent: str = "  ") -> str:
        """Indented human-readable span tree."""
        lines: List[str] = []

        def walk(node: Span, depth: int) -> None:
            pad = indent * depth
            extra = ""
            if node.counters:
                extra = "  " + " ".join(
                    f"{k}={v}" for k, v in sorted(node.counters.items())
                )
            lines.append(
                f"{pad}{node.name}: {node.duration * 1e3:.3f}ms{extra}"
            )
            for child in node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def __getstate__(self):
        return {"root": self.root}

    def __setstate__(self, state):
        self.root = state["root"]
        self._stack = [self.root]

    def __repr__(self):
        return f"Trace({self.root.name!r}, {self.root.duration * 1e3:.3f}ms)"


# ----------------------------------------------------------------------
# The active-trace stack (thread-local, so concurrent service compiles
# never interleave their spans).

_local = threading.local()


def _stack() -> List[Trace]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def active_trace() -> Optional[Trace]:
    """The innermost trace activated on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def tracing(trace: Trace):
    """Make ``trace`` the active trace for the dynamic extent."""
    stack = _stack()
    stack.append(trace)
    try:
        yield trace
    finally:
        stack.pop()


@contextmanager
def trace_scope(name: str):
    """A span that works standalone or nested; yields the :class:`Span`.

    With no active trace, opens a fresh :class:`Trace` and yields its
    root; under an active trace, opens one child span.  Either way the
    yielded span is sealed on exit, so :func:`span_timings` over it is
    a complete per-pass view — the pipeline's per-compile scope.
    """
    trace = active_trace()
    if trace is None:
        trace = Trace(name)
        with tracing(trace):
            try:
                yield trace.root
            finally:
                trace.close()
        return
    with trace.span(name) as node:
        yield node


def span_timings(node: Span) -> Dict[str, float]:
    """The ``Report.timings`` view of one sealed scope span.

    One entry per direct child name (summed over repeats) plus
    ``"total"`` from the scope itself, so children sum to at most
    ``total`` with inter-pass glue included.
    """
    out: Dict[str, float] = {}
    for child in node.children:
        out[child.name] = out.get(child.name, 0.0) + child.duration
    out["total"] = node.duration
    return out


@contextmanager
def span(name: str, **attrs):
    """Record a span on the active trace; a no-op without one."""
    trace = active_trace()
    if trace is None:
        yield None
        return
    with trace.span(name, **attrs) as node:
        yield node


def count(name: str, n: int = 1) -> None:
    """Bump a counter on the active trace; a no-op without one."""
    trace = active_trace()
    if trace is not None:
        trace.count(name, n)


def annotate(key: str, value) -> None:
    """Attach an attribute to the active span; a no-op without one."""
    trace = active_trace()
    if trace is not None:
        trace.annotate(key, value)


# ----------------------------------------------------------------------
# Runtime counters (generated code, convergence sweeps, placements).
# Gated behind REPRO_TRACE so disabled tracing costs one boolean test.


def _env_enabled() -> bool:
    return os.environ.get(TRACE_ENV, "") not in ("", "0", "false", "no")


_runtime_enabled = _env_enabled()
_runtime_counters: Dict[str, int] = {}


def runtime_tracing_enabled() -> bool:
    """Whether runtime-side counters are currently recording."""
    return _runtime_enabled


def refresh_runtime_tracing() -> bool:
    """Re-read ``REPRO_TRACE`` (call after changing the environment)."""
    global _runtime_enabled
    _runtime_enabled = _env_enabled()
    return _runtime_enabled


def count_runtime(name: str, n: int = 1) -> None:
    """Bump a process-global runtime counter (when tracing is on)."""
    if _runtime_enabled:
        _runtime_counters[name] = _runtime_counters.get(name, 0) + n


def runtime_counters() -> Dict[str, int]:
    """Snapshot of the runtime counters."""
    return dict(_runtime_counters)


def reset_runtime_counters() -> None:
    """Zero the runtime counters (benchmark harness hook)."""
    _runtime_counters.clear()
