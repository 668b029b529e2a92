"""Traced mode: spans recorded from outside, around repro's public calls.

:func:`install` wraps the entry points each layer is reached through
before anything is compiled, so generated modules (which import
``load_kernel`` when they are executed) pick the wrappers up.  Spans
stay in memory, tagged with the op that caused them, and are written
out once when the run ends.  Nothing here runs in an untraced run.
"""

from __future__ import annotations

import json
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

#: Compile passes reported as ``compile.<pass>_s``.
PASSES = ("parse", "fusion", "liveness", "dependence", "schedule",
          "codegen", "exec")


class Tracer:
    """In-memory spans: ``(op, name, parent index, start, seconds)``."""

    def __init__(self):
        self.op = "setup"
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call; a call made while a span
        of the same name is open (recursion) records nothing."""

        def traced(*args, **kwargs):
            if self._open.get(name):
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            self._open[name] = 1
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self._open[name] = 0
                self._stack.pop()
                self.spans[index] = (self.op, name, parent, started,
                                     elapsed)

        return traced

    def record(self, name: str, started: float, elapsed: float) -> None:
        """A span timed by the caller (the op itself)."""
        self.spans.append((self.op, name, -1, started, elapsed))

    def per_op(self) -> Dict[object, Dict[str, float]]:
        """Seconds per span name, summed within each op."""
        out: Dict[object, Dict[str, float]] = {}
        for op, name, _, _, elapsed in self.spans:
            sums = out.setdefault(op, {})
            sums[name] = sums.get(name, 0.0) + elapsed
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, name, parent, started, elapsed in self.spans:
                handle.write(json.dumps({
                    "op": op, "name": name, "parent": parent,
                    "start_s": started, "seconds": elapsed,
                }) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points (call before compiling)."""
    from repro.backends import native
    from repro.core import pipeline
    from repro.program import compile as program_compile
    from repro.program import outofcore
    from repro.program import run

    run.max_abs_diff = tracer.wrap("max_abs_diff", run.max_abs_diff)

    load_kernel = native.load_kernel

    def traced_load(cdef, source):
        kernel = load_kernel(cdef, source)
        # Generated wrappers call nothing on ``lib`` but repro_kernel.
        lib = SimpleNamespace(
            repro_kernel=tracer.wrap("kernel", kernel.lib.repro_kernel))
        return native.NativeKernel(ffi=kernel.ffi, lib=lib,
                                   path=kernel.path)

    native.load_kernel = tracer.wrap("load_kernel", traced_load)

    outofcore.run_ooc_iterate = tracer.wrap("ooc", outofcore.run_ooc_iterate)
    compile_source = outofcore.compile_source

    def traced_source(source, entry="_build"):
        return tracer.wrap("ooc_kernel", compile_source(source, entry))

    outofcore.compile_source = traced_source

    program_compile.compile_program = tracer.wrap(
        "compile", program_compile.compile_program)
    pipeline.compile = tracer.wrap("compile", pipeline.compile)


def instrument_program(tracer: Tracer, program) -> None:
    """Wrap every convergence-loop step of a compiled program."""
    for step in program.steps:
        if step.iterate is not None:
            step.iterate.step = tracer.wrap("step", step.iterate.step)


def instrument_service(tracer: Tracer, service) -> None:
    service.fingerprint_request = tracer.wrap(
        "fingerprint", service.fingerprint_request)
    service.store.put = tracer.wrap("store_put", service.store.put)


def pass_seconds(span) -> Dict[str, float]:
    """Seconds per compile pass in one ``Report.trace`` span tree; a
    pass nested in a span of the same name counts once."""
    out = {name: 0.0 for name in PASSES}

    def walk(node, inside):
        if node.name in out and node.name not in inside:
            out[node.name] += node.duration
            inside = inside | {node.name}
        for child in node.children:
            walk(child, inside)

    walk(span, frozenset())
    return out
