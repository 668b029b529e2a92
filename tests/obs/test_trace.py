"""The span/trace layer: nesting, timing monotonicity, derived views."""

import pickle
import time

import pytest

import repro
from repro.kernels import PROGRAM_JACOBI_STEPS, SOR_MONOLITHIC
from repro.obs.trace import (
    Span,
    Trace,
    active_trace,
    count_runtime,
    refresh_runtime_tracing,
    reset_runtime_counters,
    runtime_counters,
    span,
    span_timings,
    trace_scope,
    tracing,
)


class TestSpanTree:
    def test_nesting_shape(self):
        trace = Trace("root")
        with trace.span("a"):
            with trace.span("b"):
                trace.count("inner")
            with trace.span("c"):
                pass
        with trace.span("d"):
            pass
        trace.close()
        names = [node.name for node in trace.root.walk()]
        assert names == ["root", "a", "b", "c", "d"]
        (a, d) = trace.root.children
        assert [child.name for child in a.children] == ["b", "c"]
        assert a.children[0].counters == {"inner": 1}

    def test_timing_monotonicity(self):
        """Every child's duration fits inside its parent's."""
        trace = Trace("root")
        with trace.span("outer"):
            with trace.span("inner"):
                time.sleep(0.002)
        trace.close()
        outer = trace.root.children[0]
        inner = outer.children[0]
        assert 0 <= inner.duration <= outer.duration
        assert outer.duration <= trace.root.duration
        assert inner.duration >= 0.002

    def test_open_span_duration_grows(self):
        node = Span("open")
        first = node.duration
        time.sleep(0.001)
        assert node.duration > first
        assert node.elapsed is None

    def test_span_timings_sums_repeats(self):
        trace = Trace("root")
        for _ in range(3):
            with trace.span("pass"):
                pass
        trace.close()
        timings = trace.timings()
        assert set(timings) == {"pass", "total"}
        assert timings["pass"] <= timings["total"]

    def test_counters_aggregate_over_tree(self):
        trace = Trace("root")
        trace.count("hits", 2)
        with trace.span("a"):
            trace.count("hits", 3)
        trace.close()
        assert trace.counters() == {"hits": 5}

    def test_to_dict_and_render(self):
        trace = Trace("root")
        with trace.span("a", color="red"):
            trace.count("n", 4)
        trace.close()
        as_dict = trace.to_dict()
        assert as_dict["name"] == "root"
        assert as_dict["children"][0]["attrs"] == {"color": "red"}
        assert as_dict["children"][0]["counters"] == {"n": 4}
        rendered = trace.render()
        assert "root:" in rendered and "n=4" in rendered

    def test_pickle_round_trip(self):
        trace = Trace("root")
        with trace.span("a"):
            trace.count("n")
        trace.close()
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.root.children[0].counters == {"n": 1}
        assert clone.timings()["total"] == trace.timings()["total"]


class TestActiveTraceStack:
    def test_module_span_is_noop_without_trace(self):
        assert active_trace() is None
        with span("orphan") as node:
            assert node is None

    def test_tracing_scopes_the_active_trace(self):
        trace = Trace("t")
        with tracing(trace):
            assert active_trace() is trace
            with span("child"):
                pass
        assert active_trace() is None
        assert [c.name for c in trace.root.children] == ["child"]

    def test_trace_scope_standalone_and_nested(self):
        with trace_scope("outer") as outer:
            with trace_scope("inner") as inner:
                pass
        assert outer.name == "outer" and outer.elapsed is not None
        assert inner in outer.children
        timings = span_timings(outer)
        assert timings["inner"] <= timings["total"]


class TestPipelineTimings:
    def test_children_sum_within_total(self):
        """The satellite fix: pass times can never exceed 'total'."""
        compiled = repro.compile(SOR_MONOLITHIC,
                                 params={"m": 8, "omega": 1.0})
        timings = compiled.report.timings
        assert "total" in timings
        children = sum(v for k, v in timings.items() if k != "total")
        assert children <= timings["total"]
        for name in ("parse", "build", "dependence", "schedule",
                     "codegen"):
            assert timings[name] >= 0

    def test_report_carries_trace(self):
        compiled = repro.compile(SOR_MONOLITHIC,
                                 params={"m": 8, "omega": 1.0})
        root = compiled.report.trace
        assert root is not None
        names = {node.name for node in root.walk()}
        assert {"parse", "schedule", "codegen"} <= names

    def test_program_trace_has_per_binding_spans(self):
        program = repro.compile_program(PROGRAM_JACOBI_STEPS,
                                        params={"m": 6, "k": 2})
        timings = program.report.timings
        binding_keys = [k for k in timings if k.startswith("binding:")]
        assert binding_keys
        children = sum(v for k, v in timings.items() if k != "total")
        assert children <= timings["total"]
        counters = {}
        for node in program.report.trace.walk():
            counters.update(node.counters)
        assert counters.get("program.bindings") == 3

    def test_analyze_under_an_active_trace_reports_its_own_passes(self):
        outer = Trace("outer")
        with tracing(outer):
            with span("busy"):
                pass
            report = repro.analyze(SOR_MONOLITHIC,
                                   {"m": 8, "omega": 1.0})
        assert report.trace is not outer.root
        assert report.trace.name == "analyze"
        assert "busy" not in {node.name for node in report.trace.walk()}
        assert "busy" not in report.timings
        assert {"parse", "schedule"} <= set(report.timings)
        assert report.timings["total"] == report.trace.duration
        # The enclosing trace still holds analyze's passes, nested.
        assert report.trace in outer.root.children


class TestRuntimeCounters:
    @pytest.fixture(autouse=True)
    def restore_gate(self, monkeypatch):
        yield
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        refresh_runtime_tracing()
        reset_runtime_counters()

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert refresh_runtime_tracing() is False
        reset_runtime_counters()
        count_runtime("ghost")
        assert runtime_counters() == {}

    def test_enabled_counts_allocations(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert refresh_runtime_tracing() is True
        reset_runtime_counters()
        compiled = repro.compile(
            "letrec* a = array (1,9) [ i := i | i <- [1..9] ] in a"
        )
        compiled({})
        counters = runtime_counters()
        assert counters.get("alloc.arrays", 0) >= 1
        assert counters.get("alloc.cells", 0) >= 9

    def test_falsy_values_disable(self, monkeypatch):
        for value in ("0", "false", "no", ""):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert refresh_runtime_tracing() is False
