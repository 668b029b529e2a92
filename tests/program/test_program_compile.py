"""Unit tests for the whole-program compiler's decisions.

Scheduling, cycle diagnostics, cross-binding storage reuse (and every
reason it gets rejected), the convergence-loop driver, the facade
dispatch, and the service integration.
"""

import pickle
import re

import pytest

import repro
from repro import CompileError
from repro.codegen.support import ALLOC_STATS
from repro.core.liveness import (
    ProgramCycleError,
    dependence_graph,
    last_uses,
    topo_order,
)
from repro.kernels import (
    PROGRAM_CATALOG,
    PROGRAM_JACOBI_STEPS,
    PROGRAM_PIPELINE,
)
from repro.lang import parse_program
from repro.program import (
    CompiledProgram,
    ProgramError,
    as_program,
    compile_program,
)
from repro.service import fingerprint_program


def allocations(program, params):
    ALLOC_STATS.reset()
    program(dict(params))
    return ALLOC_STATS.arrays_allocated


# ----------------------------------------------------------------------
# Scheduling and liveness.


class TestScheduling:
    def test_out_of_order_source(self):
        # Bindings written backwards still schedule and run: the list
        # is letrec-like, order-free.
        src = """
        main = c;
        c = array (1,n) [ i := b!i + 1.0 | i <- [1..n] ];
        b = array (1,n) [ i := 1.0 * i | i <- [1..n] ]
        """
        prog = compile_program(src, params={"n": 5})
        # b fuses into c (distance zero, sole consumer), so the
        # scheduled order is the post-fusion one.
        assert prog.report.order == ["c", "main"]
        assert prog({"n": 5}).to_list() == [2.0, 3.0, 4.0, 5.0, 6.0]
        # The pre-fusion topo order is still checkable with fuse off.
        unfused = compile_program(src, params={"n": 5}, fuse=False)
        assert unfused.report.order == ["b", "c", "main"]
        assert unfused({"n": 5}).to_list() == prog({"n": 5}).to_list()

    def test_cycle_diagnostic_names_members(self):
        src = """
        a = array (1,n) [ i := b!i | i <- [1..n] ];
        b = array (1,n) [ i := a!i | i <- [1..n] ];
        main = a
        """
        with pytest.raises(CompileError) as err:
            compile_program(src, params={"n": 3})
        message = str(err.value)
        assert "cycle" in message
        assert "a" in message and "b" in message

    def test_self_reference_is_not_a_cycle(self):
        # A recursive array is a flow dependence inside one unit.
        src = """
        x = letrec x = array (1,n)
              ([ 1 := 1.0 ] ++ [ i := x!(i-1) + 1.0 | i <- [2..n] ])
            in x;
        main = x
        """
        prog = compile_program(src, params={"n": 4})
        assert prog({"n": 4}).to_list() == [1.0, 2.0, 3.0, 4.0]

    def test_duplicate_names_rejected(self):
        src = "a = array (1,3) [ i := 1 | i <- [1..3] ]; a = a"
        with pytest.raises(CompileError, match="duplicate"):
            compile_program(src)

    def test_dead_bindings_pruned_with_note(self):
        src = """
        dead = array (1,n) [ i := 1.0 | i <- [1..n] ];
        main = array (1,n) [ i := 2.0 | i <- [1..n] ]
        """
        prog = compile_program(src, params={"n": 3})
        assert prog.report.order == ["main"]
        assert any("dead" in note for note in prog.report.notes)
        assert prog.report.binding("dead").kind == "skipped"

    def test_result_keyword(self):
        src = """
        b = array (1,n) [ i := 1.0 * i | i <- [1..n] ];
        c = array (1,n) [ i := b!i + 1.0 | i <- [1..n] ]
        """
        prog = compile_program(src, params={"n": 3}, result="b")
        assert prog({"n": 3}).to_list() == [1.0, 2.0, 3.0]
        with pytest.raises(CompileError, match="not defined"):
            compile_program(src, params={"n": 3}, result="zz")

    def test_trailing_semicolon_accepted(self):
        binds = parse_program(
            "a = array (1,3) [ i := i | i <- [1..3] ];\nmain = a;\n"
        )
        assert [b.name for b in binds] == ["a", "main"]


class TestLivenessUnits:
    def test_last_uses(self):
        binds = parse_program(
            "b = array (1,3) [ i := 1 | i <- [1..3] ];"
            "c = array (1,3) [ i := b!i | i <- [1..3] ];"
            "main = c"
        )
        graph = dependence_graph(binds)
        order = topo_order(binds, graph)
        assert order == ["b", "c", "main"]
        assert last_uses(order, graph) == {"b": "c", "c": "main"}

    def test_topo_raises_programcycleerror(self):
        binds = parse_program("a = b; b = a")
        with pytest.raises(ProgramCycleError) as err:
            topo_order(binds, dependence_graph(binds))
        assert err.value.cycle


# ----------------------------------------------------------------------
# Cross-binding storage reuse.


class TestReuse:
    def test_pipeline_chain_one_allocation(self):
        spec = PROGRAM_CATALOG["program_pipeline"]
        # Default path: b fuses into c (distance zero, sole
        # consumer); x is a letrec recurrence and cannot fuse, so it
        # takes c's dead buffer through §9 reuse as before.
        prog = compile_program(spec["source"], params=spec["params"])
        edges = {(e.consumer, e.producer) for e in prog.report.reuse_edges}
        assert edges == {("x", "c")}
        assert [c.members for c in prog.report.fused] == [["b"]]
        assert allocations(prog, spec["params"]) == 1
        # With fusion off, the pre-fusion reuse chain is intact.
        prog = compile_program(spec["source"], params=spec["params"],
                               fuse=False)
        edges = {(e.consumer, e.producer) for e in prog.report.reuse_edges}
        assert edges == {("c", "b"), ("x", "c")}
        assert all(e.via == "inplace" for e in prog.report.reuse_edges)
        assert len(prog.report.elided) >= 2
        assert allocations(prog, spec["params"]) == 1

    def test_producer_read_later_blocks_reuse(self):
        src = """
        b = array (1,n) [ i := 1.0 * i | i <- [1..n] ];
        c = array (1,n) [ i := b!i + 1.0 | i <- [1..n] ];
        main = array (1,n) [ i := b!i + c!i | i <- [1..n] ]
        """
        params = {"n": 6}
        # With fusion on this diamond collapses entirely (c fuses
        # into main, which leaves b with one consumer, which fuses
        # too) — the reuse-blocking behaviour is a fuse=False fact.
        prog = compile_program(src, params=params, fuse=False)
        # c cannot take b's buffer (b is read again by main) ...
        assert ("c", "b") not in {
            (e.consumer, e.producer) for e in prog.report.reuse_edges
        }
        assert any(
            "c<-b" in line and "still read" in line
            for line in prog.report.fallbacks
        )
        got = prog(dict(params))
        oracle = repro.run_program(src, bindings=dict(params))
        assert got.to_list() == oracle.to_list()
        fused = compile_program(src, params=params)
        assert [c.members for c in fused.report.fused] == [["c", "b"]]
        assert fused(dict(params)).to_list() == got.to_list()

    def test_alias_protects_both_ends(self):
        src = """
        b = array (1,n) [ i := 1.0 * i | i <- [1..n] ];
        keep = b;
        c = array (1,n) [ i := b!i + 1.0 | i <- [1..n] ];
        main = array (1,n) [ i := c!i + keep!i | i <- [1..n] ]
        """
        params = {"n": 5}
        prog = compile_program(src, params=params)
        producers = {e.producer for e in prog.report.reuse_edges}
        assert "b" not in producers and "keep" not in producers
        got = prog(dict(params))
        oracle = repro.run_program(src, bindings=dict(params))
        assert got.to_list() == oracle.to_list()

    def test_external_input_never_reused(self):
        src = """
        c = array (1,n) [ i := ext!i + 1.0 | i <- [1..n] ];
        main = c
        """
        params = {"n": 4}
        prog = compile_program(src, params=params)
        assert prog.report.reuse_edges == []
        ext = repro.FlatArray(repro.Bounds(1, 4), [1.0, 2.0, 3.0, 4.0])
        out = prog({"n": 4, "ext": ext})
        assert out.to_list() == [2.0, 3.0, 4.0, 5.0]
        # the input array was not touched
        assert ext.to_list() == [1.0, 2.0, 3.0, 4.0]

    def test_bounds_mismatch_blocks_reuse(self):
        src = """
        b = array (1,n) [ i := 1.0 * i | i <- [1..n] ];
        main = array (1,n-1) [ i := b!i + b!(i+1) | i <- [1..n-1] ]
        """
        prog = compile_program(src, params={"n": 5})
        assert prog.report.reuse_edges == []
        assert any(
            "bounds not statically equal" in line
            for line in prog.report.fallbacks
        )

    def test_bigupd_dead_old_runs_in_place(self):
        spec = PROGRAM_CATALOG["program_swap"]
        prog = compile_program(spec["source"], params=spec["params"])
        assert [(e.consumer, e.producer, e.via)
                for e in prog.report.reuse_edges] == [("a1", "a0", "bigupd")]
        assert allocations(prog, spec["params"]) == 1

    def test_bigupd_live_old_copies_first(self):
        src = """
        a0 = array (1,n) [ i := 1.0 * i | i <- [1..n] ];
        a1 = bigupd a0 [ 1 := a0!n ];
        main = array (1,n) [ i := a1!i + a0!i | i <- [1..n] ]
        """
        params = {"n": 4}
        prog = compile_program(src, params=params)
        assert any(
            "bigupd" in line and "copies" in line
            for line in prog.report.fallbacks
        )
        got = prog(dict(params))
        oracle = repro.run_program(src, bindings=dict(params))
        assert got.to_list() == oracle.to_list()


# ----------------------------------------------------------------------
# The convergence-loop driver.


class TestIterate:
    def test_sor_runs_in_place_zero_steady_state_allocs(self):
        spec = PROGRAM_CATALOG["program_sor"]
        prog = compile_program(spec["source"], params=spec["params"])
        info = prog.report.binding("main")
        assert info.kind == "iterate"
        assert "mode inplace" in info.detail
        assert allocations(prog, spec["params"]) == 1  # just the seed

    def test_jacobi_double_buffers_with_recycling(self):
        # An int-celled seed: the one-block placement refuses it at run
        # time, so the list path's buffer recycling is what runs.
        spec = PROGRAM_CATALOG["program_jacobi"]
        source = spec["source"].replace(
            "then 1.0 * (i + j) else 0.0", "then i + j else 0")
        prog = compile_program(source, params=spec["params"])
        info = prog.report.binding("main")
        assert "mode double" in info.detail
        assert prog.steps[-1].iterate.block is not None
        assert any("recycling on" in line for line in prog.report.iterate)
        # seed + one sweep output, everything else recycled
        assert allocations(prog, spec["params"]) == 2

    def test_jacobi_block_path_allocates_two_buffers(self):
        # The float seed runs the one-block placement: the seed plus
        # two float64 buffers swapped each sweep, at any sweep count.
        spec = PROGRAM_CATALOG["program_jacobi_steps"]
        prog = compile_program(spec["source"], params=spec["params"])
        for k in (3, 30):
            assert allocations(prog, dict(spec["params"], k=k)) == 3

    def test_steps_and_tol_overrides(self):
        spec = PROGRAM_CATALOG["program_jacobi_steps"]
        prog = compile_program(spec["source"], params=spec["params"])
        params = dict(spec["params"])
        three = prog(params, steps=3)
        oracle = repro.run_program(
            PROGRAM_JACOBI_STEPS, bindings=dict(params, k=3)
        )
        assert three.to_list() == oracle.to_list()
        tight = prog(params, tol=1e-7)
        loose = prog(params, tol=1e-1)
        assert tight.to_list() != loose.to_list()

    def test_missing_control_binding_is_loud(self):
        # Forgetting to pass tol= must not leak a raw NameError.
        spec = PROGRAM_CATALOG["program_jacobi"]
        prog = compile_program(spec["source"], params={"m": 6})
        with pytest.raises(ProgramError, match="tol") as err:
            prog({"m": 6})
        assert "override" in str(err.value)

    def test_override_without_iterate_is_loud(self):
        prog = compile_program(
            "main = array (1,n) [ i := 1.0 | i <- [1..n] ]",
            params={"n": 3},
        )
        with pytest.raises(ProgramError, match="no iterate"):
            prog({"n": 3}, steps=2)

    def test_diverging_converge_fails_loudly(self):
        src = """
        u0 = array (1,1) [ 1 := 0.0 ];
        step u = array (1,1) [ 1 := u!1 + 1.0 ];
        main = converge step u0 tol
        """
        prog = compile_program(src, params={"tol": 1e-9})
        with pytest.raises(ProgramError, match="no fixpoint"):
            prog({"tol": 1e-9})

    def test_malformed_iterate_is_a_compile_error(self):
        src = """
        u0 = array (1,n) [ i := 1.0 | i <- [1..n] ];
        step u = array (1,n) [ i := u!i | i <- [1..n] ];
        main = iterate step u0
        """
        with pytest.raises(CompileError, match="iterate"):
            compile_program(src, params={"n": 3})

    def test_step_must_be_program_function(self):
        src = """
        u0 = array (1,n) [ i := 1.0 | i <- [1..n] ];
        main = iterate missing u0 3
        """
        with pytest.raises(CompileError, match="missing"):
            compile_program(src, params={"n": 3})

    def test_native_tolerance_never_rounds_up(self):
        """The native fold compares float64 deltas with a float64 tol;
        ``d <= t`` must hold exactly when ``d <= tol`` does."""
        from fractions import Fraction
        from math import inf

        from repro.program.run import _float_tol

        assert _float_tol(1e-6) == 1e-6
        assert _float_tol(2 ** 53 + 3) == 2 ** 53 + 2
        tenth = _float_tol(Fraction(1, 10))
        assert tenth <= Fraction(1, 10) < 0.1
        assert _float_tol(10 ** 400) == inf
        assert _float_tol(-10 ** 400) == -inf
        with pytest.raises(TypeError):
            _float_tol("1e-6")

    def test_external_seed_is_copied_not_mutated(self):
        src = """
        sweep u = letrec a = array (1,n)
           ([ 1 := u!1 ] ++ [ n := u!n ] ++
            [ i := 0.5 * (a!(i-1) + u!(i+1)) | i <- [2..n-1] ])
          in a;
        main = iterate sweep seed k
        """
        params = {"n": 5, "k": 3}
        prog = compile_program(src, params=params)
        seed = repro.FlatArray(repro.Bounds(1, 5),
                               [4.0, 0.0, 0.0, 0.0, 8.0])
        before = seed.to_list()
        out = prog(dict(params, seed=seed))
        assert seed.to_list() == before
        oracle = repro.run_program(src, bindings=dict(params, seed=seed))
        assert out.to_list() == oracle.to_list()


class TestCallGarbage:
    @pytest.mark.parametrize("ooc", [False, True])
    def test_warm_call_leaves_no_cyclic_garbage(self, ooc):
        # Every array of a call used to sit in a reference cycle (the
        # per-call interpreter's prelude, function bindings closing
        # over the scope that binds them), freed only by the cyclic GC.
        import gc

        from repro.codegen.emit import CodegenOptions
        from repro.kernels import PROGRAM_JACOBI

        prog = compile_program(
            PROGRAM_JACOBI, params={"m": 12, "tol": 1e-3},
            options=CodegenOptions(tile=4) if ooc else None, ooc=ooc,
        )
        (plan,) = [s.iterate for s in prog.steps if s.iterate]
        assert (plan.ooc is not None) == ooc
        prog({})
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            prog({})
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_function_result_stays_callable(self):
        prog = compile_program("g x = x * k; f x = g x + 1.0; main = f",
                               params={"k": 2})
        fn = prog({})
        assert fn(3.0) == 7.0
        assert prog({})(3.0) == 7.0


# ----------------------------------------------------------------------
# Facade dispatch, service, and pickling.


class TestFacade:
    def test_compile_auto_dispatches_programs(self):
        spec = PROGRAM_CATALOG["program_pipeline"]
        prog = repro.compile(spec["source"], params=spec["params"])
        assert isinstance(prog, CompiledProgram)

    def test_explicit_strategy_on_program_is_actionable(self):
        with pytest.raises(CompileError) as err:
            repro.compile(PROGRAM_PIPELINE, strategy="inplace",
                          old_array="b")
        message = str(err.value)
        assert "compile_program" in message
        assert "'b'" in message  # names the bindings

    def test_as_program_rejects_expressions(self):
        assert as_program("1 + 2") is None
        assert as_program(
            "letrec* a = array (1,3) [ i := i | i <- [1..3] ] in a"
        ) is None
        binds = as_program("a = 1; main = a")
        assert [b.name for b in binds] == ["a", "main"]

    def test_service_caches_programs(self):
        service = repro.CompileService()
        spec = PROGRAM_CATALOG["program_sor"]
        request = repro.CompileRequest(spec["source"], spec["params"],
                                       kind="program")
        first = service.submit(request).value()
        second = service.submit(request).value()
        assert first is second
        assert service.stats()["requests"]["misses"] == 1

    def test_cache_kwarg_routes_through_service(self):
        service = repro.CompileService()
        spec = PROGRAM_CATALOG["program_sor"]
        first = compile_program(spec["source"], params=spec["params"],
                                cache=service)
        second = repro.compile(spec["source"], params=spec["params"],
                               cache=service)
        assert first is second

    def test_renamed_program_compiles_to_its_own_names(self):
        params = {"m": 6, "k": 2}
        renamed = re.sub(r"\bmain\b", "out", re.sub(
            r"\bstep\b", "relax", PROGRAM_JACOBI_STEPS))
        service = repro.CompileService()
        service.submit(repro.CompileRequest(PROGRAM_JACOBI_STEPS, params))
        result = service.submit(repro.CompileRequest(renamed, params))
        assert result.ok and not result.cached
        assert result.compiled.report.result == "out"
        assert list(result.to_wire()["sources"]) == ["u0", "out"]
        src = "b = array (1,n) [ i := 1.0 * i | i <- [1..n] ]; main = b"
        assert fingerprint_program(src) != fingerprint_program(
            src.replace("b", "zz"))
        other = src.replace("n", "m")
        assert fingerprint_program(src) != fingerprint_program(other)
        assert (fingerprint_program(src, params={"n": 3})
                != fingerprint_program(src, params={"n": 4}))

    def test_disk_tier_roundtrip(self, tmp_path):
        spec = PROGRAM_CATALOG["program_pipeline"]
        first = compile_program(spec["source"], params=spec["params"],
                                cache=str(tmp_path))
        fresh = repro.CompileService(disk_dir=str(tmp_path))
        second = fresh.submit(repro.CompileRequest(
            spec["source"], spec["params"], kind="program")).value()
        assert second is not first  # came back through pickle
        assert (second(dict(spec["params"])).to_list()
                == first(dict(spec["params"])).to_list())

    def test_pickle_roundtrip(self):
        spec = PROGRAM_CATALOG["program_jacobi"]
        prog = compile_program(spec["source"], params=spec["params"])
        clone = pickle.loads(pickle.dumps(prog))
        assert (clone(dict(spec["params"])).to_list()
                == prog(dict(spec["params"])).to_list())
        assert clone.report.summary() == prog.report.summary()

    def test_summary_names_every_decision(self):
        spec = PROGRAM_CATALOG["program_pipeline"]
        prog = compile_program(spec["source"], params=spec["params"])
        summary = prog.report.summary()
        assert "topo order: c -> x -> main" in summary
        assert "fused: b -> c" in summary
        assert "reuse: x overwrites c" in summary
        assert "elided" in summary
        unfused = compile_program(spec["source"], params=spec["params"],
                                  fuse=False)
        summary = unfused.report.summary()
        assert "topo order: b -> c -> x -> main" in summary
        assert "reuse: c overwrites b" in summary
        assert "elided" in summary

    def test_missing_input_is_loud(self):
        prog = compile_program(
            "main = array (1,n) [ i := ext!i | i <- [1..n] ]",
            params={"n": 3},
        )
        with pytest.raises(Exception, match="ext"):
            prog({"n": 3})
