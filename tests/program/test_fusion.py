"""Cross-binding loop fusion: legality, reporting, and correctness.

The fusion pass may only fire when every consumer read of the producer
is provably distance zero after loop alignment and the producer is
dead afterwards; every rejection must surface a reason string in
``ProgramReport.fallbacks`` (and through ``explain`` under the
``fuse`` area).  The correctness bar is the usual one: fused output is
bit-identical to the unfused compile and to the lazy oracle.
"""

from hypothesis import given, settings, strategies as st

import repro
from repro.codegen.support import ALLOC_STATS
from repro.obs.explain import explain_report
from repro.program import compile_program


def fuse_fallbacks(report):
    return [f for f in report.fallbacks if f.startswith("fuse")]


def assert_same(got, oracle):
    assert got.bounds == oracle.bounds
    for subscript in got.bounds.range():
        assert got.at(subscript) == oracle.at(subscript), subscript


# ----------------------------------------------------------------------
# Acceptance: distance-zero chains collapse into one nest.


class TestAccept:
    SRC = """
    a = array (1,20) [ i := 1.0 * i * i | i <- [1..20] ];
    b = array (1,20) [ i := a!i * 2.0 | i <- [1..20] ];
    main = array (1,20) [ i := b!i + 1.0 | i <- [1..20] ]
    """

    def test_chain_fuses_and_matches_oracle(self):
        compiled = compile_program(self.SRC)
        report = compiled.report
        assert len(report.fused) == 1
        chain = report.fused[0]
        assert chain.host == "main"
        assert chain.members == ["a", "b"]
        assert chain.cells == 40 and chain.reads == 2
        # Fused-away bindings are pruned from the step list and
        # recorded as kind 'fused'.
        assert [s.name for s in compiled.steps] == ["main"]
        assert report.binding("a").kind == "fused"
        assert report.binding("b").kind == "fused"
        assert_same(compiled({}), repro.run_program(self.SRC))

    def test_fused_allocates_strictly_fewer_arrays(self):
        # Stage bounds differ, so the unfused path cannot equalize the
        # count through §9 buffer reuse — fusion's elision is visible
        # as a strictly smaller arrays_allocated.
        src = """
        a = array (2,9) [ i := 1.0 * i | i <- [2..9] ];
        main = array (1,8) [ i := a!(i+1) * 3.0 | i <- [1..8] ]
        """
        fused = compile_program(src)
        unfused = compile_program(src, fuse=False)
        assert fused.report.fused
        ALLOC_STATS.reset()
        fused({})
        n_fused = ALLOC_STATS.arrays_allocated
        ALLOC_STATS.reset()
        unfused({})
        n_unfused = ALLOC_STATS.arrays_allocated
        assert n_fused < n_unfused
        assert n_fused == 1

    def test_offset_alignment_fuses_shifted_reads(self):
        # The consumer's origin is shifted one cell: the producer is
        # read at i+1 over a reindexed but identical iteration space,
        # so alignment maps p -> c+1 and fusion is still exact.
        src = """
        a = array (2,9) [ i := 1.0 * i | i <- [2..9] ];
        main = array (1,8) [ i := a!(i+1) * 3.0 | i <- [1..8] ]
        """
        compiled = compile_program(src)
        assert len(compiled.report.fused) == 1
        assert_same(compiled({}), repro.run_program(src))

    def test_diamond_collapses_once_branches_fuse(self):
        # a feeds b and c (two consumers: rejected at first), but once
        # b and c fuse into main, a has one consumer left and the
        # whole diamond collapses.
        src = """
        a = array (1,8) [ i := 1.0 * i | i <- [1..8] ];
        b = array (1,8) [ i := a!i + 1.0 | i <- [1..8] ];
        c = array (1,8) [ i := a!i * 2.0 | i <- [1..8] ];
        main = array (1,8) [ i := b!i + c!i | i <- [1..8] ]
        """
        compiled = compile_program(src)
        report = compiled.report
        assert len(report.fused) == 1
        assert set(report.fused[0].members) == {"a", "b", "c"}
        assert not fuse_fallbacks(report)
        assert_same(compiled({}), repro.run_program(src))

    def test_fuse_false_disables_the_pass(self):
        compiled = compile_program(self.SRC, fuse=False)
        assert compiled.report.fused == []
        assert [s.name for s in compiled.steps] == ["a", "b", "main"]
        assert_same(compiled({}), repro.run_program(self.SRC))


# ----------------------------------------------------------------------
# Rejections: each illegal shape surfaces its reason.


class TestReject:
    def reasons(self, src):
        report = compile_program(src).report
        assert report.fused == []
        lines = fuse_fallbacks(report)
        assert lines, "rejection must not be silent"
        return "\n".join(lines)

    def test_loop_carried_read(self):
        reasons = self.reasons("""
        a = array (1,8) [ i := 1.0 * i | i <- [1..8] ];
        main = array (1,8)
          [ i := (if i > 1 then a!(i-1) else 0.0) + a!i | i <- [1..8] ]
        """)
        assert "loop-carried" in reasons
        assert "direction vectors" in reasons

    def test_multi_consumer_producer(self):
        reasons = self.reasons("""
        a = array (1,8) [ i := 1.0 * i | i <- [1..8] ];
        b = bigupd a [ 3 := 9.0 ];
        main = array (1,8) [ i := a!i + b!i | i <- [1..8] ]
        """)
        assert "2 live consumers" in reasons
        assert "must materialize" in reasons

    def test_live_producer_result_alias(self):
        # b is (an alias of) the program result: it must materialize,
        # and the rejection names the consumer's non-array kind.
        src = """
        a = array (1,8) [ i := 1.0 * i | i <- [1..8] ];
        b = array (1,8) [ i := a!i + 1.0 | i <- [1..8] ];
        main = b
        """
        report = compile_program(src).report
        # a -> b still fuses; b itself survives as the result buffer.
        assert len(report.fused) == 1
        assert report.fused[0].host == "b"
        reasons = "\n".join(fuse_fallbacks(report))
        assert "not a plain array comprehension" in reasons

    def test_bigupd_producer(self):
        reasons = self.reasons("""
        a = array (1,8) [ i := 1.0 * i | i <- [1..8] ];
        b = bigupd a [ 3 := 9.0 ];
        main = array (1,8) [ i := b!i + 1.0 | i <- [1..8] ]
        """)
        assert "bigupd" in reasons
        assert "cannot be inlined" in reasons

    def test_guarded_producer(self):
        reasons = self.reasons("""
        a = array (1,8) [ i := 1.0 * i | i <- [1..8], i > 0 ];
        main = array (1,8) [ i := a!i + 1.0 | i <- [1..8] ]
        """)
        assert "guard mismatch" in reasons

    def test_iteration_space_mismatch(self):
        reasons = self.reasons("""
        a = array (1,9) [ i := 1.0 * i | i <- [1..9] ];
        main = array (1,8) [ i := a!i + 1.0 | i <- [1..8] ]
        """)
        assert "iteration spaces differ" in reasons

    def test_multi_clause_producer(self):
        reasons = self.reasons("""
        a = array (1,8)
          ([ 1 := 0.0 ] ++ [ i := 1.0 * i | i <- [2..8] ]);
        main = array (1,8) [ i := a!i + 1.0 | i <- [1..8] ]
        """)
        assert "2 clauses" in reasons

    def test_rejected_chain_still_matches_oracle(self):
        src = """
        a = array (1,8) [ i := 1.0 * i | i <- [1..8] ];
        main = array (1,8)
          [ i := (if i > 1 then a!(i-1) else 0.0) + a!i | i <- [1..8] ]
        """
        compiled = compile_program(src)
        assert_same(compiled({}), repro.run_program(src))


# ----------------------------------------------------------------------
# explain: fusion decisions appear under the 'fuse' area.


class TestExplain:
    def test_accepted_chain_is_a_fuse_decision(self):
        compiled = compile_program(TestAccept.SRC)
        decisions = explain_report(compiled.report).by_area("fuse")
        assert any(d.verdict == "accepted" and "main" in d.subject
                   for d in decisions)

    def test_rejections_route_to_the_fuse_area(self):
        src = """
        a = array (1,8) [ i := 1.0 * i | i <- [1..8] ];
        main = array (1,8)
          [ i := (if i > 1 then a!(i-1) else 0.0) + a!i | i <- [1..8] ]
        """
        decisions = explain_report(compile_program(src).report)
        rejected = [d for d in decisions.by_area("fuse")
                    if d.verdict == "rejected"]
        assert rejected and "loop-carried" in rejected[0].reason
        # Nothing fusion-related leaks into the reuse area.
        assert not any("fuse" in d.reason for d in
                       decisions.by_area("reuse"))


# ----------------------------------------------------------------------
# Randomized differential oracle: fused vs unfused vs lazy reference.


STAGE_KINDS = ("map", "scale", "clamp", "shift")


@st.composite
def fusable_chain(draw):
    n = draw(st.integers(4, 12))
    depth = draw(st.integers(1, 4))
    stages = [draw(st.sampled_from(STAGE_KINDS)) for _ in range(depth)]
    coeffs = [draw(st.integers(1, 5)) for _ in range(depth)]
    return n, stages, coeffs


def render_chain(n, stages, coeffs):
    lines = [f"s0 = array (1,{n}) [ i := 1.0 * i * i | i <- [1..{n}] ]"]
    for k, (kind, coeff) in enumerate(zip(stages, coeffs), start=1):
        prev, name = f"s{k - 1}", f"s{k}"
        if kind == "map":
            body = f"{prev}!i + {coeff}.0"
        elif kind == "scale":
            body = f"{prev}!i * {coeff}.0"
        elif kind == "clamp":
            body = (f"if {prev}!i > {coeff}.0 then {coeff}.0 "
                    f"else {prev}!i")
        else:  # shift: reindexed origin, still distance zero aligned
            body = f"{prev}!i - 0.{coeff}"
        lines.append(
            f"{name} = array (1,{n}) [ i := {body} | i <- [1..{n}] ]"
        )
    lines.append(f"main = s{len(stages)}")
    return ";\n".join(lines)


class TestRandomizedDifferential:
    @given(fusable_chain())
    @settings(max_examples=30, deadline=None)
    def test_fused_equals_unfused_equals_oracle(self, chain):
        n, stages, coeffs = chain
        src = render_chain(n, stages, coeffs)
        fused = compile_program(src)({})
        unfused = compile_program(src, fuse=False)({})
        oracle = repro.run_program(src)
        assert_same(fused, unfused)
        assert_same(fused, oracle)

    @given(fusable_chain())
    @settings(max_examples=10, deadline=None)
    def test_fused_never_allocates_more(self, chain):
        n, stages, coeffs = chain
        src = render_chain(n, stages, coeffs)
        fused = compile_program(src)
        unfused = compile_program(src, fuse=False)
        ALLOC_STATS.reset()
        fused({})
        n_fused = ALLOC_STATS.arrays_allocated
        ALLOC_STATS.reset()
        unfused({})
        n_unfused = ALLOC_STATS.arrays_allocated
        # §9 reuse can equalize the counts on same-bounds chains, but
        # fusion must never allocate *more*; a fully collapsed chain
        # runs in exactly one buffer.
        assert n_fused <= n_unfused
        if fused.report.fused and len(fused.steps) == 1:
            assert n_fused == 1


# ----------------------------------------------------------------------
# Service integration: fuse= reaches the fingerprint.


class TestServiceKeying:
    def test_fuse_flag_changes_the_program_fingerprint(self):
        from repro.service import CompileRequest, fingerprint

        src = TestAccept.SRC
        assert fingerprint(CompileRequest(src, fuse=True)) != \
            fingerprint(CompileRequest(src, fuse=False))

    def test_service_keeps_fused_and_unfused_plans_apart(self):
        from repro.service.service import CompileRequest, CompileService

        service = CompileService()

        def compile_program(**kwargs):
            return service.submit(CompileRequest(
                TestAccept.SRC, kind="program", **kwargs)).value()

        fused = compile_program()
        unfused = compile_program(fuse=False)
        assert fused is not unfused
        assert fused is compile_program()
        assert unfused is compile_program(fuse=False)
        assert fused.report.fused and not unfused.report.fused
