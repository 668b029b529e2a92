"""Loop interchange (§8.2/§10 extension)."""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import CodegenOptions, evaluate
from repro.comprehension.build import build_array_comp, find_array_comp
from repro.core.dependence import flow_edges
from repro.core.interchange import (
    interchange,
    perfect_rectangular_nest,
    plan_interchanges,
)
from repro.lang.parser import parse_expr

COLUMN_RECURRENCE = """
letrec a = array ((1,1),(m,m))
  ([ (i,1) := 0.5 * fromIntegral i | i <- [1..m] ] ++
   [ (i,j) := a!(i,j-1) + 1.0 | i <- [1..m], j <- [2..m] ])
in a
"""


def comp_of(src, params=None):
    name, bounds_ast, pairs_ast = find_array_comp(parse_expr(src))
    return build_array_comp(name, bounds_ast, pairs_ast, params)


class TestRecognition:
    def test_perfect_nest_recognized(self):
        comp = comp_of(COLUMN_RECURRENCE, {"m": 6})
        nest = comp.roots[1]
        assert perfect_rectangular_nest(nest) is not None

    def test_imperfect_nest_rejected(self):
        src = """
        array (1,100)
          [* [ 10*i := 0.0 ] ++
             [* [ 10*i + j := 1.0 ] | j <- [1..9] *]
           | i <- [1..9] *]
        """
        comp = comp_of(src)
        assert perfect_rectangular_nest(comp.roots[0]) is None

    def test_symbolic_bounds_rejected(self):
        comp = comp_of(COLUMN_RECURRENCE)  # no params: counts unknown
        assert perfect_rectangular_nest(comp.roots[1]) is None

    def test_planner_targets_inner_carried(self):
        comp = comp_of(COLUMN_RECURRENCE, {"m": 6})
        proposals = plan_interchanges(comp, flow_edges(comp))
        assert len(proposals) == 1
        assert proposals[0].var == "i"

    def test_planner_skips_outer_carried(self):
        from repro.kernels import WAVEFRONT

        comp = comp_of(WAVEFRONT, {"n": 6})
        # The wavefront interior carries dependences at *both* levels.
        assert plan_interchanges(comp, flow_edges(comp)) == []

    def test_planner_skips_dependence_free(self):
        src = """
        array ((1,1),(4,4))
          [ (i,j) := 1.0 | i <- [1..4], j <- [1..4] ]
        """
        comp = comp_of(src)
        assert plan_interchanges(comp, flow_edges(comp)) == []


class TestTransformation:
    def test_directions_flip(self):
        comp = comp_of(COLUMN_RECURRENCE, {"m": 6})
        before = {e.direction for e in flow_edges(comp)
                  if e.src is e.dst}
        assert before == {("=", "<")}
        interchange(comp, comp.roots[1])
        after = {e.direction for e in flow_edges(comp)
                 if e.src is e.dst}
        assert after == {("<", "=")}

    def test_clause_loop_chains_updated(self):
        comp = comp_of(COLUMN_RECURRENCE, {"m": 6})
        interchange(comp, comp.roots[1])
        interior = comp.clauses[1]
        assert [loop.var for loop in interior.loops] == ["j", "i"]

    def test_rejects_non_perfect(self):
        comp = comp_of(COLUMN_RECURRENCE)  # symbolic: not rectangular
        with pytest.raises(ValueError):
            interchange(comp, comp.roots[1])


class TestEndToEnd:
    def test_interchange_enables_vectorization(self):
        m = 8
        vec = repro.compile(COLUMN_RECURRENCE, strategy="array",
                            params={"m": m},
                            options=CodegenOptions(vectorize=True))
        assert any("interchanged" in n for n in vec.report.notes)
        assert "_vslice(" in vec.source
        oracle = evaluate(COLUMN_RECURRENCE, bindings={"m": m}, deep=False)
        want = [float(oracle.at(s)) for s in oracle.bounds.range()]
        assert vec({"m": m}).to_list() == want

    def test_without_vectorize_no_interchange(self):
        plain = repro.compile(COLUMN_RECURRENCE, strategy="array",
                              params={"m": 8})
        assert not any("interchanged" in n for n in plain.report.notes)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 8), offset=st.integers(1, 2))
def test_interchanged_matches_oracle(m, offset):
    """Random column recurrences survive interchange + vectorize."""
    if offset >= m:
        return
    src = f"""
    letrec a = array ((1,1),({m},{m}))
      ([ (i,j) := 1.0 * fromIntegral (i + j)
         | i <- [1..{m}], j <- [1..{offset}] ] ++
       [ (i,j) := a!(i,j-{offset}) + 1.0
         | i <- [1..{m}], j <- [{offset + 1}..{m}] ])
    in a
    """
    vec = repro.compile(src, strategy="array",
                        options=CodegenOptions(vectorize=True))
    oracle = evaluate(src, deep=False)
    want = [float(oracle.at(s)) for s in oracle.bounds.range()]
    assert vec({}).to_list() == pytest.approx(want)
