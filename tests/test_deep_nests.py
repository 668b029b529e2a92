"""Three-level loop nests: analysis, scheduling, codegen end to end.

The paper's formalism is depth-generic (§6's d-deep dependence
equations, §8.2's recursive nested-loop scheduling); these tests
exercise the machinery beyond the two levels of the worked examples.
"""

import pytest

import repro
from repro import analyze, evaluate
from repro.core.direction import refine_directions
from repro.core.subscripts import LoopInfo, Reference, build_equations
from repro.core.affine import Affine

# A 3-D wavefront: each element depends on its three "lower" axis
# neighbours.
WAVE3D = """
letrec* a = array ((1,1,1),(n,n,n))
  [ (i,j,k) :=
      (if i > 1 then a!(i-1,j,k) else 0) +
      (if j > 1 then a!(i,j-1,k) else 0) +
      (if k > 1 then a!(i,j,k-1) else 0) + 1
  | i <- [1..n], j <- [1..n], k <- [1..n] ]
in a
"""

# Middle loop carries the dependence; outer and inner are free.
MIDDLE_CARRIED = """
letrec* a = array ((1,1,1),(n,n,n))
  [ (i,j,k) := (if j > 1 then a!(i,j-1,k) else 0) + i + k
  | i <- [1..n], j <- [1..n], k <- [1..n] ]
in a
"""


def ref_wave3d(n):
    a = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                a[(i, j, k)] = (
                    (a[(i - 1, j, k)] if i > 1 else 0)
                    + (a[(i, j - 1, k)] if j > 1 else 0)
                    + (a[(i, j, k - 1)] if k > 1 else 0)
                    + 1
                )
    return a


class TestDepth3Analysis:
    def test_direction_vectors(self):
        report = analyze(WAVE3D, {"n": 5})
        directions = {e.direction for e in report.edges}
        assert ("<", "=", "=") in directions
        assert ("=", "<", "=") in directions
        assert ("=", "=", "<") in directions

    def test_schedule_all_forward(self):
        report = analyze(WAVE3D, {"n": 5})
        assert report.schedule.ok
        assert report.schedule.loop_directions() == {
            "i": ["forward"], "j": ["forward"], "k": ["forward"],
        }

    def test_middle_carried_only(self):
        report = analyze(MIDDLE_CARRIED, {"n": 4})
        directions = report.schedule.loop_directions()
        assert directions["i"] == ["either"]
        assert directions["j"] == ["forward"]
        assert directions["k"] == ["either"]
        # Innermost k is vectorizable; middle j is not.
        assert "k" in report.vectorizable

    def test_hyperplane_3d(self):
        report = analyze(WAVE3D, {"n": 6})
        profile = report.parallelism[0]
        assert profile.hyperplane == (1, 1, 1)
        assert profile.steps == 3 * 5 + 1
        assert profile.work == 216

    def test_collisions_and_empties_proved(self):
        report = analyze(WAVE3D, {"n": 4})
        assert report.collision.status == "none"
        assert report.empties.status == "none"


class TestDepth3Execution:
    def test_compiled_matches_reference(self):
        n = 5
        compiled = repro.compile(WAVE3D, strategy="array", params={"n": n})
        assert compiled.report.strategy == "thunkless"
        out = compiled({"n": n})
        want = ref_wave3d(n)
        for sub in out.bounds.range():
            assert out.at(sub) == want[sub]

    def test_compiled_matches_oracle(self):
        n = 3
        compiled = repro.compile(WAVE3D, strategy="array", params={"n": n})
        oracle = evaluate(WAVE3D, bindings={"n": n}, deep=False)
        out = compiled({"n": n})
        assert out.to_list() == [
            oracle.at(s) for s in oracle.bounds.range()
        ]

    def test_thunked_matches(self):
        n = 3
        thunked = repro.compile(WAVE3D, strategy="array", params={"n": n},
                                force_strategy="thunked")
        thunkless = repro.compile(WAVE3D, strategy="array", params={"n": n})
        assert thunked({"n": n}).to_list() == thunkless({"n": n}).to_list()

    def test_backward_middle_loop(self):
        src = """
        letrec* a = array ((1,1,1),(n,n,n))
          [ (i,j,k) := (if j < n then a!(i,j+1,k) else 0) + k
          | i <- [1..n], j <- [1..n], k <- [1..n] ]
        in a
        """
        n = 4
        report = analyze(src, {"n": n})
        assert report.schedule.loop_directions()["j"] == ["backward"]
        compiled = repro.compile(src, strategy="array", params={"n": n})
        oracle = evaluate(src, bindings={"n": n}, deep=False)
        assert compiled({"n": n}).to_list() == [
            oracle.at(s) for s in oracle.bounds.range()
        ]

    def test_vectorized_inner_k(self):
        from repro import CodegenOptions

        n = 4
        compiled = repro.compile(MIDDLE_CARRIED, strategy="array",
                                 params={"n": n},
                                 options=CodegenOptions(vectorize=True))
        oracle = evaluate(MIDDLE_CARRIED, bindings={"n": n}, deep=False)
        out = compiled({"n": n})
        assert out.to_list() == pytest.approx([
            float(oracle.at(s)) for s in oracle.bounds.range()
        ])


class TestDepth3Subscripts:
    def test_refinement_depth3(self):
        loops = tuple(LoopInfo(v, 6) for v in "ijk")
        write = Reference(
            "a",
            (Affine.var("i"), Affine.var("j"), Affine.var("k")),
            loops, is_write=True,
        )
        read = Reference(
            "a",
            (Affine(-1, {"i": 1}), Affine.var("j"), Affine(-2, {"k": 1})),
            loops,
        )
        dirs = refine_directions(build_equations(write, read),
                                 verify_exact=True)
        assert dirs == {("<", "=", "<")}

    def test_independent_at_depth3(self):
        loops = tuple(LoopInfo(v, 6) for v in "ijk")
        write = Reference(
            "a",
            (Affine.var("i", 2), Affine.var("j"), Affine.var("k")),
            loops, is_write=True,
        )
        read = Reference(
            "a",
            (Affine(1, {"i": 2}), Affine.var("j"), Affine.var("k")),
            loops,
        )
        assert refine_directions(build_equations(write, read)) == set()
