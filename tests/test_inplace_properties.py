"""Property-based tests for in-place compilation (paper §9).

Random uniform stencils are compiled for in-place execution and
compared against a pure (fresh-buffer) reference computed from the
same source.  Whatever mix of direct reads, hoists, snapshot rings, or
the whole-copy fallback the planner chooses, the values must agree.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import FlatArray
from repro.runtime import incremental


@st.composite
def stencil_case_1d(draw):
    n = draw(st.integers(4, 12))
    offsets = draw(
        st.lists(
            st.integers(-3, 3).filter(lambda d: d != 0),
            min_size=1, max_size=3, unique=True,
        )
    )
    margin = max(abs(d) for d in offsets)
    if margin + 2 > n:
        n = margin + 3
    return n, offsets


def render_stencil_1d(n, offsets):
    margin = max(abs(d) for d in offsets)
    low = 1 + margin
    high = n - margin
    reads = " + ".join(f"u!(i + {d})" for d in offsets)
    return (
        f"array (1,{n}) [* i := {reads} + 0.5 "
        f"| i <- [{low}..{high}] *]"
    )


def reference_1d(cells, n, offsets):
    margin = max(abs(d) for d in offsets)
    out = list(cells)
    for i in range(1 + margin, n - margin + 1):
        out[i - 1] = sum(cells[i + d - 1] for d in offsets) + 0.5
    return out


@settings(max_examples=100, deadline=None)
@given(stencil_case_1d())
def test_random_1d_stencils_inplace(case):
    n, offsets = case
    src = render_stencil_1d(n, offsets)
    compiled = repro.compile(src, strategy="inplace", old_array="u",
                             params={"n": n})
    cells = [float((k * 13 + 5) % 11) for k in range(n)]
    arr = FlatArray.from_list((1, n), list(cells))
    out = compiled({"u": arr})
    assert out.to_list() == pytest.approx(reference_1d(cells, n, offsets))


@st.composite
def stencil_case_2d(draw):
    m = draw(st.integers(4, 8))
    offsets = draw(
        st.lists(
            st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(
                lambda d: d != (0, 0)
            ),
            min_size=1, max_size=4, unique=True,
        )
    )
    return m, offsets


def render_stencil_2d(m, offsets):
    reads = " + ".join(
        f"u!(i + {di}, j + {dj})" for di, dj in offsets
    )
    return (
        f"array ((1,1),({m},{m})) "
        f"[* (i,j) := {reads} | i <- [2..{m}-1], j <- [2..{m}-1] *]"
    )


def reference_2d(cells, m, offsets):
    def at(r, c):
        return cells[(r - 1) * m + (c - 1)]

    out = list(cells)
    for r in range(2, m):
        for c in range(2, m):
            out[(r - 1) * m + (c - 1)] = sum(
                at(r + di, c + dj) for di, dj in offsets
            )
    return out


@settings(max_examples=100, deadline=None)
@given(stencil_case_2d())
def test_random_2d_stencils_inplace(case):
    m, offsets = case
    src = render_stencil_2d(m, offsets)
    compiled = repro.compile(src, strategy="inplace", old_array="u",
                             params={"m": m})
    cells = [float((k * 7 + 3) % 9) for k in range(m * m)]
    arr = FlatArray.from_list(((1, 1), (m, m)), list(cells))
    out = compiled({"u": arr})
    assert out.to_list() == pytest.approx(reference_2d(cells, m, offsets))


@settings(max_examples=50, deadline=None)
@given(stencil_case_2d())
def test_copy_traffic_bounded_by_buffers(case):
    """Node-splitting traffic is bounded by (rings x interior): at most
    one scalar-ring copy and one row-ring copy per written element —
    i.e. O(n) per outer iteration, the paper's factor-n claim.  (At
    tiny sizes the constant can exceed one whole-array copy; the
    asymptotic comparison is asserted in benchmark E7.)"""
    m, offsets = case
    src = render_stencil_2d(m, offsets)
    compiled = repro.compile(src, strategy="inplace", old_array="u",
                             params={"m": m})
    cells = [0.0] * (m * m)
    arr = FlatArray.from_list(((1, 1), (m, m)), cells)
    incremental.STATS.reset()
    compiled({"u": arr})
    interior = (m - 2) ** 2
    max_distance = 3  # generator offsets are within [-1, 1] per level
    assert incremental.STATS.cells_copied <= 2 * max_distance * interior


def test_mixed_flow_and_anti_fuzz():
    """Gauss-Seidel-like mixes at several sizes and offsets."""
    for m in (5, 7, 10):
        src = f"""
        letrec a = array ((1,1),({m},{m}))
          [* (i,j) := 0.25 * (a!(i-1,j) + a!(i,j-1)
                              + u!(i+1,j) + u!(i,j+1))
           | i <- [2..{m}-1], j <- [2..{m}-1] *]
        in a
        """
        from repro.kernels import ref_gauss_seidel

        compiled = repro.compile(src, strategy="inplace", old_array="u",
                                 params={"m": m})
        cells = [float((k * 3 + 1) % 7) for k in range(m * m)]
        arr = FlatArray.from_list(((1, 1), (m, m)), list(cells))
        out = compiled({"u": arr})
        assert out.to_list() == pytest.approx(ref_gauss_seidel(cells, m))
