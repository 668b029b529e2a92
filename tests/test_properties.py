"""Property-based end-to-end tests: compiled code vs the lazy oracle.

Random recurrences are generated as surface source, compiled through
the full pipeline, and compared element-by-element against the
reference interpreter.  Whatever strategy the compiler picks
(thunkless, possibly with split passes and backward loops, or the
thunked fallback), the values must agree — this is the master safety
property of the whole system.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import CompileError, evaluate
from repro.runtime.errors import ArrayError

# ----------------------------------------------------------------------
# Random 1-D recurrences over a single loop with several clauses.
#
# Clause template k (of `stride` clauses) writes `stride*i - k` and may
# read another clause's element at a bounded instance offset, guarded
# to stay within the loop range.


@st.composite
def recurrence_1d(draw):
    stride = draw(st.integers(1, 3))
    trip = draw(st.integers(3, 10))
    clauses = []
    for k in range(stride):
        has_read = draw(st.booleans())
        if has_read:
            target = draw(st.integers(0, stride - 1))
            offset = draw(st.integers(-2, 2))
            if offset == 0 and target == k:
                offset = 1  # avoid element self-dependence
            clauses.append((k, target, offset))
        else:
            clauses.append((k, None, None))
    return stride, trip, clauses


def render_1d(stride, trip, clauses):
    parts = []
    for k, target, offset in clauses:
        write = f"{stride}*i - {k}" if k else f"{stride}*i"
        if target is None:
            value = f"i + {k}"
        else:
            read_ix = f"{stride}*(i + {offset}) - {target}"
            low_ok = f"i + {offset} >= 1"
            high_ok = f"i + {offset} <= {trip}"
            value = (
                f"(if {low_ok} && {high_ok} then a!({read_ix}) else 0)"
                f" + i + {k}"
            )
        parts.append(f"[ {write} := {value} ]")
    body = " ++ ".join(parts)
    return (
        f"letrec* a = array ({stride * 1 - (stride - 1)},{stride * trip})\n"
        f"  [* {body} | i <- [1..{trip}] *]\nin a"
    )


@settings(max_examples=120, deadline=None)
@given(recurrence_1d())
def test_random_1d_recurrences_match_oracle(case):
    stride, trip, clauses = case
    src = render_1d(stride, trip, clauses)
    try:
        oracle = evaluate(src, deep=False)
        want = [oracle.at(s) for s in oracle.bounds.range()]
        oracle_error = None
    except ArrayError as exc:
        want = None
        oracle_error = type(exc)

    try:
        compiled = repro.compile(src, strategy="array")
    except CompileError:
        # Static rejection is only allowed for genuinely erroneous
        # definitions (certain collisions); our generator never makes
        # those, so a CompileError would be a bug.
        raise AssertionError(f"compiler rejected a valid program:\n{src}")

    if oracle_error is not None:
        # The program is semantically bottom (a true element cycle);
        # whatever code was generated must also fail.
        with pytest.raises(Exception):
            compiled({})
        return
    got = compiled({})
    assert got.to_list() == want, src


# ----------------------------------------------------------------------
# Random 2-D stencils over the paper's wavefront shape.


@st.composite
def stencil_2d(draw):
    n = draw(st.integers(3, 7))
    offsets = draw(
        st.lists(
            st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(
                lambda d: d != (0, 0)
            ),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return n, offsets


def render_2d(n, offsets):
    reads = []
    for di, dj in offsets:
        read = f"a!(i + {di}, j + {dj})"
        guard = (
            f"i + {di} >= 1 && i + {di} <= {n} && "
            f"j + {dj} >= 1 && j + {dj} <= {n}"
        )
        reads.append(f"(if {guard} then {read} else 0)")
    value = " + ".join(reads + ["10*i + j"])
    return (
        f"letrec* a = array ((1,1),({n},{n}))\n"
        f"  [ (i,j) := {value} | i <- [1..{n}], j <- [1..{n}] ]\nin a"
    )


@settings(max_examples=60, deadline=None)
@given(stencil_2d())
def test_random_2d_stencils_match_oracle(case):
    n, offsets = case
    src = render_2d(n, offsets)
    try:
        oracle = evaluate(src, deep=False)
        want = [oracle.at(s) for s in oracle.bounds.range()]
        oracle_error = None
    except ArrayError as exc:
        want = None
        oracle_error = type(exc)

    compiled = repro.compile(src, strategy="array")
    if oracle_error is not None:
        with pytest.raises(Exception):
            compiled({})
        return
    assert compiled({}).to_list() == want, src


# ----------------------------------------------------------------------
# Reductions: deforested codegen vs interpreter.


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 15),
    coefficient=st.integers(-3, 3),
    modulus=st.integers(2, 5),
)
def test_random_reductions_match_oracle(n, coefficient, modulus):
    src = (
        f"letrec* a = array (1,{n}) "
        f"[ i := sum [ {coefficient}*k | k <- [1..i], "
        f"mod k {modulus} == 0 ] | i <- [1..{n}] ] in a"
    )
    compiled = repro.compile(src, strategy="array")
    oracle = evaluate(src, deep=False)
    assert compiled({}).to_list() == [
        oracle.at(i) for i in range(1, n + 1)
    ]
