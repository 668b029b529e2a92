"""Canonical fingerprints: what must collide, what must not."""

import pytest

from repro import CodegenOptions, kernels
from repro.service import canonical_comp, canonical_expr, fingerprint
from repro.service.fingerprint import PIPELINE_SALT

#: The wavefront kernel under a consistent renaming of every bound
#: name (the array and both generator indices).
WAVEFRONT_RENAMED = """
letrec* grid = array ((1,1),(n,n))
   ([ (1,col) := 1 | col <- [1..n] ] ++
    [ (row,1) := 1 | row <- [2..n] ] ++
    [ (row,col) := grid!(row-1,col) + grid!(row,col-1)
                   + grid!(row-1,col-1)
      | row <- [2..n], col <- [2..n] ])
in grid
"""


class TestInvariance:
    def test_bound_variable_renaming(self):
        assert fingerprint(kernels.WAVEFRONT, {"n": 8}) == fingerprint(
            WAVEFRONT_RENAMED, {"n": 8}
        )

    def test_whitespace_and_layout(self):
        flattened = " ".join(kernels.WAVEFRONT.split())
        assert fingerprint(kernels.WAVEFRONT, {"n": 8}) == fingerprint(
            flattened, {"n": 8}
        )

    def test_repeated_calls_stable(self):
        first = fingerprint(kernels.SOR, {"m": 8, "omega": 1})
        second = fingerprint(kernels.SOR, {"m": 8, "omega": 1})
        assert first == second

    def test_accepts_parsed_ast(self):
        from repro.lang.parser import parse_expr

        assert fingerprint(
            parse_expr(kernels.SQUARES), {"n": 5}
        ) == fingerprint(kernels.SQUARES, {"n": 5})


class TestDiscrimination:
    def test_params_distinguish(self):
        assert fingerprint(kernels.WAVEFRONT, {"n": 8}) != fingerprint(
            kernels.WAVEFRONT, {"n": 9}
        )

    def test_options_distinguish(self):
        base = fingerprint(kernels.SQUARES, {"n": 5})
        assert base != fingerprint(
            kernels.SQUARES, {"n": 5},
            options=CodegenOptions(vectorize=True),
        )
        assert base != fingerprint(
            kernels.SQUARES, {"n": 5},
            options=CodegenOptions(bounds_checks=True),
        )

    def test_explicit_default_options_equal_auto(self):
        # None is CodegenOptions(): the pipeline adds the checks its
        # analysis needs to any options object, so it is one request.
        assert fingerprint(kernels.SQUARES, {"n": 5}) == fingerprint(
            kernels.SQUARES, {"n": 5}, options=CodegenOptions()
        )

    def test_strategy_distinguishes(self):
        assert fingerprint(kernels.SQUARES, {"n": 5}) != fingerprint(
            kernels.SQUARES, {"n": 5}, force_strategy="thunked"
        )

    def test_free_variable_renaming_distinguishes(self):
        # Free names (size params, input arrays) carry meaning.
        assert fingerprint(
            "letrec* a = array (1,n) [ i := i | i <- [1..n] ] in a"
        ) != fingerprint(
            "letrec* a = array (1,m) [ i := i | i <- [1..m] ] in a"
        )

    def test_different_kernels_distinguish(self):
        fps = {
            fingerprint(kernels.WAVEFRONT, {"n": 8}),
            fingerprint(kernels.SQUARES, {"n": 8}),
            fingerprint(kernels.FORWARD_RECURRENCE, {"n": 8}),
            fingerprint(kernels.CYCLIC_FALLBACK),
        }
        assert len(fps) == 4

    def test_salt_invalidates(self):
        base = fingerprint(kernels.WAVEFRONT, {"n": 8})
        assert base != fingerprint(
            kernels.WAVEFRONT, {"n": 8}, salt=PIPELINE_SALT + "-next"
        )

    def test_mode_and_old_array_distinguish(self):
        base = fingerprint(kernels.JACOBI, {"m": 6})
        assert base != fingerprint(
            kernels.JACOBI, {"m": 6}, strategy="inplace", old_array="u"
        )


class TestCanonicalForms:
    def test_canonical_expr_alpha_equivalence(self):
        assert canonical_expr(r"\x -> x + y") == canonical_expr(
            r"\z -> z + y"
        )
        assert canonical_expr(r"\x -> x") != canonical_expr(r"\x -> y")

    def test_canonical_expr_let_kinds_distinguished(self):
        assert canonical_expr("let a = 1 in a") != canonical_expr(
            "letrec a = 1 in a"
        )

    def test_canonical_comp_loop_ids(self):
        from repro.comprehension.build import (
            build_array_comp,
            find_array_comp,
        )
        from repro.lang.parser import parse_expr

        name, bounds, pairs = find_array_comp(
            parse_expr(kernels.WAVEFRONT)
        )
        comp = build_array_comp(name, bounds, pairs, {"n": 4})
        text = canonical_comp(comp)
        assert "%L0" in text and "%self" in text
        # No surface identifier from the source leaks through for
        # bound names.
        assert "(var a)" not in text

    def test_front_end_errors_propagate(self):
        with pytest.raises(Exception):
            fingerprint("letrec* a = array", {"n": 4})
