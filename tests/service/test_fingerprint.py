"""Request keys: what must collide, what must not."""

import os

import repro
from repro import CodegenOptions, CompileRequest, CompileService, kernels
from repro.lang import parse_expr, pretty
from repro.service import fingerprint, fingerprint_program
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
        # A renamed source is another request: its own key, compiled
        # to its own names.
        assert fingerprint(kernels.WAVEFRONT, {"n": 8}) != fingerprint(
            WAVEFRONT_RENAMED, {"n": 8}
        )
        service = CompileService()
        service.submit(CompileRequest(kernels.WAVEFRONT, {"n": 8}))
        renamed = service.submit(CompileRequest(WAVEFRONT_RENAMED, {"n": 8}))
        assert renamed.ok and not renamed.cached
        assert "loop col: either, forward" in \
            renamed.compiled.report.summary()
        assert "for row in" in renamed.compiled.source

    def test_whitespace_and_layout(self):
        # Layout never reaches the IR: its own key, the same module.
        flattened = " ".join(kernels.WAVEFRONT.split())
        assert fingerprint(kernels.WAVEFRONT, {"n": 8}) != fingerprint(
            flattened, {"n": 8}
        )
        assert repro.compile(flattened, params={"n": 8}).source == \
            repro.compile(kernels.WAVEFRONT, params={"n": 8}).source

    def test_repeated_calls_stable(self):
        first = fingerprint(kernels.SOR, {"m": 8, "omega": 1})
        second = fingerprint(kernels.SOR, {"m": 8, "omega": 1})
        assert first == second

    def test_accepts_parsed_ast(self):
        # A tree keys as its pretty rendering and compiles to the
        # module the text does.
        tree = parse_expr(kernels.SQUARES)
        assert fingerprint(tree, {"n": 5}) == fingerprint(pretty(tree),
                                                          {"n": 5})
        service = CompileService()
        built = service.submit(CompileRequest(tree, {"n": 5}))
        assert built.fingerprint == service.fingerprint_request(
            CompileRequest(pretty(tree), {"n": 5}))
        assert built.compiled.source == repro.compile(
            kernels.SQUARES, params={"n": 5}).source


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

    def test_workers_key_as_the_build_uses_them(self):
        # Without dist a build uses no workers; with dist and
        # workers <= 0 it uses this host's cores.
        src = kernels.PROGRAM_JACOBI_STEPS
        assert fingerprint_program(src, workers=4) == \
            fingerprint_program(src)
        assert fingerprint_program(src, dist=True) == fingerprint_program(
            src, dist=True, workers=os.cpu_count() or 1)
        assert fingerprint_program(src, dist=True, workers=2) != \
            fingerprint_program(src, dist=True, workers=3)
        service = CompileService()
        params = {"m": 6, "k": 2}
        first = service.submit(CompileRequest(src, params, workers=4))
        again = service.submit(CompileRequest(src, params))
        assert again.cached and again.compiled is first.compiled

    def test_mode_and_old_array_distinguish(self):
        base = fingerprint(kernels.JACOBI, {"m": 6})
        assert base != fingerprint(
            kernels.JACOBI, {"m": 6}, strategy="inplace", old_array="u"
        )
