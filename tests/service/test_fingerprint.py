"""Request keys: what must collide, what must not."""

import os

import repro
from repro import CodegenOptions, CompileRequest, CompileService, kernels
from repro.lang import parse_expr, pretty
from repro.service import fingerprint
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
        assert fingerprint(CompileRequest(kernels.WAVEFRONT, {"n": 8})) \
            != fingerprint(CompileRequest(WAVEFRONT_RENAMED, {"n": 8}))
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
        assert fingerprint(CompileRequest(kernels.WAVEFRONT, {"n": 8})) \
            != fingerprint(CompileRequest(flattened, {"n": 8}))
        assert repro.compile(flattened, params={"n": 8}).source == \
            repro.compile(kernels.WAVEFRONT, params={"n": 8}).source

    def test_repeated_calls_stable(self):
        first = fingerprint(CompileRequest(kernels.SOR, {"m": 8, "omega": 1}))
        second = fingerprint(CompileRequest(kernels.SOR, {"m": 8, "omega": 1}))
        assert first == second

    def test_accepts_parsed_ast(self):
        # A tree keys as its pretty rendering and compiles to the
        # module the text does.
        tree = parse_expr(kernels.SQUARES)
        assert fingerprint(CompileRequest(tree, {"n": 5})) == \
            fingerprint(CompileRequest(pretty(tree), {"n": 5}))
        service = CompileService()
        built = service.submit(CompileRequest(tree, {"n": 5}))
        assert built.fingerprint == service.fingerprint_request(
            CompileRequest(pretty(tree), {"n": 5}))
        assert built.compiled.source == repro.compile(
            kernels.SQUARES, params={"n": 5}).source


class TestDiscrimination:
    def test_params_distinguish(self):
        assert fingerprint(CompileRequest(kernels.WAVEFRONT, {"n": 8})) \
            != fingerprint(CompileRequest(kernels.WAVEFRONT, {"n": 9}))

    def test_options_distinguish(self):
        base = fingerprint(CompileRequest(kernels.SQUARES, {"n": 5}))
        assert base != fingerprint(CompileRequest(
            kernels.SQUARES, {"n": 5},
            options=CodegenOptions(vectorize=True),
        ))
        assert base != fingerprint(CompileRequest(
            kernels.SQUARES, {"n": 5},
            options=CodegenOptions(bounds_checks=True),
        ))

    def test_explicit_default_options_equal_auto(self):
        # None is CodegenOptions(): the pipeline adds the checks its
        # analysis needs to any options object, so it is one request.
        assert fingerprint(CompileRequest(kernels.SQUARES, {"n": 5})) == \
            fingerprint(CompileRequest(kernels.SQUARES, {"n": 5},
                                       options=CodegenOptions()))

    def test_strategy_distinguishes(self):
        assert fingerprint(CompileRequest(kernels.SQUARES, {"n": 5})) != \
            fingerprint(CompileRequest(kernels.SQUARES, {"n": 5},
                                       force_strategy="thunked"))

    def test_free_variable_renaming_distinguishes(self):
        # Free names (size params, input arrays) carry meaning.
        assert fingerprint(CompileRequest(
            "letrec* a = array (1,n) [ i := i | i <- [1..n] ] in a"
        )) != fingerprint(CompileRequest(
            "letrec* a = array (1,m) [ i := i | i <- [1..m] ] in a"
        ))

    def test_different_kernels_distinguish(self):
        fps = {
            fingerprint(CompileRequest(kernels.WAVEFRONT, {"n": 8})),
            fingerprint(CompileRequest(kernels.SQUARES, {"n": 8})),
            fingerprint(CompileRequest(kernels.FORWARD_RECURRENCE,
                                       {"n": 8})),
            fingerprint(CompileRequest(kernels.CYCLIC_FALLBACK)),
        }
        assert len(fps) == 4

    def test_salt_invalidates(self):
        request = CompileRequest(kernels.WAVEFRONT, {"n": 8})
        assert fingerprint(request) != fingerprint(
            request, salt=PIPELINE_SALT + "-next")

    def test_workers_key_as_the_build_uses_them(self):
        # Without dist a build uses no workers; with dist and
        # workers <= 0 it uses this host's cores.
        src = kernels.PROGRAM_JACOBI_STEPS
        assert fingerprint(CompileRequest(src, workers=4)) == \
            fingerprint(CompileRequest(src))
        assert fingerprint(CompileRequest(src, dist=True)) == fingerprint(
            CompileRequest(src, dist=True, workers=os.cpu_count() or 1))
        assert fingerprint(CompileRequest(src, dist=True, workers=2)) != \
            fingerprint(CompileRequest(src, dist=True, workers=3))
        service = CompileService()
        params = {"m": 6, "k": 2}
        first = service.submit(CompileRequest(src, params, workers=4))
        again = service.submit(CompileRequest(src, params))
        assert again.cached and again.compiled is first.compiled

    def test_mode_and_old_array_distinguish(self):
        base = fingerprint(CompileRequest(kernels.JACOBI, {"m": 6}))
        assert base != fingerprint(CompileRequest(
            kernels.JACOBI, {"m": 6}, strategy="inplace", old_array="u"
        ))
