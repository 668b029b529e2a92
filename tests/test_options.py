"""One meaning for ``CodegenOptions`` on every path.

``options=None`` is ``CodegenOptions()``; any options object gets every
runtime check the analysis could not discharge (the check fields only
force more); a non-python backend changes the emitter, never the checks
or the lowering mode, and falls back to python's module for the same
request; and a malformed value is refused at construction.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

import repro
from repro import CodegenOptions, FlatArray
from repro.backends.native import toolchain_status
from repro.codegen.exprs import CodegenError
from repro.core.pipeline import detect_strategy
from repro.kernels import CATALOG, EXAMPLE2, HISTOGRAM
from repro.runtime.errors import BoundsError, UndefinedElementError
from tests.backends.test_differential import _PARAMS

needs_cc = pytest.mark.skipif(
    toolchain_status() is not None,
    reason=f"native toolchain unavailable: {toolchain_status()}",
)

#: An index array whose cells leave the bins: k!1 = -3 (the oracle
#: raises BoundsError), and k!2 = 0 would wrap to the last bin unchecked.
HISTOGRAM_PROGRAM = """
k = array (1,n) [ i := (i * 3) - 6 | i <- [1..n] ];
main = accumArray (\\a b -> a + b) 0 (1,m) [ (k!i) := 1 | i <- [1..n] ]
"""
HISTOGRAM_PARAMS = {"n": 4, "m": 6}
OUT_OF_BINS = r"subscript -3 out of bounds \(1, 6\)"

MALFORMED = [{"tile": 0}, {"tile": -3}, {"tile": "big"}, {"tile": True},
             {"vectorize": "false"}, {"bounds_checks": 1},
             {"backend": None}, {"backend": "fortran"}]


def _compile_kwargs(name):
    spec = CATALOG[name]
    kwargs = {"params": _PARAMS[name],
              "strategy": detect_strategy(spec["source"])}
    if spec["kind"] == "inplace":
        kwargs.update(strategy="inplace", old_array=spec["old"])
    return kwargs


class TestSilentWrongAnswersAreGone:
    @needs_cc
    def test_c_program_raises_the_oracles_bounds_error(self):
        with pytest.raises(BoundsError, match=OUT_OF_BINS):
            repro.run_program(HISTOGRAM_PROGRAM, bindings=HISTOGRAM_PARAMS)
        program = repro.compile_program(
            HISTOGRAM_PROGRAM, params=HISTOGRAM_PARAMS,
            options=CodegenOptions(backend="c"))
        with pytest.raises(BoundsError, match=OUT_OF_BINS):
            program({})

    @needs_cc
    def test_c_histogram_raises_the_oracles_bounds_error(self):
        compiled = repro.compile(HISTOGRAM, params=HISTOGRAM_PARAMS,
                                 options=CodegenOptions(backend="c"))
        k = FlatArray.from_list((1, 4), [-3, 0, 3, 6])
        with pytest.raises(BoundsError, match=OUT_OF_BINS):
            compiled({"k": k})

    @pytest.mark.parametrize("options", [
        None, CodegenOptions(), CodegenOptions(vectorize=True),
        CodegenOptions(tile=2)], ids=["none", "default", "vectorize",
                                      "tile2"])
    def test_partial_example2_raises_on_its_first_unwritten_cell(
            self, options):
        compiled = repro.compile(EXAMPLE2, options=options)
        assert compiled.report.checks.empties_check
        with pytest.raises(UndefinedElementError,
                           match="element 1 has no definition"):
            compiled({})

    def test_check_fields_only_force_checks_on(self):
        forced = repro.compile(EXAMPLE2,
                               options=CodegenOptions(bounds_checks=True))
        checks = forced.report.checks
        assert checks.bounds_checks and checks.empties_check


class TestOneMeaning:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_none_is_the_default_object(self, name):
        kwargs = _compile_kwargs(name)
        auto = repro.compile(CATALOG[name]["source"], **kwargs)
        default = repro.compile(CATALOG[name]["source"],
                                options=CodegenOptions(), **kwargs)
        assert auto.source == default.source
        assert auto.report.summary() == default.report.summary()
        assert repro.fingerprint(
            repro.CompileRequest(CATALOG[name]["source"], **kwargs)
        ) == repro.fingerprint(repro.CompileRequest(
            CATALOG[name]["source"], options=CodegenOptions(), **kwargs))

    @needs_cc
    @pytest.mark.parametrize("tile", [None, 4])
    def test_a_c_fallback_is_pythons_module(self, tile):
        fallbacks = []
        for name, spec in sorted(CATALOG.items()):
            kwargs = _compile_kwargs(name)
            c = repro.compile(spec["source"], **kwargs,
                              options=CodegenOptions(backend="c", tile=tile))
            if c.report.backend_used != "python":
                continue
            fallbacks.append(name)
            py = repro.compile(spec["source"], **kwargs,
                               options=CodegenOptions(tile=tile))
            assert c.source == py.source, name
            assert c.report.strategy == py.report.strategy, name
            assert c.report.checks == dataclasses.replace(
                py.report.checks, backend="c"), name
        assert {"example2", "histogram", "permutation_scatter"} \
            <= set(fallbacks)

    def test_options_hash_by_value(self):
        # The service's memory tier keys on the options object, and
        # keys the defaults, by their cached flag, as None.
        assert hash(CodegenOptions(vectorize=True)) \
            == hash(CodegenOptions(vectorize=True))
        default = CodegenOptions()
        assert default.is_default and CodegenOptions.of(None).is_default
        assert not dataclasses.replace(default, vectorize=True).is_default


class TestMalformedValues:
    @pytest.mark.parametrize("fields", MALFORMED, ids=repr)
    def test_refused_at_construction(self, fields):
        with pytest.raises(CodegenError, match=next(iter(fields))):
            CodegenOptions(**fields)

    def test_a_dict_is_not_options(self):
        # Only the wire turns a dict into options; every in-process
        # entry names the type it wants.
        options = {"vectorize": True}
        with pytest.raises(TypeError, match="CodegenOptions"):
            repro.compile(repro.kernels.SQUARES, params={"n": 4},
                          options=options)
        with pytest.raises(TypeError, match="CodegenOptions"):
            repro.compile_program(HISTOGRAM_PROGRAM,
                                  params=HISTOGRAM_PARAMS, options=options)
        result = repro.CompileService().submit(repro.CompileRequest(
            repro.kernels.SQUARES, {"n": 4}, options=options))
        assert isinstance(result.error, TypeError)
        assert "CodegenOptions" in str(result.error)
        assert result.fingerprint is None


@needs_cc
def test_cli_c_run_exits_with_the_oracles_bounds_error(tmp_path):
    source = tmp_path / "hist.hs"
    source.write_text(HISTOGRAM_PROGRAM)
    # The child runs the tree under test.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "repro", "run", str(source), "--backend",
         "c", "-p", "n=4", "-p", "m=6"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode != 0
    assert "BoundsError: subscript -3 out of bounds (1, 6)" in run.stderr
