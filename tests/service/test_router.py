"""One router: ``repro.compile``, the compile service and the HTTP wire
compile a request the same way (:func:`repro.core.pipeline.build`).

The service once had a dispatcher of its own that defaulted to
``strategy="array"`` and ignored the fields the facade refuses; these
cases pin what each path must now agree on.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
import repro.core.pipeline as pipeline_mod
from repro import CompileError, CompileRequest, CompileService, kernels
from repro.codegen.support import FlatArray
from repro.lang import parse_expr, parse_program
from repro.lang.errors import ParseError
from repro.program import classify_source
from repro.runtime.bounds import Bounds
from repro.service.fingerprint import fingerprint, request_key
from tests.serve.test_server import LiveServer

HISTOGRAM = (kernels.HISTOGRAM, {"n": 4, "m": 6})
BIGUPD = "bigupd a [ i := a!i + 1 | i <- [1..n] ]"
DEFINITION = (kernels.SQUARES, {"n": 4})
PROGRAM = (kernels.PROGRAM_JACOBI_STEPS, {"m": 6, "k": 2})

#: Program-only fields, and whether ``repro.compile`` takes them.
PROGRAM_FIELDS = {
    "dist": ({"dist": True, "workers": 2}, True),
    "ooc": ({"ooc": True}, True),
    "result": ({"result": "zzz"}, False),
    "fuse": ({"fuse": False}, False),
}
#: Definition-only fields (``repro.compile`` takes them all).
DEFINITION_FIELDS = {
    "strategy": {"strategy": "array"},
    "force_strategy": {"force_strategy": "thunked"},
    "old_array": {"old_array": "b"},
}


@pytest.fixture(scope="module")
def live():
    server = LiveServer()
    yield server
    server.close()


class TestOneDefault:
    def test_strategy_defaults_to_auto(self):
        assert CompileRequest("x").strategy == "auto"
        assert CompileRequest.from_wire({"src": "x"}).strategy == "auto"
        assert "strategy" not in CompileRequest("x").to_wire()

    def test_histogram_accumulates_through_the_service(self):
        src, params = HISTOGRAM
        result = CompileService().submit(CompileRequest(src, params))
        assert result.ok, result.error
        assert result.compiled.report.strategy == "accumulate"
        keys = FlatArray(Bounds(1, 4), [1, 1, 2, 3])
        out = result.compiled({**params, "k": keys}).to_list()
        oracle = repro.evaluate(src, {**params, "k": keys})
        assert out == [oracle[i] for i in range(1, 7)]
        assert out == [2, 1, 1, 0, 0, 0]

    def test_histogram_accumulates_over_the_wire(self, live):
        src, params = HISTOGRAM
        status, body = live.request("POST", "/v1/compile",
                                    {"src": src, "params": params})
        assert status == 200, body
        assert body["strategy"] == "accumulate"
        assert body["source"] == repro.compile(src, params=params).source

    @pytest.mark.parametrize("request_", [
        CompileRequest(BIGUPD, {"n": 4}),
        CompileRequest(*DEFINITION, old_array="b"),
    ], ids=["bigupd", "old_array"])
    def test_in_place_without_a_strategy(self, request_):
        result = CompileService().submit(request_)
        assert result.ok, result.error
        assert result.compiled.report.strategy == "inplace"
        direct = repro.compile(request_.src, params=request_.params,
                               old_array=request_.old_array)
        assert result.compiled.source == direct.source


class TestFieldRules:
    @pytest.mark.parametrize("field", sorted(PROGRAM_FIELDS))
    def test_program_fields_on_a_definition(self, live, field):
        fields, facade_takes_it = PROGRAM_FIELDS[field]
        src, params = DEFINITION
        result = CompileService().submit(
            CompileRequest(src, params, **fields))
        assert isinstance(result.error, CompileError)
        assert "single definition" in str(result.error)
        if facade_takes_it:
            with pytest.raises(CompileError) as err:
                repro.compile(src, params=params, **fields)
            assert str(err.value) == str(result.error)
        status, body = live.request("POST", "/v1/compile",
                                    {"src": src, "params": params, **fields})
        assert status == 422
        assert body["error"] == {"type": "CompileError",
                                 "message": str(result.error)}

    @pytest.mark.parametrize("field", sorted(DEFINITION_FIELDS))
    def test_definition_fields_on_a_program(self, live, field):
        fields = DEFINITION_FIELDS[field]
        src, params = PROGRAM
        result = CompileService().submit(
            CompileRequest(src, params, **fields))
        assert isinstance(result.error, CompileError)
        assert result.kind == "program"
        with pytest.raises(CompileError) as err:
            repro.compile(src, params=params, **fields)
        assert str(err.value) == str(result.error)
        assert "compile_program" in str(err.value)
        status, body = live.request("POST", "/v1/compile",
                                    {"src": src, "params": params, **fields})
        assert status == 422
        assert body["error"]["message"] == str(result.error)

    def test_border_types_are_400(self, live):
        src, params = DEFINITION
        status, body = live.request(
            "POST", "/v1/compile",
            {"src": src, "params": params, "dist": "false"})
        assert status == 400 and "dist" in body["reason"]


class TestKindIsNotKeyed:
    def test_kind_is_not_a_key_field(self):
        src, params = DEFINITION
        keys = {request_key(CompileRequest(src, params, kind=kind))
                for kind in ("auto", "definition", "program")}
        assert len(keys) == 1

    @pytest.mark.parametrize("name", sorted(kernels.CATALOG))
    def test_no_definition_parses_as_a_program(self, name):
        with pytest.raises(ParseError):
            classify_source(kernels.CATALOG[name]["source"], "program")

    @pytest.mark.parametrize("name", sorted(kernels.PROGRAM_CATALOG))
    def test_no_program_parses_as_an_expression(self, name):
        with pytest.raises(ParseError):
            classify_source(kernels.PROGRAM_CATALOG[name]["source"],
                            "definition")

    def test_facade_fingerprint_keys_a_program_as_compile_program(self):
        src, params = PROGRAM
        assert fingerprint(CompileRequest(src, params)) == fingerprint(
            CompileRequest(src, params, kind="program"))


def _cold_and_warm(request, warm_first):
    cold = CompileService().submit(request)
    service = CompileService()
    assert service.submit(warm_first).ok
    warm = service.submit(request)
    return cold, warm


class TestExplicitKinds:
    @pytest.mark.parametrize("src, params, kind", [
        (*DEFINITION, "program"),
        (*PROGRAM, "definition"),
    ], ids=["definition-as-program", "program-as-definition"])
    def test_contradicted_hit_fails_as_a_cold_service(self, src, params,
                                                      kind):
        cold, warm = _cold_and_warm(CompileRequest(src, params, kind=kind),
                                    CompileRequest(src, params))
        assert isinstance(cold.error, ParseError)
        assert type(warm.error) is type(cold.error)
        assert str(warm.error) == str(cold.error)
        assert warm.kind == cold.kind == kind
        assert not warm.cached and warm.fingerprint is None

    @pytest.mark.parametrize("tree, kind", [
        (parse_expr(DEFINITION[0]), "program"),
        (parse_program(PROGRAM[0]), "definition"),
    ], ids=["expression-as-program", "bindings-as-definition"])
    def test_parsed_input_of_the_other_shape_is_refused(self, tree, kind):
        with pytest.raises(CompileError, match=f"kind={kind!r}"):
            classify_source(tree, kind)
        params = DEFINITION[1] if kind == "program" else PROGRAM[1]
        cold, warm = _cold_and_warm(CompileRequest(tree, params, kind=kind),
                                    CompileRequest(tree, params))
        assert isinstance(cold.error, CompileError)
        assert str(warm.error) == str(cold.error)
        assert warm.kind == cold.kind

    @pytest.mark.parametrize("order", [("auto", "program"),
                                       ("program", "auto")])
    def test_concurrent_kinds_fail_as_on_a_cold_service(self, monkeypatch,
                                                        order):
        real = pipeline_mod._drive

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "_drive", slow)
        src, params = DEFINITION
        service = CompileService()
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(service.submit, [
                CompileRequest(src, params, kind=kind) for kind in order]))
        for kind, result in zip(order, results):
            if kind == "auto":
                assert result.ok and result.kind == "definition"
            else:
                assert isinstance(result.error, ParseError)
                assert result.kind == "program"
