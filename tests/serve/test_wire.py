"""The versioned wire schema: round-trips, validation, envelopes."""

import pytest

from repro import CodegenOptions, kernels
from repro.service.api import (
    WIRE_SCHEMA,
    CompileRequest,
    WireError,
    decode_requests,
    options_from_wire,
    options_to_wire,
)

SRC = "array (1,8) [ (i) := i*i | i <- [1..8] ]"


def encode_requests(requests):
    """Wrap wire requests in the versioned envelope, as a client does."""
    return {
        "schema": WIRE_SCHEMA,
        "requests": [req.to_wire() for req in requests],
    }


class TestRequestRoundTrip:
    def test_minimal(self):
        req = CompileRequest(SRC)
        wire = req.to_wire()
        assert wire == {"src": SRC}
        assert CompileRequest.from_wire(wire) == req

    def test_full(self):
        req = CompileRequest(
            kernels.JACOBI, params={"m": 8}, strategy="inplace",
            old_array="u", kind="definition",
        )
        assert CompileRequest.from_wire(req.to_wire()) == req

    def test_program_fields(self):
        req = CompileRequest(
            kernels.PROGRAM_PIPELINE, params={"n": 12},
            kind="program", result="main", fuse=False,
        )
        wire = req.to_wire()
        assert wire["kind"] == "program"
        assert wire["fuse"] is False
        assert CompileRequest.from_wire(wire) == req

    def test_warm_only_round_trips(self):
        req = CompileRequest(SRC, warm_only=True)
        assert CompileRequest.from_wire(req.to_wire()).warm_only

    def test_defaults_are_omitted(self):
        wire = CompileRequest(SRC, params={"n": 4}).to_wire()
        assert set(wire) == {"src", "params"}

    def test_options_round_trip(self):
        options = CodegenOptions(vectorize=True)
        req = CompileRequest(SRC, options=options)
        back = CompileRequest.from_wire(req.to_wire())
        assert back.options == options

    def test_options_default_instance_stays_empty(self):
        assert options_to_wire(CodegenOptions()) == {}
        assert options_from_wire(None) is None


class TestValidation:
    def test_non_string_source_refuses_wire(self):
        from repro import parse_expr

        req = CompileRequest(parse_expr(SRC))
        with pytest.raises(WireError, match="string sources"):
            req.to_wire()

    def test_unknown_request_field(self):
        with pytest.raises(WireError, match="unknown request field"):
            CompileRequest.from_wire({"src": SRC, "sorcery": True})

    def test_missing_src(self):
        with pytest.raises(WireError, match="string 'src'"):
            CompileRequest.from_wire({"params": {"n": 4}})

    def test_bad_kind(self):
        with pytest.raises(WireError, match="kind must be"):
            CompileRequest.from_wire({"src": SRC, "kind": "spell"})

    def test_bad_params(self):
        with pytest.raises(WireError, match="params must be"):
            CompileRequest.from_wire({"src": SRC, "params": [1, 2]})

    def test_unknown_option(self):
        with pytest.raises(WireError, match="unknown option"):
            options_from_wire({"warp_speed": 9})

    def test_removed_thread_option_is_named(self):
        with pytest.raises(WireError,
                           match=r"unknown option\(s\): parallel_threads"):
            CompileRequest.from_wire(
                {"src": SRC, "options": {"parallel_threads": 2}})

    def test_removed_parallel_option_is_named(self):
        # ``vectorize`` runs the wavefronts; ``parallel`` is gone.
        with pytest.raises(WireError,
                           match=r"unknown option\(s\): parallel$"):
            CompileRequest.from_wire(
                {"src": SRC, "options": {"parallel": True}})
        request = CompileRequest.from_wire(
            {"src": SRC, "options": {"vectorize": True}})
        assert request.options.vectorize

    @pytest.mark.parametrize("field, value", [
        ("dist", "false"), ("ooc", "false"), ("fuse", "false"),
        ("warm_only", "false"), ("dist", 1), ("fuse", None),
        ("strategy", 5), ("strategy", None), ("kind", None),
        ("force_strategy", 1), ("old_array", ["u"]), ("result", False),
        ("params", {"n": "4"}), ("params", {"n": True}),
        ("params", {"n": None}),
    ], ids=repr)
    def test_field_types_are_checked_not_coerced(self, field, value):
        with pytest.raises(WireError, match=f"^{field} must be"):
            CompileRequest.from_wire({"src": SRC, field: value})

    def test_null_and_number_fields_pass(self):
        request = CompileRequest.from_wire({
            "src": SRC, "force_strategy": None, "old_array": None,
            "result": None, "params": {"n": 8, "tol": 1e-3},
            "dist": False, "ooc": False, "fuse": True, "warm_only": False,
        })
        assert request == CompileRequest(SRC, {"n": 8, "tol": 1e-3})

    @pytest.mark.parametrize("options", [
        {"tile": 0}, {"tile": -3}, {"tile": "big"}, {"tile": True},
        {"vectorize": "false"}, {"backend": "fortran"}], ids=repr)
    def test_malformed_option_value_is_a_wire_error(self, options):
        with pytest.raises(WireError, match="bad option value"):
            CompileRequest.from_wire({"src": SRC, "options": options})


class TestEnvelopes:
    def test_encode_decode(self):
        requests = [CompileRequest(SRC), CompileRequest(SRC, {"n": 4})]
        envelope = encode_requests(requests)
        assert envelope["schema"] == WIRE_SCHEMA
        assert decode_requests(envelope) == requests

    def test_bare_single_object(self):
        assert decode_requests({"src": SRC}) == [CompileRequest(SRC)]

    def test_bare_object_may_carry_the_timeout(self):
        # The server reads the body's timeout_s; the request is the
        # same with or without it, as in an envelope.
        assert decode_requests({"src": SRC, "timeout_s": 5}) == [
            CompileRequest(SRC)]
        envelope = dict(encode_requests([CompileRequest(SRC)]),
                        timeout_s=5)
        assert decode_requests(envelope) == [CompileRequest(SRC)]

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(WireError, match="unsupported wire schema"):
            decode_requests({"schema": "repro-serve/999",
                             "requests": [{"src": SRC}]})

    def test_empty_requests_rejected(self):
        with pytest.raises(WireError, match="non-empty"):
            decode_requests({"schema": WIRE_SCHEMA, "requests": []})

    def test_non_object_body_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            decode_requests([{"src": SRC}])
