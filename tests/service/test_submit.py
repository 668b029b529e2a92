"""The typed submit() API: one request in, one result out; cache
warming."""

from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro import CompileRequest, CompileService, kernels
from repro.service.api import CompileResult

SRC = "array (1,8) [ (i) := i*i | i <- [1..8] ]"
BAD = "((( this never parses"


class TestSubmitSingle:
    def test_definition(self):
        result = CompileService().submit(CompileRequest(SRC))
        assert isinstance(result, CompileResult)
        assert result.ok and result.kind == "definition"
        assert result.fingerprint and not result.cached
        assert result.value() is result.compiled
        assert result.elapsed_s > 0

    def test_kind_auto_detects_program(self):
        result = CompileService().submit(CompileRequest(
            kernels.PROGRAM_PIPELINE, params={"n": 12},
        ))
        assert result.ok and result.kind == "program"

    def test_hit_sets_cached_and_tier(self):
        service = CompileService()
        service.submit(CompileRequest(SRC))
        again = service.submit(CompileRequest(SRC))
        assert again.cached and again.tier == "memory"
        assert again.compiled is service.submit(CompileRequest(SRC)).compiled

    def test_error_is_captured_not_raised(self):
        result = CompileService().submit(CompileRequest(BAD))
        assert not result.ok and result.error is not None
        with pytest.raises(type(result.error)):
            result.value()

    def test_bad_kind_is_an_errored_result(self):
        result = CompileService().submit(CompileRequest(SRC, kind="spell"))
        assert not result.ok and "unknown request kind" in str(result.error)

    @pytest.mark.parametrize("request_", [
        [CompileRequest(SRC)],
        (SRC, {"n": 8}),
        {"src": SRC, "params": {"n": 8}},
        SRC,
    ], ids=["list", "tuple", "dict", "source"])
    def test_only_a_request_is_taken(self, request_):
        service = CompileService()
        with pytest.raises(TypeError, match="CompileRequest"):
            service.submit(request_)
        with pytest.raises(TypeError, match="CompileRequest"):
            service.invalidate(request_)
        with pytest.raises(TypeError, match="CompileRequest"):
            repro.fingerprint(request_)
        assert service.stats()["requests"]["errors"] == 0


class TestSubmitBatch:
    def test_batch_isolates_errors(self):
        service = CompileService()
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(
                service.submit, [CompileRequest(SRC), CompileRequest(BAD)]))
        assert results[0].ok and not results[1].ok

    def test_warm_only_still_compiles_and_caches(self):
        service = CompileService()
        warm = service.submit(CompileRequest(SRC, warm_only=True))
        assert warm.ok and warm.warm_only and not warm.cached
        hot = service.submit(CompileRequest(SRC))
        assert hot.cached and hot.tier == "memory"

    def test_warmup_routes_program_sources(self):
        """Regression: program sources used to fail the definition
        parser when warming; kind auto-detection now routes them."""
        service = CompileService()
        warm = service.submit(CompileRequest(
            kernels.PROGRAM_PIPELINE, params={"n": 12}, warm_only=True,
        ))
        assert warm.ok and warm.kind == "program" and not warm.cached
        hot = service.submit(CompileRequest(
            kernels.PROGRAM_PIPELINE, params={"n": 12},
        ))
        assert hot.cached and hot.kind == "program"
