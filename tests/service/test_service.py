"""CompileService: accounting, dedup, pipeline wiring."""

import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
import repro.core.pipeline as pipeline_mod
from repro import (
    CompileError,
    CompileRequest,
    CompileResult,
    CompileService,
    kernels,
)
from repro.service import render_stats, resolve_cache
from repro.service.service import default_service


def compile_one(service, src, **kwargs):
    """One definition request through ``submit``; raises its error."""
    return service.submit(
        CompileRequest(src, kind="definition", **kwargs)).value()


@pytest.fixture
def counting_pipeline(monkeypatch):
    """Count (and optionally slow down) real pipeline invocations."""
    calls = {"count": 0, "delay": 0.0}
    real = pipeline_mod._drive

    def wrapper(*args, **kwargs):
        calls["count"] += 1
        if calls["delay"]:
            time.sleep(calls["delay"])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "_drive", wrapper)
    return calls


class TestAccounting:
    def test_miss_then_hit(self, counting_pipeline):
        service = CompileService()
        first = compile_one(service, kernels.WAVEFRONT, params={"n": 6})
        second = compile_one(service, kernels.WAVEFRONT, params={"n": 6})
        assert first is second
        assert counting_pipeline["count"] == 1
        stats = service.stats()["requests"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["memory_hits"] == 1
        assert stats["requests"] == 2
        assert 0 < stats["hit_rate"] < 1

    def test_hit_skips_dependence_analysis(self, monkeypatch):
        """The acceptance check: a cache hit runs no analysis pass."""
        service = CompileService()
        compiled = compile_one(service, kernels.WAVEFRONT, params={"n": 6})

        def boom(*args, **kwargs):
            raise AssertionError("dependence analysis re-ran on a hit")

        monkeypatch.setattr(pipeline_mod, "flow_edges", boom)
        again = compile_one(service, kernels.WAVEFRONT, params={"n": 6})
        assert again is compiled
        assert service.stats()["requests"]["hits"] == 1

    def test_cached_result_equals_uncached(self):
        service = CompileService()
        compile_one(service, kernels.WAVEFRONT, params={"n": 6})
        cached = compile_one(service, kernels.WAVEFRONT, params={"n": 6})
        uncached = repro.compile(kernels.WAVEFRONT, params={"n": 6})
        assert cached.source == uncached.source
        assert (cached({"n": 6}).to_list()
                == uncached({"n": 6}).to_list())

    def test_renamed_source_gets_its_own_entry(self, counting_pipeline):
        renamed = re.sub(r"\bj\b", "c",
                         re.sub(r"\bi\b", "r", kernels.WAVEFRONT))
        service = CompileService()
        first = service.submit(CompileRequest(kernels.WAVEFRONT, {"n": 6}))
        again = service.submit(CompileRequest(renamed, {"n": 6}))
        assert again.ok and not again.cached
        assert again.compiled is not first.compiled
        assert counting_pipeline["count"] == 2
        direct = repro.compile(renamed, params={"n": 6})
        assert again.compiled.source == direct.source
        assert "for r in" in direct.source and "for i in" not in direct.source
        assert again.compiled.report.summary() == direct.report.summary()
        assert "loop c: either, forward" in direct.report.summary()

    def test_lru_eviction_shows_in_stats(self, counting_pipeline):
        service = CompileService(capacity=1)
        compile_one(service, kernels.SQUARES, params={"n": 4})
        compile_one(service, kernels.SQUARES, params={"n": 5})
        compile_one(service, kernels.SQUARES, params={"n": 4})  # evicted
        assert counting_pipeline["count"] == 3
        assert service.stats()["store"]["memory"]["evictions"] == 2

    def test_errors_are_counted_and_propagate(self):
        service = CompileService()
        with pytest.raises(CompileError):
            compile_one(service, kernels.SQUARES, params={"n": 4},
                        force_strategy="bogus")
        assert service.stats()["requests"]["errors"] == 1

    def test_invalidate_forces_recompile(self, counting_pipeline):
        service = CompileService()
        compile_one(service, kernels.SQUARES, params={"n": 4})
        assert service.invalidate(
            CompileRequest(kernels.SQUARES, {"n": 4})) is True
        compile_one(service, kernels.SQUARES, params={"n": 4})
        assert counting_pipeline["count"] == 2

    @pytest.mark.parametrize("src, params", [
        (kernels.SQUARES, {"n": 4}),
        (kernels.PROGRAM_JACOBI_STEPS, {"m": 6, "k": 2}),
    ], ids=["definition", "program"])
    def test_invalidate_drops_a_cached_facade_entry(self, src, params):
        # repro.compile(..., cache=) stores a definition with strategy
        # "auto", and a program with the default program fields; kind
        # is not keyed, so the plain request names either entry.
        service = CompileService()
        first = repro.compile(src, params=params, cache=service)
        assert repro.compile(src, params=params, cache=service) is first
        assert service.invalidate(CompileRequest(src, params)) is True
        assert service.invalidate(CompileRequest(src, params)) is False
        assert repro.compile(src, params=params, cache=service) \
            is not first

    @pytest.mark.parametrize("tier", ["memory", "disk"])
    @pytest.mark.parametrize("src, params", [
        (kernels.SQUARES, {"n": 4}),
        (kernels.PROGRAM_JACOBI_STEPS, {"m": 6, "k": 2}),
    ], ids=["definition", "program"])
    def test_invalidate_finds_the_submitted_entry(self, tmp_path, tier,
                                                  src, params):
        # invalidate keys the request as submit does, so a program's
        # entry can be dropped too, from whichever tier holds it, and
        # is dropped once.
        CompileService(disk_dir=tmp_path).submit(
            CompileRequest(src, params)).value()
        service = CompileService(disk_dir=tmp_path)
        first = service.submit(CompileRequest(src, params))
        assert first.tier == "disk"
        if tier == "memory":
            assert service.submit(CompileRequest(src, params)).tier \
                == "memory"
        assert service.invalidate(CompileRequest(src, params)) is True
        rebuilt = service.submit(CompileRequest(src, params))
        assert rebuilt.ok and not rebuilt.cached
        assert service.invalidate(CompileRequest(src, params)) is True
        assert service.invalidate(CompileRequest(src, params)) is False
        assert not service.submit(CompileRequest(src, params)).cached

    def test_salt_separates_services(self, tmp_path, counting_pipeline):
        first = CompileService(disk_dir=tmp_path, salt="v1")
        compile_one(first, kernels.SQUARES, params={"n": 4})
        bumped = CompileService(disk_dir=tmp_path, salt="v2")
        compile_one(bumped, kernels.SQUARES, params={"n": 4})
        assert counting_pipeline["count"] == 2
        assert bumped.stats()["requests"]["disk_hits"] == 0

    def test_disk_tier_survives_service_restart(self, tmp_path,
                                                counting_pipeline):
        compile_one(CompileService(disk_dir=tmp_path),
                    kernels.WAVEFRONT, params={"n": 6})
        reborn = CompileService(disk_dir=tmp_path)
        compiled = compile_one(reborn, kernels.WAVEFRONT, params={"n": 6})
        assert counting_pipeline["count"] == 1
        assert reborn.stats()["requests"]["disk_hits"] == 1
        assert compiled({"n": 6}).to_list()
        assert "disk tier" in reborn.summary()


#: Failing requests, with the error type, message and result kind
#: each must keep.  All but "program build" fail before the store
#: lookup; it parses as a program and fails to build.
FAILURES = {
    "lex": (CompileRequest(
        "array (1,n) [ i := i $ 2 | i <- [1..n] ]", {"n": 4}),
        "LexError", "1:22: unexpected character '$'", "definition"),
    "parse": (CompileRequest(
        "array (1,n) [ i := | i <- [1..n] ]", {"n": 4}),
        "ParseError", "1:20: expected an expression (found '|')",
        "definition"),
    "program as definition": (CompileRequest(
        kernels.PROGRAM_JACOBI_STEPS, {"m": 6, "k": 2},
        kind="definition"),
        "ParseError", "2:4: unexpected input after expression "
        "(found '=')", "definition"),
    "definition as program": (CompileRequest(
        kernels.WAVEFRONT, {"n": 6}, kind="program"),
        "ParseError", "2:1: expected identifier (found 'letrec*')",
        "program"),
    "empty": (CompileRequest(""),
              "ParseError", "1:1: expected an expression (found '')",
              "definition"),
    "neither": (CompileRequest("a = 1; 2 +"),
                "ParseError", "1:3: unexpected input after expression "
                "(found '=')", "definition"),
    "program build": (CompileRequest(
        kernels.PROGRAM_JACOBI_STEPS, {"m": 6, "k": 2}, result="nosuch"),
        "CompileError", "result binding 'nosuch' is not defined; the "
        "program defines 'u0', 'step', 'main'", "program"),
}


class TestFailedRequests:
    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_error_keeps_type_message_and_kind(self, case):
        request, error, message, kind = FAILURES[case]
        result = CompileService().submit(request)
        assert type(result.error).__name__ == error
        assert str(result.error) == message
        assert result.kind == kind and result.fingerprint is None

    def test_coalesced_failure_reports_the_parsed_kind(self,
                                                       monkeypatch):
        import repro.program.compile as program_mod

        real = program_mod.compile_program

        def slow(*args, **kwargs):
            time.sleep(0.3)
            return real(*args, **kwargs)

        monkeypatch.setattr(program_mod, "compile_program", slow)
        service = CompileService()
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(service.submit,
                                    [FAILURES["program build"][0]] * 2))
        assert service.stats()["requests"]["coalesced"] == 1
        assert [type(result.error).__name__ for result in results] \
            == ["CompileError"] * 2
        assert [result.kind for result in results] == ["program"] * 2

    def test_every_failed_request_is_counted_once(self):
        service = CompileService()
        results = [service.submit(request)
                   for request, *_ in FAILURES.values()]
        assert not any(result.ok for result in results)
        # A build failure (counted where the build runs) and a repeat
        # of a front-end failure, which no entry answers.
        service.submit(CompileRequest(kernels.SQUARES, {"n": 4},
                                      force_strategy="bogus"))
        service.submit(FAILURES["lex"][0])
        stats = service.stats()["requests"]
        assert stats["errors"] == len(FAILURES) + 2
        # requests and hit_rate count hits, misses and coalesced
        # requests; a failed build records no miss.
        assert stats["requests"] == 0 and stats["hit_rate"] == 0.0


class TestHitTime:
    def test_hit_time_is_what_the_caller_waited(self, tmp_path):
        # Disk hits on a fresh service: every request misses the
        # memory tier, so each one computes its fingerprint and reads
        # the disk before it is answered.
        requests = [
            CompileRequest(kernels.PROGRAM_JACOBI_STEPS, {"m": 6, "k": 2}),
            CompileRequest(kernels.PROGRAM_PIPELINE, {"n": 12}),
            CompileRequest(kernels.WAVEFRONT, {"n": 6}),
            CompileRequest(kernels.SOR_MONOLITHIC, {"m": 6, "omega": 1.5}),
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(CompileService(disk_dir=tmp_path).submit,
                          requests))
        service = CompileService(disk_dir=tmp_path)
        results = [service.submit(request) for request in requests]
        assert [result.tier for result in results] == ["disk"] * 4
        waited = sum(result.elapsed_s for result in results)
        hit_time = service.stats()["requests"]["hit_time"]
        assert hit_time["count"] == 4
        assert abs(hit_time["total_s"] - waited) <= 0.1 * waited


class TestBatch:
    """A caller's batch: its own threads, each submitting one request."""

    def test_bad_entry_does_not_kill_batch(self):
        service = CompileService()
        with ThreadPoolExecutor(max_workers=3) as pool:
            results = list(pool.map(service.submit, [
                CompileRequest(kernels.SQUARES, {"n": 3}),
                CompileRequest("letrec* broken = array", {"n": 3}),
                CompileRequest(kernels.SQUARES, {"n": 4}),
            ]))
        assert [r.ok for r in results] == [True, False, True]
        assert isinstance(results[1], CompileResult)
        assert results[1].error is not None
        assert results[1].compiled is None

    def test_duplicate_requests_compile_once(self, counting_pipeline):
        counting_pipeline["delay"] = 0.05  # force overlap
        service = CompileService()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                service.submit,
                [CompileRequest(kernels.WAVEFRONT, {"n": 6})] * 8))
        assert all(r.ok for r in results)
        assert len({id(r.compiled) for r in results}) == 1
        assert counting_pipeline["count"] == 1
        stats = service.stats()["requests"]
        assert stats["misses"] == 1
        assert stats["hits"] + stats["coalesced"] == 7
        assert stats["requests"] == 8

    def test_concurrent_compile_calls_dedup(self, counting_pipeline):
        counting_pipeline["delay"] = 0.05
        service = CompileService()
        outputs = []

        def worker():
            outputs.append(
                compile_one(service, kernels.WAVEFRONT, params={"n": 6})
            )

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counting_pipeline["count"] == 1
        assert len({id(c) for c in outputs}) == 1


class TestPipelineWiring:
    def test_cache_argument_uses_service(self, counting_pipeline):
        service = CompileService()
        repro.compile(kernels.SQUARES, params={"n": 4}, cache=service)
        repro.compile(kernels.SQUARES, params={"n": 4}, cache=service)
        assert counting_pipeline["count"] == 1
        assert service.stats()["requests"]["hits"] == 1

    def test_cache_path_builds_disk_service(self, tmp_path):
        compiled = repro.compile(kernels.SQUARES, params={"n": 4},
                                 cache=str(tmp_path))
        assert compiled({"n": 4}).to_list() == [1, 4, 9, 16]
        assert any(tmp_path.glob("*/*.pkl"))

    def test_cache_true_uses_shared_default(self):
        assert resolve_cache(True) is default_service()

    def test_cache_off_is_pure_pipeline(self, counting_pipeline):
        # Through the patched module so invocations are observable.
        pipeline_mod.compile(kernels.SQUARES, params={"n": 4})
        pipeline_mod.compile(kernels.SQUARES, params={"n": 4})
        assert counting_pipeline["count"] == 2

    def test_bogus_cache_rejected(self):
        with pytest.raises(TypeError):
            repro.compile(kernels.SQUARES, params={"n": 4}, cache=42)


class TestMetricsRendering:
    def test_stats_are_plain_data(self):
        import json

        service = CompileService()
        compile_one(service, kernels.SQUARES, params={"n": 4})
        compile_one(service, kernels.SQUARES, params={"n": 4})
        stats = service.stats()
        json.dumps(stats)  # must not raise
        assert stats["schema"] == "repro-stats/3"
        assert set(stats["store"]["memory"]) == {
            "entries", "capacity", "evictions", "hits", "misses",
        }

    def test_summary_mentions_key_numbers(self):
        service = CompileService()
        compile_one(service, kernels.SQUARES, params={"n": 4})
        compile_one(service, kernels.SQUARES, params={"n": 4})
        text = service.summary()
        assert text == render_stats(service.stats())
        assert "hits 1 (memory 1, disk 0)" in text
        assert "misses 1" in text
        assert "memory tier" in text
        assert "compile time: n=1" in text
        assert "hit time: n=1" in text
        assert re.search(r"^    dependence +[\d.]+ms over 1 run\(s\)$",
                         text, re.M)

    def test_pass_timings_aggregated(self):
        service = CompileService()
        compile_one(service, kernels.WAVEFRONT, params={"n": 6})
        passes = service.stats()["requests"]["passes"]
        assert "dependence" in passes
        assert passes["dependence"]["count"] == 1
