"""The compile worker pool: process mode, crash containment."""

import pytest

from repro import CompileRequest, CompileService
from repro.serve.pool import CRASH_ENV, BrokenProcessPool, CompilePool

SRC = "array (1,8) [ (i) := i*i | i <- [1..8] ]"


class TestInlineMode:
    def test_submit_wire_round_trip(self):
        with CompilePool(0) as pool:
            result = pool.submit_wire({"src": SRC}).result(60)
        assert result["ok"] and "source" in result

    def test_shares_one_service(self):
        with CompilePool(0) as pool:
            pool.submit_wire({"src": SRC}).result(60)
            second = pool.submit_wire({"src": SRC}).result(60)
        assert second["cached"] and second["tier"] == "memory"

    def test_injected_service(self):
        service = CompileService()
        with CompilePool(0, service=service) as pool:
            pool.submit_wire({"src": SRC}).result(60)
        assert service.metrics.stats()["misses"] == 1


class TestProcessMode:
    def test_worker_compiles_and_matches_direct(self, tmp_path):
        direct = CompileService().submit(CompileRequest(SRC))
        with CompilePool(1, disk_dir=tmp_path / "cache") as pool:
            result = pool.submit_wire({"src": SRC}).result(120)
        assert result["ok"]
        assert result["source"] == direct.compiled.source
        assert result["fingerprint"] == direct.fingerprint

    def test_disk_tier_shared_across_restart(self, tmp_path):
        cache = tmp_path / "cache"
        with CompilePool(1, disk_dir=cache) as pool:
            first = pool.submit_wire({"src": SRC}).result(120)
        with CompilePool(1, disk_dir=cache) as pool:
            again = pool.submit_wire({"src": SRC}).result(120)
        assert not first["cached"]
        assert again["cached"] and again["tier"] == "disk"

    def test_crash_breaks_then_restart_recovers(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "__kaboom__")
        with CompilePool(1) as pool:
            ok = pool.submit_wire({"src": SRC}).result(120)
            assert ok["ok"]
            crash = pool.submit_wire({
                "src": SRC + "  -- __kaboom__",
            })
            with pytest.raises(BrokenProcessPool):
                crash.result(120)
            pool.restart()
            assert pool.restarts == 1
            after = pool.submit_wire({"src": SRC}).result(120)
            assert after["ok"]

    def test_stats_future_samples_a_worker(self):
        with CompilePool(1) as pool:
            pool.submit_wire({"src": SRC}).result(120)
            stats = pool.stats_future().result(120)
        assert stats["schema"] == "repro-stats/3"


def test_negative_workers_rejected():
    with pytest.raises(ValueError):
        CompilePool(-1)
