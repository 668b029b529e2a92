"""Concurrency suite: sharded memory tier, per-shard coalescing,
cross-process disk sharing."""

import hashlib
import subprocess
import sys
import threading
import time

import repro.core.pipeline as pipeline_mod
from repro import CompileRequest, CompileService
from repro.service.store import MemoryLRU, ShardedLRU, shard_index

SRC = "array (1,8) [ (i) := i*i | i <- [1..8] ]"


def fp(i: int) -> str:
    """A realistic fingerprint (sha256 hexdigest) for test entries."""
    return hashlib.sha256(str(i).encode()).hexdigest()


class TestShardIndex:
    def test_stable_and_in_range(self):
        for i in range(200):
            k = shard_index(fp(i), 8)
            assert 0 <= k < 8
            assert k == shard_index(fp(i), 8)

    def test_single_shard_is_zero(self):
        assert shard_index(fp(1), 1) == 0

    def test_non_hex_key_tolerated(self):
        assert 0 <= shard_index("not-hex!", 8) < 8

    def test_distribution_is_roughly_uniform(self):
        counts = [0] * 8
        for i in range(4000):
            counts[shard_index(fp(i), 8)] += 1
        assert min(counts) > 300  # perfectly uniform would be 500


class TestShardedLRU:
    def test_drop_in_surface(self):
        lru = ShardedLRU(capacity=64, shards=8)
        keys = [fp(i) for i in range(20)]
        for i, key in enumerate(keys):
            lru.put(key, f"v{i}")
        assert len(lru) == 20
        assert all(key in lru for key in keys)
        assert lru.get(keys[3]) == "v3"
        assert sorted(lru.keys()) == sorted(keys)
        assert lru.invalidate(keys[3]) and not lru.invalidate(keys[3])
        lru.clear()
        assert len(lru) == 0

    def test_capacity_spreads_over_shards(self):
        lru = ShardedLRU(capacity=64, shards=8)
        assert lru.shard_count == 8
        assert lru.capacity >= 64

    def test_more_shards_than_capacity_clamps(self):
        lru = ShardedLRU(capacity=4, shards=16)
        assert lru.shard_count == 4

    def test_eviction_is_per_shard_lru(self):
        lru = ShardedLRU(capacity=8, shards=2)
        shard0 = [fp(i) for i in range(100)
                  if shard_index(fp(i), 2) == 0][:6]
        for key in shard0:
            lru.put(key, key)
        # per-shard capacity is 4: the two oldest shard-0 keys are gone
        assert lru.evictions == 2
        assert shard0[0] not in lru and shard0[-1] in lru

    def test_hit_miss_accounting_per_shard(self):
        lru = ShardedLRU(capacity=32, shards=4)
        key = fp(7)
        lru.put(key, "x")
        lru.get(key)
        lru.get(fp(8))
        stats = lru.shard_stats()
        assert len(stats) == 4
        assert sum(s["hits"] for s in stats) == 1
        assert sum(s["misses"] for s in stats) == 1
        assert stats[shard_index(key, 4)]["hits"] == 1

    def test_thread_parallel_ops_stay_consistent(self):
        lru = ShardedLRU(capacity=256, shards=8)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    key = fp(base * 1000 + i)
                    lru.put(key, key)
                    got = lru.get(key)
                    assert got == key
                    lru.invalidate(key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(b,))
                   for b in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(lru) == 0

    def test_memory_lru_counts_hits_misses(self):
        lru = MemoryLRU(capacity=4)
        lru.put("k", "v")
        lru.get("k")
        lru.get("absent")
        assert lru.hits == 1 and lru.misses == 1


class TestPerShardCoalescing:
    def test_identical_concurrent_requests_compile_once(self, monkeypatch):
        calls = {"count": 0}
        real = pipeline_mod._drive

        def slow(*args, **kwargs):
            calls["count"] += 1
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "_drive", slow)
        service = CompileService(shards=8)
        results = []

        def fire():
            results.append(service.submit(CompileRequest(SRC)))

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert calls["count"] == 1
        assert all(r.ok for r in results)
        compiled = {id(r.compiled) for r in results}
        assert len(compiled) == 1  # everyone got the leader's object
        assert service.metrics.stats()["coalesced"] == 5

    def test_different_shards_compile_concurrently(self, monkeypatch):
        """Builds on different shards overlap in time (the point of
        sharding the in-flight table)."""
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()
        real = pipeline_mod._drive

        def tracked(*args, **kwargs):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            try:
                time.sleep(0.15)
                return real(*args, **kwargs)
            finally:
                with lock:
                    active["now"] -= 1

        monkeypatch.setattr(pipeline_mod, "_drive", tracked)
        service = CompileService(shards=8)
        sources = [
            f"array (1,{n}) [ (i) := i+{n} | i <- [1..{n}] ]"
            for n in range(4, 10)
        ]
        service.submit([CompileRequest(s) for s in sources],
                       max_workers=6)
        assert active["peak"] >= 2


_CHILD = r"""
import sys
sys.path.insert(0, {src_path!r})
from repro import CompileRequest, CompileService

service = CompileService(disk_dir={cache!r})
result = service.submit(CompileRequest({src!r}))
assert result.ok, result.error
print(result.tier or "compiled", result.fingerprint)
"""


class TestCrossProcessSharing:
    def test_disk_tier_shared_between_processes(self, tmp_path):
        cache = str(tmp_path / "cache")
        script = _CHILD.format(src_path="src", cache=cache, src=SRC)
        first = subprocess.run(
            [sys.executable, "-c", script], cwd="/root/repo",
            capture_output=True, text=True, timeout=120,
        )
        assert first.returncode == 0, first.stderr
        tier1, fp1 = first.stdout.split()
        second = subprocess.run(
            [sys.executable, "-c", script], cwd="/root/repo",
            capture_output=True, text=True, timeout=120,
        )
        assert second.returncode == 0, second.stderr
        tier2, fp2 = second.stdout.split()
        assert tier1 == "compiled"  # fresh cache: a real compile
        assert tier2 == "disk"      # second process reuses it
        assert fp1 == fp2
