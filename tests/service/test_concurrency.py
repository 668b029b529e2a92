"""Concurrency suite: the memory tier under threads, in-flight
coalescing, cross-process disk sharing."""

import hashlib
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro.core.pipeline as pipeline_mod
from repro import CompileRequest, CompileService
from repro.service.store import MemoryLRU

SRC = "array (1,8) [ (i) := i*i | i <- [1..8] ]"

#: The checkout under test, whichever directory it was cloned into.
ROOT = Path(__file__).resolve().parents[2]


def fp(i: int) -> str:
    """A realistic fingerprint (sha256 hexdigest) for test entries."""
    return hashlib.sha256(str(i).encode()).hexdigest()


class TestMemoryLRU:
    def test_thread_parallel_ops_stay_consistent(self):
        lru = MemoryLRU(capacity=256)
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
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(lru) == 0
        # A lost counter update would show here.
        assert lru.hits == 8 * 200 and lru.misses == 0

    def test_memory_lru_counts_hits_misses(self):
        lru = MemoryLRU(capacity=4)
        lru.put("k", "v")
        lru.get("k")
        lru.get("absent")
        assert lru.hits == 1 and lru.misses == 1


class TestCoalescing:
    def test_identical_concurrent_requests_compile_once(self, monkeypatch):
        calls = {"count": 0}
        real = pipeline_mod._drive

        def slow(*args, **kwargs):
            calls["count"] += 1
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "_drive", slow)
        service = CompileService()
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

    def test_different_requests_compile_concurrently(self, monkeypatch):
        """Different requests' builds overlap in time: the in-flight
        table's lock is never held across a build."""
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
        service = CompileService()
        sources = [
            f"array (1,{n}) [ (i) := i+{n} | i <- [1..{n}] ]"
            for n in range(4, 10)
        ]
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(
                service.submit, [CompileRequest(s) for s in sources]))
        assert all(result.ok for result in results)
        assert active["peak"] >= 2


_CHILD = r"""
import sys
sys.path.insert(0, {src_path!r})
import repro
from repro import CompileRequest, CompileService

service = CompileService(disk_dir={cache!r})
result = service.submit(CompileRequest({src!r}))
assert result.ok, result.error
print(result.tier or "compiled", result.fingerprint, repro.__file__)
"""


class TestCrossProcessSharing:
    def test_disk_tier_shared_between_processes(self, tmp_path):
        cache = str(tmp_path / "cache")
        script = _CHILD.format(src_path=str(ROOT / "src"), cache=cache,
                               src=SRC)
        runs = []
        for _ in range(2):
            child = subprocess.run(
                [sys.executable, "-c", script], cwd=str(tmp_path),
                capture_output=True, text=True, timeout=120,
            )
            assert child.returncode == 0, child.stderr
            tier, key, module = child.stdout.split()
            # The child ran the tree under test, not another checkout.
            assert Path(module).resolve().is_relative_to(ROOT / "src")
            runs.append((tier, key))
        (tier1, fp1), (tier2, fp2) = runs
        assert tier1 == "compiled"  # fresh cache: a real compile
        assert tier2 == "disk"      # second process reuses it
        assert fp1 == fp2
