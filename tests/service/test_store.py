"""The two-tier store: LRU order, disk round-trips, corruption."""

import os
import pickle

import pytest

import repro
from repro import kernels
from repro.service import DiskStore, MemoryLRU, TieredStore
from repro.service.store import FORMAT_VERSION


@pytest.fixture(scope="module")
def compiled():
    return repro.compile(kernels.SQUARES, strategy="array", params={"n": 5})


class TestMemoryLRU:
    def test_get_put_roundtrip(self, compiled):
        lru = MemoryLRU(capacity=2)
        lru.put("k1", compiled)
        assert lru.get("k1") is compiled
        assert lru.get("missing") is None

    def test_eviction_order_is_least_recently_used(self, compiled):
        lru = MemoryLRU(capacity=2)
        lru.put("k1", compiled)
        lru.put("k2", compiled)
        assert lru.get("k1") is compiled  # refresh k1; k2 is now LRU
        lru.put("k3", compiled)
        assert lru.get("k2") is None
        assert lru.get("k1") is compiled
        assert lru.get("k3") is compiled
        assert lru.evictions == 1
        assert lru.keys() == ["k1", "k3"]

    def test_reput_refreshes_not_duplicates(self, compiled):
        lru = MemoryLRU(capacity=2)
        lru.put("k1", compiled)
        lru.put("k1", compiled)
        assert len(lru) == 1
        assert lru.evictions == 0

    def test_invalidate_and_clear(self, compiled):
        lru = MemoryLRU(capacity=4)
        lru.put("k1", compiled)
        assert lru.invalidate("k1") is True
        assert lru.invalidate("k1") is False
        lru.put("k2", compiled)
        lru.clear()
        assert len(lru) == 0

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            MemoryLRU(capacity=0)


class TestDiskStore:
    def test_roundtrip_compiled_comp(self, tmp_path, compiled):
        store = DiskStore(tmp_path)
        assert store.put("f" * 64, compiled) is True
        loaded = store.get("f" * 64)
        assert loaded is not None
        assert loaded.source == compiled.source
        assert loaded.report.summary() == compiled.report.summary()
        # The reloaded artifact really runs.
        assert loaded({"n": 5}).to_list() == [1, 4, 9, 16, 25]

    def test_missing_entry_is_none(self, tmp_path):
        assert DiskStore(tmp_path).get("0" * 64) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path,
                                                 compiled):
        store = DiskStore(tmp_path)
        key = "a" * 64
        store.put(key, compiled)
        path = store._path(key)
        path.write_bytes(b"not a pickle at all")
        assert store.get(key) is None
        assert store.read_errors == 1
        assert not path.exists()

    def test_truncated_pickle_is_a_miss(self, tmp_path, compiled):
        store = DiskStore(tmp_path)
        key = "b" * 64
        store.put(key, compiled)
        path = store._path(key)
        path.write_bytes(path.read_bytes()[:20])
        assert store.get(key) is None

    def test_salt_mismatch_is_a_miss(self, tmp_path, compiled):
        old = DiskStore(tmp_path, salt="pipeline/old")
        key = "c" * 64
        old.put(key, compiled)
        fresh = DiskStore(tmp_path, salt="pipeline/new")
        assert fresh.get(key) is None
        # The stale file was dropped, so a re-put serves the new salt.
        fresh.put(key, compiled)
        assert fresh.get(key) is not None

    def test_wrong_format_version_is_a_miss(self, tmp_path, compiled):
        store = DiskStore(tmp_path)
        key = "d" * 64
        store.put(key, compiled)
        path = store._path(key)
        payload = pickle.loads(path.read_bytes())
        payload["format"] = FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert store.get(key) is None

    def test_atomic_write_leaves_no_temp_droppings(self, tmp_path,
                                                   compiled):
        store = DiskStore(tmp_path)
        store.put("e" * 64, compiled)
        leftovers = [
            name for _, _, files in os.walk(tmp_path)
            for name in files if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_entries_and_clear(self, tmp_path, compiled):
        store = DiskStore(tmp_path)
        store.put("1" * 64, compiled)
        store.put("2" * 64, compiled)
        assert len(store) == 2
        assert all(size > 0 for _, size in store.entries())
        assert store.clear() == 2
        assert len(store) == 0

    def test_unwritable_root_is_best_effort(self, compiled):
        store = DiskStore("/proc/definitely/not/writable")
        assert store.put("9" * 64, compiled) is False
        assert store.write_errors == 1


class TestTieredStore:
    def test_disk_hit_promotes_to_memory(self, tmp_path, compiled):
        seeder = DiskStore(tmp_path)
        key = "a1" + "0" * 62
        seeder.put(key, compiled)
        tiered = TieredStore(MemoryLRU(4), DiskStore(tmp_path))
        loaded, tier = tiered.get(key)
        assert tier == "disk" and loaded is not None
        again, tier = tiered.get(key)
        assert tier == "memory" and again is loaded

    def test_put_reaches_both_tiers(self, tmp_path, compiled):
        tiered = TieredStore(MemoryLRU(4), DiskStore(tmp_path))
        key = "b2" + "0" * 62
        tiered.put(key, compiled)
        assert tiered.memory.get(key) is compiled
        assert tiered.disk.get(key) is not None

    def test_memory_only_configuration(self, compiled):
        tiered = TieredStore(MemoryLRU(4))
        tiered.put("k", compiled)
        assert tiered.get("k") == (compiled, "memory")
        assert tiered.get("missing") == (None, None)

    def test_invalidate_both_tiers(self, tmp_path, compiled):
        tiered = TieredStore(MemoryLRU(4), DiskStore(tmp_path))
        key = "c3" + "0" * 62
        tiered.put(key, compiled)
        assert tiered.invalidate(key) is True
        assert tiered.get(key) == (None, None)
