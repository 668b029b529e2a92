"""Two-tier cache of compiled comprehensions.

The **memory tier** (:class:`MemoryLRU`) holds live
:class:`~repro.codegen.compile.CompiledComp` objects behind one lock,
keyed by the request key tuple
(:func:`~repro.service.fingerprint.request_key`) — a hit costs one
dict lookup, no digest and no re-``exec``.  The **disk tier**
(:class:`DiskStore`) persists the generated source plus the pickled
:class:`~repro.core.pipeline.Report` across processes under
``~/.cache/repro`` (or a caller-supplied directory), named by the
key's fingerprint; a disk hit re-``exec``'s the cached source but
never re-runs analysis.

Robustness rules, in order of importance:

* a cache failure must never fail a compile — disk writes are
  best-effort and read corruption (truncated pickle, wrong format,
  stale salt) is treated as a *miss*, with the bad entry deleted;
* writes are atomic (temp file + ``os.replace``) so a crashed or
  concurrent writer can never leave a half-written entry visible;
* every entry embeds the pipeline salt; bumping
  :data:`~repro.service.fingerprint.PIPELINE_SALT` invalidates both
  tiers at once (the fingerprint changes *and* stale files are
  rejected on read).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path
from threading import RLock
from typing import Iterator, Optional, Tuple

from repro.codegen.compile import CompiledComp
from repro.service.fingerprint import PIPELINE_SALT, key_digest

#: Where the CLI and ``DiskStore()`` put entries by default.
DEFAULT_CACHE_DIR = Path(
    os.environ.get("REPRO_CACHE_DIR", "~/.cache/repro")
).expanduser()

#: On-disk payload layout version (independent of the pipeline salt).
FORMAT_VERSION = 1


class MemoryLRU:
    """Thread-safe LRU map of a hashable key to an entry."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        self._lock = RLock()
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return entry

    def put(self, key, entry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, key) -> bool:
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self):
        """Keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries


class DiskStore:
    """Pickle-per-entry persistent store, tolerant of corruption."""

    def __init__(self, root=None, salt: str = PIPELINE_SALT):
        self.root = Path(root).expanduser() if root else DEFAULT_CACHE_DIR
        self.salt = salt
        self.read_errors = 0
        self.write_errors = 0

    def _path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.pkl"

    def get(self, fingerprint: str) -> Optional[CompiledComp]:
        path = self._path(fingerprint)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if (
                not isinstance(payload, dict)
                or payload.get("format") != FORMAT_VERSION
                or payload.get("salt") != self.salt
                or payload.get("fingerprint") != fingerprint
            ):
                raise ValueError("stale or foreign cache entry")
            if "program" in payload:
                # Whole-program entries pickle the CompiledProgram
                # object (its steps re-hydrate their own source).
                return payload["program"]
            return CompiledComp(payload["source"], payload["report"])
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated pickle, version skew, unreadable file, or a
            # source that no longer execs: a miss, never an error.
            self.read_errors += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def put(self, fingerprint: str, compiled: CompiledComp) -> bool:
        payload = {
            "format": FORMAT_VERSION,
            "salt": self.salt,
            "fingerprint": fingerprint,
        }
        if hasattr(compiled, "source"):
            payload["source"] = compiled.source
            payload["report"] = compiled.report
        else:
            payload["program"] = compiled
        path = self._path(fingerprint)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(payload, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            return True
        except Exception:
            self.write_errors += 1
            return False

    def invalidate(self, fingerprint: str) -> bool:
        try:
            os.unlink(self._path(fingerprint))
            return True
        except OSError:
            return False

    def clear(self) -> int:
        removed = 0
        for path, _ in self.entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def entries(self) -> Iterator[Tuple[Path, int]]:
        """Yield ``(path, size_bytes)`` for every stored entry."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.pkl")):
            try:
                yield path, path.stat().st_size
            except OSError:
                continue

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())


class TieredStore:
    """Memory LRU over an optional disk store.

    Entries are looked up by request key
    (:func:`~repro.service.fingerprint.request_key`).  The memory tier
    maps the key to ``(compiled, fingerprint)``, so a hit computes no
    digest; on a memory miss the key's fingerprint
    (:func:`~repro.service.fingerprint.key_digest`) is computed once,
    names the disk entry, and is kept with the memory entry.  ``get``
    returns ``(compiled, fingerprint, tier)`` with ``tier`` one of
    ``"memory"``, ``"disk"`` or ``None``; a disk hit is promoted into
    the memory tier.
    """

    def __init__(self, memory: MemoryLRU,
                 disk: Optional[DiskStore] = None):
        self.memory = memory
        self.disk = disk

    def get(self, key: tuple):
        entry = self.memory.get(key)
        if entry is not None:
            return entry[0], entry[1], "memory"
        fingerprint = key_digest(key)
        if self.disk is not None:
            compiled = self.disk.get(fingerprint)
            if compiled is not None:
                self.memory.put(key, (compiled, fingerprint))
                return compiled, fingerprint, "disk"
        return None, fingerprint, None

    def put(self, key: tuple, fingerprint: str,
            compiled: CompiledComp) -> None:
        self.memory.put(key, (compiled, fingerprint))
        if self.disk is not None:
            self.disk.put(fingerprint, compiled)

    def invalidate(self, key: tuple) -> bool:
        hit = self.memory.invalidate(key)
        if self.disk is not None:
            hit = self.disk.invalidate(key_digest(key)) or hit
        return hit

    def clear(self) -> None:
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()
