"""Incremental arrays under several update strategies (paper §9).

Functional update ``upd a i v`` returns a new array equal to ``a``
except at ``i``.  The semantics never mutates, but the *implementation*
may, when the old version is dead.  The strategies here bracket the
design space the paper discusses:

* **copy semantics** (:func:`upd` on a :class:`VersionedArray`) — every
  update copies the whole array; the naive baseline.
* **trailers** (:class:`TrailerArray`) — update in place and leave a
  "trailer" (undo record) so old versions remain readable; fast when
  single-threaded, slow when old versions are still read.
* **reference counting** (:class:`RefCountedArray`) — update in place
  when the run-time count says the version is unshared, copy otherwise.

:func:`bigupd` is the paper's bulk-update construct,
``bigupd a svpairs = foldl upd a svpairs``.  The compile-time analysis
in :mod:`repro.core.inplace` schedules its loops so the in-place
strategy is safe with no copying; these runtime classes are the
baselines it is measured against (experiment E12).

All strategies report their cell-copy traffic through
:class:`CopyStats` so benchmarks can count copies exactly.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

from repro.runtime.bounds import Bounds, Subscript


class Counters:
    """Base of the runtime counters classes: one int per slot.

    A kind subclasses it with its counter names as ``__slots__``.
    Slots keep an increment (``STATS.updates += 1``, also in generated
    code) as fast as a plain attribute's, and a misspelt counter
    raises :class:`AttributeError`.
    """

    __slots__ = ()

    def __init__(self):
        self.reset()

    def reset(self):
        """Zero all counters."""
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self):
        """The counters as a dict."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        fields = ", ".join(f"{name}={value}"
                           for name, value in self.snapshot().items())
        return f"{type(self).__name__}({fields})"


class CopyStats(Counters):
    """Counters of array-copy traffic.

    Attributes
    ----------
    arrays_copied:
        Number of whole-array copies performed.
    cells_copied:
        Total cells moved by those copies (plus node-split temporaries,
        which schedulers report here too).
    updates:
        Number of element updates applied.
    """

    __slots__ = ("arrays_copied", "cells_copied", "updates")


#: Global copy statistics; benchmarks reset before a run.
STATS = CopyStats()


class VersionedArray:
    """An immutable array version under copy semantics.

    ``update`` always copies.  This is the pessimistic strategy a
    compiler must use when it knows nothing about sharing.
    """

    __slots__ = ("bounds", "_cells")

    def __init__(self, bounds, cells: List[Any] = None, assocs=None):
        self.bounds = bounds if isinstance(bounds, Bounds) else Bounds(*bounds)
        if cells is not None:
            self._cells = cells
        else:
            self._cells = [None] * self.bounds.size()
            if assocs:
                for subscript, value in assocs:
                    self._cells[self.bounds.index(subscript)] = value

    @classmethod
    def from_list(cls, bounds, values) -> "VersionedArray":
        """Build from a row-major list of element values."""
        b = bounds if isinstance(bounds, Bounds) else Bounds(*bounds)
        values = list(values)
        if len(values) != b.size():
            raise ValueError(
                f"expected {b.size()} values for {b!r}, got {len(values)}"
            )
        return cls(b, cells=values)

    def at(self, subscript: Subscript) -> Any:
        """Element lookup."""
        return self._cells[self.bounds.index(subscript)]

    def __getitem__(self, subscript: Subscript) -> Any:
        return self.at(subscript)

    def update(self, subscript: Subscript, value: Any) -> "VersionedArray":
        """Functional update by whole-array copy."""
        STATS.arrays_copied += 1
        STATS.cells_copied += len(self._cells)
        STATS.updates += 1
        cells = list(self._cells)
        cells[self.bounds.index(subscript)] = value
        return VersionedArray(self.bounds, cells=cells)

    def to_list(self):
        """All elements in row-major order."""
        return list(self._cells)

    def __len__(self):
        return self.bounds.size()

    def __repr__(self):
        return f"VersionedArray(bounds={self.bounds!r}, size={len(self)})"


def upd(a, subscript: Subscript, value: Any):
    """Functional element update: ``upd a i v``.

    Dispatches on the representation: versioned arrays copy, trailer
    and refcounted arrays apply their own policies.
    """
    return a.update(subscript, value)


def bigupd(a, svpairs: Iterable[Tuple[Subscript, Any]]):
    """Bulk update: ``bigupd a svpairs = foldl upd a svpairs`` (§9).

    This is the *semantic* definition, executed with whatever update
    policy ``a``'s representation implements.  The optimized, scheduled
    version is produced by :mod:`repro.core.inplace`.
    """
    for subscript, value in svpairs:
        a = upd(a, subscript, value)
    return a


class TrailerArray:
    """Array with version trailers (paper §9's "array trailers").

    The newest version holds the flat cells; older versions are chains
    of ``(subscript_offset, old_value)`` undo records hanging off it.
    Updating the newest version is O(1); reading an old version walks
    its trailer chain, degrading when the array is not used
    single-threadedly.
    """

    __slots__ = ("bounds", "_store", "_trail", "_is_root")

    def __init__(self, bounds, values=None, _store=None, _trail=None):
        self.bounds = bounds if isinstance(bounds, Bounds) else Bounds(*bounds)
        if _store is not None:
            self._store = _store
            self._trail = _trail
        else:
            values = list(values) if values is not None else (
                [None] * self.bounds.size()
            )
            if len(values) != self.bounds.size():
                raise ValueError("initial values length mismatch")
            self._store = values
            self._trail = None  # None marks the newest version

    @classmethod
    def from_list(cls, bounds, values) -> "TrailerArray":
        """Build the root version from a row-major value list."""
        return cls(bounds, values=values)

    def at(self, subscript: Subscript) -> Any:
        """Element lookup, walking trailers if this version is old."""
        offset = self.bounds.index(subscript)
        node = self
        while node._trail is not None:
            trail_offset, old_value, newer = node._trail
            if trail_offset == offset:
                return old_value
            node = newer
        return node._store[offset]

    def __getitem__(self, subscript: Subscript) -> Any:
        return self.at(subscript)

    def update(self, subscript: Subscript, value: Any) -> "TrailerArray":
        """Update: O(1) on the newest version, copy on an old one."""
        STATS.updates += 1
        offset = self.bounds.index(subscript)
        if self._trail is None:
            new = TrailerArray(
                self.bounds, _store=self._store, _trail=None
            )
            self._trail = (offset, self._store[offset], new)
            self._store[offset] = value
            new._store[offset] = value
            return new
        # Updating an old version: rebuild it flat, then update.
        STATS.arrays_copied += 1
        STATS.cells_copied += self.bounds.size()
        cells = [self.at(s) for s in self.bounds.range()]
        cells[offset] = value
        return TrailerArray(self.bounds, values=cells)

    def to_list(self):
        """All elements of this version in row-major order."""
        return [self.at(s) for s in self.bounds.range()]

    def __len__(self):
        return self.bounds.size()

    def __repr__(self):
        kind = "newest" if self._trail is None else "old"
        return f"TrailerArray(bounds={self.bounds!r}, {kind})"


class RefCountedArray:
    """Array updated in place when its reference count is one.

    The count is managed explicitly: callers that retain a version call
    :meth:`share`; dropping a reference calls :meth:`release`.  Updating
    a version with count 1 mutates; otherwise it copies.  This models
    the run-time reference-counting schemes the paper cites [5, 11].
    """

    __slots__ = ("bounds", "_cells", "_refcount")

    def __init__(self, bounds, values=None, _cells=None):
        self.bounds = bounds if isinstance(bounds, Bounds) else Bounds(*bounds)
        if _cells is not None:
            self._cells = _cells
        else:
            values = list(values) if values is not None else (
                [None] * self.bounds.size()
            )
            if len(values) != self.bounds.size():
                raise ValueError("initial values length mismatch")
            self._cells = values
        self._refcount = 1

    @classmethod
    def from_list(cls, bounds, values) -> "RefCountedArray":
        """Build from a row-major value list (count 1)."""
        return cls(bounds, values=values)

    @property
    def refcount(self) -> int:
        """Current reference count."""
        return self._refcount

    def share(self) -> "RefCountedArray":
        """Record an additional reference to this version."""
        self._refcount += 1
        return self

    def release(self) -> None:
        """Drop one reference."""
        if self._refcount <= 0:
            raise ValueError("release on dead array")
        self._refcount -= 1

    def at(self, subscript: Subscript) -> Any:
        """Element lookup."""
        return self._cells[self.bounds.index(subscript)]

    def __getitem__(self, subscript: Subscript) -> Any:
        return self.at(subscript)

    def update(self, subscript: Subscript, value: Any) -> "RefCountedArray":
        """Update in place when unshared, by copy when shared."""
        STATS.updates += 1
        offset = self.bounds.index(subscript)
        if self._refcount == 1:
            self._cells[offset] = value
            return self
        STATS.arrays_copied += 1
        STATS.cells_copied += len(self._cells)
        self._refcount -= 1
        cells = list(self._cells)
        cells[offset] = value
        return RefCountedArray(self.bounds, _cells=cells)

    def to_list(self):
        """All elements in row-major order."""
        return list(self._cells)

    def __len__(self):
        return self.bounds.size()

    def __repr__(self):
        return (
            f"RefCountedArray(bounds={self.bounds!r}, rc={self._refcount})"
        )
