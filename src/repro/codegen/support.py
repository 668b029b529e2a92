"""Runtime support for generated code.

Generated loop nests work on flat Python lists; :class:`FlatArray`
wraps one with its bounds for the public API.  The check helpers exist
so that *when analysis cannot elide a check* the generated code calls
them — and so benchmarks can price exactly what the elision buys
(experiment E9).
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.obs.trace import count_runtime
from repro.runtime.bounds import Bounds
from repro.runtime.errors import (
    IndexTypeError,
    UndefinedElementError,
    WriteCollisionError,
)
from repro.runtime.incremental import Counters


class CheckStats(Counters):
    """Counters of run-time checks executed by generated code."""

    __slots__ = ("bounds_checks", "collision_checks", "empty_checks")


#: Global check statistics; benchmarks reset before a run.
CHECK_STATS = CheckStats()


class AllocStats(Counters):
    """Counters of result-buffer allocations made by generated code.

    The program driver (``repro.program``) elides allocations by
    threading dead buffers back into compiled steps; these counters are
    how benchmarks (E19) price what that elision buys.
    """

    __slots__ = ("arrays_allocated", "cells_allocated")


#: Global allocation statistics; benchmarks reset before a run.
ALLOC_STATS = AllocStats()


def alloc_buffer(size: int) -> None:
    """Record one fresh result-buffer allocation of ``size`` cells.

    Generated code calls this exactly when it is about to allocate a
    new output buffer (a reused buffer is not counted); the program
    driver calls it for the copies it makes itself.
    """
    ALLOC_STATS.arrays_allocated += 1
    ALLOC_STATS.cells_allocated += size
    count_runtime("alloc.arrays")
    count_runtime("alloc.cells", size)


class FlatArray:
    """An evaluated array: bounds plus a row-major cell list.

    The result type of compiled comprehensions; also accepted as an
    input array (the generated preamble flattens any object exposing
    ``bounds`` and ``to_list``).
    """

    __slots__ = ("bounds", "cells")

    def __init__(self, bounds: Bounds, cells: List[Any]):
        self.bounds = bounds
        self.cells = cells
        if len(cells) != bounds.size():
            raise ValueError(
                f"cell count {len(cells)} != bounds size {bounds.size()}"
            )

    @classmethod
    def from_list(cls, bounds, values) -> "FlatArray":
        """Wrap a row-major value list."""
        b = bounds if isinstance(bounds, Bounds) else Bounds(*bounds)
        return cls(b, list(values))

    def at(self, subscript) -> Any:
        """Element lookup."""
        return self.cells[self.bounds.index(subscript)]

    def __getitem__(self, subscript) -> Any:
        return self.at(subscript)

    def assocs(self):
        """Yield ``(subscript, value)`` in row-major order."""
        for subscript, value in zip(self.bounds.range(), self.cells):
            yield subscript, value

    def to_list(self) -> List[Any]:
        """All cells, row-major (plain Python scalars).

        ``cells`` may be a numpy buffer (the C backend's output);
        ``tolist`` unboxes its elements to Python floats so results
        compare cleanly across backends.
        """
        unbox = getattr(self.cells, "tolist", None)
        if unbox is not None:
            return unbox()
        return list(self.cells)

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        if not hasattr(other, "bounds") or not hasattr(other, "to_list"):
            return NotImplemented
        # Compare via to_list() on both sides: ``cells`` may be a
        # numpy array, whose ``==`` is elementwise (not a bool).
        return (self.bounds == other.bounds
                and self.to_list() == other.to_list())

    def __repr__(self):
        return f"FlatArray(bounds={self.bounds!r}, size={len(self)})"


def flatten_input(value) -> tuple:
    """Normalize an input array to ``(bounds, flat_cells)``.

    Accepts :class:`FlatArray`, the runtime array types, or a
    ``(bounds, list)`` pair.
    """
    if isinstance(value, FlatArray):
        return value.bounds, value.cells
    if hasattr(value, "bounds") and hasattr(value, "to_list"):
        return value.bounds, value.to_list()
    raise TypeError(f"cannot use {value!r} as an input array")


def make_slice(start: int, stride: int, count: int) -> slice:
    """Strided slice covering ``count`` cells from ``start``.

    Handles the negative-stride edge case where the computed stop
    index would wrap around Python's from-the-end convention.
    """
    if count <= 0:
        return slice(0, 0)
    if count == 1:
        # One cell, whatever the stride: a diagonal reference whose
        # per-dimension strides cancel (an extent-1 axis) has stride 0.
        return slice(start, start + 1)
    stop = start + stride * count
    if stride < 0 and stop < 0:
        stop = None
    return slice(start, stop, stride)


class VerifyStats(Counters):
    """Counters for the subscript-property runtime verifier.

    Separate from :data:`CHECK_STATS`: a verification is one O(n) scan
    replacing O(n) per-write checks, and benchmarks (E25) price the
    trade by comparing the two counters.
    """

    __slots__ = ("verifications", "cells_scanned", "fast_path",
                 "fallbacks")


#: Global verifier statistics; benchmarks reset before a run.
VERIFY_STATS = VerifyStats()


def verify_subscripts(cells, low: int, high: int,
                      need_injective: bool = True) -> tuple:
    """O(n) subscript-property verifier for one index array.

    Establishes, over the *whole* cell list, that every value is a
    machine integer inside ``[low, high]`` and — when
    ``need_injective`` — that no value repeats.  Returns
    ``(ok, reason)``; generated guarded kernels take the unchecked
    fast schedule on ``ok`` and replay the loops with full per-write
    checks otherwise (the fallback, not this function, raises the
    precise error).  Scanning the whole array rather than just the
    cells a comprehension reads is deliberately conservative: it can
    only route valid-but-exotic inputs to the slower checked path,
    never change a result.
    """
    VERIFY_STATS.verifications += 1
    VERIFY_STATS.cells_scanned += len(cells)
    count_runtime("verify.scans")
    count_runtime("verify.cells", len(cells))
    extent = high - low + 1
    if extent < 0:
        extent = 0
    if need_injective:
        seen = bytearray(extent)
        for value in cells:
            if type(value) is not int:
                return False, f"non-int value {value!r}"
            offset = value - low
            if not 0 <= offset < extent:
                return False, f"value {value} outside [{low}, {high}]"
            if seen[offset]:
                return False, f"duplicate value {value}"
            seen[offset] = 1
    else:
        for value in cells:
            if type(value) is not int:
                return False, f"non-int value {value!r}"
            if not low <= value <= high:
                return False, f"value {value} outside [{low}, {high}]"
    return True, ""


def as_index(value, array: str = "") -> int:
    """Reject a non-int subscript value loudly (guarded fallback path).

    ``bool`` is an ``int`` subclass and floats index nothing; the
    exact-type test rejects both before Python's list indexing can
    truncate or wrap silently.
    """
    if type(value) is not int:
        raise IndexTypeError(value, array)
    return value


def read_gather(bounds: Bounds, cells, subscript):
    """Checked element read for an opaque gather subscript.

    The loud-error contract extended to reads: when a subscript is
    itself array data (``b!(p!i)``), nothing at compile time bounds
    it, and the unchecked ``cells[linear]`` read would leak a raw
    ``IndexError`` — or silently *wrap* a negative index to the wrong
    cell.  This mirrors the oracle's read exactly
    (``cells[bounds.index(subscript)]``), so out-of-range subscripts
    raise the same :class:`BoundsError`, and the accepted corner cases
    (``True`` indexes like ``1``) keep their oracle values.
    """
    count_runtime("gather.reads.checked")
    return cells[bounds.index(subscript)]


def check_collision(defined: List[bool], linear: int, subscript) -> None:
    """Runtime write-collision check (counted)."""
    CHECK_STATS.collision_checks += 1
    if defined[linear]:
        raise WriteCollisionError(subscript)
    defined[linear] = True


def check_empties(defined: Sequence[bool], bounds: Bounds) -> None:
    """Runtime definedness sweep (counted)."""
    CHECK_STATS.empty_checks += len(defined)
    for offset, flag in enumerate(defined):
        if not flag:
            for position, subscript in enumerate(bounds.range()):
                if position == offset:
                    raise UndefinedElementError(subscript)
