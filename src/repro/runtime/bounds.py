"""Haskell ``Ix``-style array bounds.

An array's bounds are a pair ``(low, high)``.  For one-dimensional
arrays ``low`` and ``high`` are integers; for multidimensional arrays
they are equal-length tuples of integers, e.g. ``((1, 1), (n, n))`` for
the paper's wavefront matrix.  ``Bounds`` provides the usual ``Ix``
operations: membership, row-major enumeration, linearization, and size.
"""

from __future__ import annotations

from typing import Iterator, Tuple, Union

from repro.runtime.errors import BoundsError

Subscript = Union[int, Tuple[int, ...]]


def _as_tuple(x) -> Tuple[int, ...]:
    if isinstance(x, tuple):
        return x
    return (x,)


class Bounds:
    """Rectangular integer bounds for an array.

    Parameters
    ----------
    low, high:
        Inclusive lower and upper corner.  Integers for 1-D arrays,
        equal-length integer tuples for n-D arrays.  An empty range in
        any dimension yields a zero-size array (as in Haskell).
    """

    __slots__ = ("low", "high", "_lo", "_hi")

    def __init__(self, low: Subscript, high: Subscript):
        self.low = low
        self.high = high
        self._lo = _as_tuple(low)
        self._hi = _as_tuple(high)
        if len(self._lo) != len(self._hi):
            raise ValueError(
                f"bounds rank mismatch: {low!r} vs {high!r}"
            )
        for part in self._lo + self._hi:
            if not isinstance(part, int):
                raise TypeError(f"bounds must be integers, got {part!r}")

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self._lo)

    @property
    def lows(self) -> Tuple[int, ...]:
        """The low corner as a tuple (for 1-D bounds too), not a copy."""
        return self._lo

    @property
    def dims(self) -> Tuple[Tuple[int, int], ...]:
        """Per-dimension ``(low, high)`` pairs."""
        return tuple(zip(self._lo, self._hi))

    def extent(self, dim: int) -> int:
        """Number of valid indices along ``dim`` (0-based dimension)."""
        return max(0, self._hi[dim] - self._lo[dim] + 1)

    def size(self) -> int:
        """Total number of elements."""
        n = 1
        for d in range(self.rank):
            n *= self.extent(d)
        return n

    def in_range(self, subscript: Subscript) -> bool:
        """Whether ``subscript`` lies inside the bounds."""
        sub = _as_tuple(subscript)
        if len(sub) != self.rank:
            return False
        return all(
            lo <= s <= hi for s, lo, hi in zip(sub, self._lo, self._hi)
        )

    def check(self, subscript: Subscript) -> None:
        """Raise :class:`BoundsError` unless ``subscript`` is in range."""
        if not self.in_range(subscript):
            raise BoundsError(subscript, (self.low, self.high))

    def index(self, subscript: Subscript) -> int:
        """Row-major linear offset of ``subscript`` (0-based).

        Raises :class:`BoundsError` for out-of-range subscripts.
        """
        self.check(subscript)
        sub = _as_tuple(subscript)
        offset = 0
        for d in range(self.rank):
            offset = offset * self.extent(d) + (sub[d] - self._lo[d])
        return offset

    def range(self) -> Iterator[Subscript]:
        """Yield every subscript in row-major order.

        1-D bounds yield plain integers; n-D bounds yield tuples —
        matching how subscripts are written at the source level.
        """
        if self.rank == 1:
            yield from range(self._lo[0], self._hi[0] + 1)
            return
        yield from self._range_nd(0, ())

    def _range_nd(self, dim: int, prefix: Tuple[int, ...]):
        if dim == self.rank:
            yield prefix
            return
        for i in range(self._lo[dim], self._hi[dim] + 1):
            yield from self._range_nd(dim + 1, prefix + (i,))

    def normalize(self, subscript: Subscript) -> Subscript:
        """Return the subscript in canonical form (int for 1-D)."""
        sub = _as_tuple(subscript)
        if self.rank == 1:
            return sub[0]
        return sub

    def __contains__(self, subscript: Subscript) -> bool:
        return self.in_range(subscript)

    def __eq__(self, other):
        if not isinstance(other, Bounds):
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi

    def __hash__(self):
        return hash((self._lo, self._hi))

    def __repr__(self):
        return f"Bounds({self.low!r}, {self.high!r})"
