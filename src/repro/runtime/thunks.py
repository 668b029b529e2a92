"""Memoizing thunks with blackholing and global cost counters.

The paper's §4 lists "the overhead of thunks" — creating, testing, and
collecting closures — as a chief inefficiency of non-strict arrays.  To
let benchmarks measure that overhead, every ``Thunk`` operation bumps
counters on the module-wide :class:`ThunkStats` instance ``STATS``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.runtime.errors import BlackHoleError
from repro.runtime.incremental import Counters


class ThunkStats(Counters):
    """Counters for thunk traffic, used by the E10 benchmark.

    Attributes
    ----------
    created:
        Number of ``Thunk`` objects allocated.
    forced:
        Number of first-time forces (the suspended computation ran).
    hits:
        Number of forces that found an already-memoized value.
    """

    __slots__ = ("created", "forced", "hits")


#: Global thunk statistics. Benchmarks reset this before a run.
STATS = ThunkStats()

# Sentinels for the thunk cell states.
_UNEVALUATED = object()
_BLACKHOLE = object()


class Thunk:
    """A memoizing suspension of a zero-argument computation.

    ``Thunk(f)`` delays ``f()``; :func:`force` runs it at most once and
    caches the result.  While the computation runs the cell is
    *blackholed*: a re-entrant demand raises :class:`BlackHoleError`,
    which is how a cyclic element dependence surfaces at run time.
    """

    __slots__ = ("_fn", "_value")

    def __init__(self, fn: Callable[[], Any]):
        self._fn = fn
        self._value = _UNEVALUATED
        STATS.created += 1

    @property
    def evaluated(self) -> bool:
        """True once the thunk has been forced to a value."""
        return self._value is not _UNEVALUATED and self._value is not _BLACKHOLE

    def force(self) -> Any:
        """Demand the thunk's value, running the suspension if needed."""
        value = self._value
        if value is _BLACKHOLE:
            raise BlackHoleError("thunk")
        if value is not _UNEVALUATED:
            STATS.hits += 1
            return value
        STATS.forced += 1
        self._value = _BLACKHOLE
        try:
            result = force(self._fn())
        except BaseException:
            # Leave the thunk re-runnable so errors are reproducible
            # (Haskell would keep it bottom; re-raising each time is the
            # observable equivalent).
            self._value = _UNEVALUATED
            raise
        self._value = result
        self._fn = None  # drop the closure for the GC
        return result

    def __repr__(self):
        if self.evaluated:
            return f"Thunk(value={self._value!r})"
        return "Thunk(<unevaluated>)"


def force(x: Any) -> Any:
    """Force ``x`` to weak head normal form.

    Non-thunks are already values and are returned unchanged; thunks are
    forced (recursively, since a thunk may return another thunk).
    """
    while isinstance(x, Thunk):
        x = x.force()
    return x


def delay(fn: Callable[[], Any]) -> Thunk:
    """Synonym for ``Thunk(fn)`` reading better at call sites."""
    return Thunk(fn)
