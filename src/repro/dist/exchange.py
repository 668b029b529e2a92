"""Shared float64 segments and the cross-block reduction.

One :class:`SharedDoubles` is a named ``multiprocessing.shared_memory``
segment viewed as a flat float64 vector.  The parent creates (and
finally unlinks) the segments; forked workers attach by name, sharing
the parent's resource tracker, so segment lifetime stays with the
parent.

:func:`tree_reduce_max` is the convergence reduction: every block
writes its local ``max |delta|`` into one slot of a shared vector, then
the blocks combine pairwise in ``ceil(log2 n)`` barrier-separated
rounds with the NaN-sticky ``fold_max`` the out-of-core tile fold uses
too.  ``max`` over float64 is exact and associative, so the reduced
value — and therefore every block's convergence decision and the sweep
count — is bit-identical to the single-process ``max_abs_diff``.
"""

from __future__ import annotations

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - stdlib, but gate anyway
    _shm = None

from repro.program.iterate import fold_max


def available() -> bool:
    """Whether shared float64 segments can be used at all."""
    return _np is not None and _shm is not None


class SharedDoubles:
    """A named shared-memory segment viewed as flat float64 cells."""

    __slots__ = ("shm", "count", "owner", "array")

    def __init__(self, shm, count: int, owner: bool):
        self.shm = shm
        self.count = count
        self.owner = owner
        self.array = _np.ndarray((count,), dtype=_np.float64,
                                 buffer=shm.buf)

    @classmethod
    def create(cls, count: int) -> "SharedDoubles":
        """Allocate a fresh segment (parent side; unlinked on destroy)."""
        shm = _shm.SharedMemory(create=True, size=max(1, count) * 8)
        return cls(shm, count, owner=True)

    @classmethod
    def attach(cls, name: str, count: int) -> "SharedDoubles":
        """Map an existing segment (worker side).

        Attaching auto-registers the name with the resource tracker.
        Workers are forked, so they share the parent's tracker process,
        whose cache is a per-type *set* of names: the re-registrations
        dedupe against the parent's own, and the parent's ``unlink``
        removes the single entry.  Unregistering here would empty the
        set early and make that unlink a (noisy) double-remove.
        """
        shm = _shm.SharedMemory(name=name)
        return cls(shm, count, owner=False)

    @property
    def name(self) -> str:
        return self.shm.name

    def destroy(self) -> None:
        """Drop the mapping (and, for the owner, the segment itself).

        Best effort: a still-exported buffer view makes ``close``
        raise; the mapping then lives until process exit, which is
        safe — only the unlink has system-wide effect.
        """
        self.array = None
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - lingering views
            pass
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


def tree_reduce_max(cells, index: int, parties: int, wait) -> float:
    """Combine per-block maxima in ``cells`` pairwise; all blocks call.

    ``cells`` is the shared reduction vector (one slot per block),
    ``index`` this block's slot, ``wait`` the barrier wait.  The
    leading ``wait`` makes every block's write visible before round
    one; the final round's ``wait`` makes slot 0 final before anyone
    reads it.  Every block returns the same float64 value.
    """
    wait()
    stride = 1
    while stride < parties:
        if index % (2 * stride) == 0 and index + stride < parties:
            cells[index] = fold_max(cells[index], cells[index + stride])
        wait()
        stride *= 2
    return float(cells[0])
