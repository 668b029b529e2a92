"""Array runtimes for non-strict monolithic and incremental arrays.

This package implements the run-time machinery that Anderson & Hudak's
paper assumes of a lazy functional language implementation:

* :mod:`repro.runtime.thunks` — memoizing thunks with blackholing, plus
  global counters so benchmarks can measure thunk overhead (paper §4).
* :mod:`repro.runtime.bounds` — Haskell ``Ix``-style multidimensional
  array bounds.
* :mod:`repro.runtime.nonstrict` — non-strict monolithic arrays (the
  semantics of Haskell ``array``), including recursively defined arrays.
* :mod:`repro.runtime.strict` — strict monolithic arrays (paper §2).
* :mod:`repro.runtime.force` — ``force_elements`` and ``letrec*`` (§2).
* :mod:`repro.runtime.accum` — accumulated arrays (Haskell
  ``accumArray``, paper §3).
* :mod:`repro.runtime.incremental` — incremental arrays under several
  update strategies (copy / trailers / reference counts / in-place) and
  ``bigupd`` (paper §9).
"""

from repro.runtime.accum import accum_array
from repro.runtime.bounds import Bounds
from repro.runtime.errors import (
    ArrayError,
    BlackHoleError,
    BoundsError,
    UndefinedElementError,
    WriteCollisionError,
)
from repro.runtime.force import force_elements, letrec_star
from repro.runtime.incremental import (
    RefCountedArray,
    TrailerArray,
    bigupd,
    upd,
)
from repro.runtime.nonstrict import NonStrictArray, recursive_array
from repro.runtime.strict import StrictArray
from repro.runtime.thunks import Thunk, ThunkStats, force

__all__ = [
    "ArrayError",
    "BlackHoleError",
    "Bounds",
    "BoundsError",
    "NonStrictArray",
    "RefCountedArray",
    "StrictArray",
    "Thunk",
    "ThunkStats",
    "TrailerArray",
    "UndefinedElementError",
    "WriteCollisionError",
    "accum_array",
    "bigupd",
    "force",
    "force_elements",
    "letrec_star",
    "recursive_array",
    "upd",
]
