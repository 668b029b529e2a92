"""Catalog of the paper's kernels (and a few classic extras).

Every worked example and efficiency claim of Anderson & Hudak (PLDI
1990) appears here as surface source text plus reference Python
implementations, so tests, benchmarks, and examples share one
definition of each kernel.

The monolithic kernels are meant for :func:`repro.compile` (and the
lazy oracle :func:`repro.evaluate`); the in-place kernels for
``repro.compile(..., strategy="inplace", old_array=...)``.
"""

from __future__ import annotations

from typing import Dict, List

# ----------------------------------------------------------------------
# Monolithic kernels (paper §3, §5, §8).

#: The §3 wavefront recurrence: north/west borders 1, each interior
#: element the sum of its N, W, NW neighbours.  Dependences
#: (<,=), (=,<), (<,<): both loops forward.
WAVEFRONT = """
letrec* a = array ((1,1),(n,n))
   ([ (1,j) := 1 | j <- [1..n] ] ++
    [ (i,1) := 1 | i <- [2..n] ] ++
    [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
      | i <- [2..n], j <- [2..n] ])
in a
"""

#: Float wavefront (the §10 hyperplane showcase): same dependence
#: pattern as :data:`WAVEFRONT`, but with float borders and a convex
#: stencil so values stay bounded at any size — the vectorizer's
#: anti-diagonal sweep is bit-identical to the scalar schedule here.
WAVEFRONT_F = """
letrec* a = array ((1,1),(n,n))
   ([ (1,j) := 1.0 | j <- [1..n] ] ++
    [ (i,1) := 1.0 | i <- [2..n] ] ++
    [ (i,j) := 0.25 * (a!(i-1,j) + a!(i,j-1)) + 0.5 * a!(i-1,j-1)
      | i <- [2..n], j <- [2..n] ])
in a
"""

#: §5 example 1: three stride-3 clauses in one loop of 100.  Expected
#: dependence graph: 1 -> 2 (<), 1 -> 3 (=); forward loop, clause 1
#: before clause 3 within an instance.
STRIDE3 = """
letrec* a = array (1,300)
  [* [3*i := 1] ++
     [ 3*i-1 := (if i > 1 then a!(3*(i-1)) else 0) + 1 ] ++
     [ 3*i-2 := a!(3*i) * 2 ]
   | i <- [1..100] *]
in a
"""

#: §5 example 1 with the guard dropped (the paper's schematic form;
#: the value read at i=1 is out of bounds, so only use for analysis).
STRIDE3_SCHEMATIC = """
letrec a = array (1,300)
  [* [3*i := 1] ++
     [ 3*i-1 := a!(3*(i-1)) + 1 ] ++
     [ 3*i-2 := a!(3*i) * 2 ]
   | i <- [1..100] *]
in a
"""

#: §5 example 2's dependence structure: clauses 1 and 2 in a nested
#: i/j loop, clause 3 under i only; edges 2 -> 1 (=,>), 1 -> 2 (<,>),
#: 2 -> 3 (<).  Schedule: i forward, j backward, clause 3 after the
#: inner loop.  (The paper's figure elides the value expressions; the
#: subscripts here realize exactly those three edges, with guards
#: keeping the reads in bounds.)
EXAMPLE2 = """
letrec a = array (1,3000)
  [* [* [ 100*i + 2*j + 1 :=
            (if j < 20 then a!(100*i + 2*(j+1)) else 0) + 1,
          100*i + 2*j :=
            (if i > 1 && j < 20 then a!(100*(i-1) + 2*(j+1) + 1)
                                else 0) + 2 ]
        | j <- [1..20] *] ++
     [ 100*i + 51 := (if i > 1 then a!(100*(i-1) + 10) else 0) ]
   | i <- [1..10] *]
in a
"""

#: §8.1.2 acyclic example: A -> B (<), B -> C (>), A -> C (=).
#: Three per-clause loops collapsible to two passes.
ABC_ACYCLIC = """
letrec* a = array (3,32)
  [* [ 3*i := 1,
       3*i+1 := (if i > 1 then a!(3*(i-1)) else 0) + 1,
       3*i+2 := (if i < 10 then a!(3*(i+1)+1) else 0) + a!(3*i) ]
   | i <- [1..10] *]
in a
"""

#: §8.1.2 cyclic example: A -> B (<), B -> A (>) — a cycle with both
#: edge kinds; no static schedule exists and the compiler must fall
#: back to thunks.  (The guards make the recursion well-founded so the
#: thunked code still terminates.)
CYCLIC_FALLBACK = """
letrec* a = array (2,21)
  [* [ 2*i := (if i < 9 then a!(2*(i+2)+1) else 0) + 1,
       2*i+1 := (if i > 1 then a!(2*(i-1)) else 0) + 1 ]
   | i <- [1..10] *]
in a
"""

#: A first-order linear recurrence (tridiagonal-style forward sweep).
FORWARD_RECURRENCE = """
letrec* x = array (1,n)
  ([ 1 := b!1 ] ++
   [ i := b!i - c!i * x!(i-1) | i <- [2..n] ])
in x
"""

#: A backward recurrence: the comprehension is written forward but the
#: dependence forces a backward loop.
BACKWARD_RECURRENCE = """
letrec* x = array (1,n)
  ([ n := b!n ] ++
   [ i := b!i + c!i * x!(i+1) | i <- [1..n-1] ])
in x
"""

#: Matrix multiply: a reduction inside the element value (compiled to
#: a fused generator expression — no intermediate list, §3.1).
MATMUL = """
letrec* c = array ((1,1),(n,n))
  [ (i,j) := sum [ x!(i,k) * y!(k,j) | k <- [1..n] ]
  | i <- [1..n], j <- [1..n] ]
in c
"""

#: Vector of squares — the paper's first example of the syntax.
SQUARES = """
letrec* a = array (1,n) [ i := i*i | i <- [1..n] ]
in a
"""

#: Pascal's triangle by rows, padded with zeros (guards + recurrence).
PASCAL = """
letrec* p = array ((1,1),(n,n))
   ([ (i,1) := 1 | i <- [1..n] ] ++
    [ (i,j) := (if j <= i then p!(i-1,j-1) + p!(i-1,j) else 0)
      | i <- [2..n], j <- [2..n] ] ++
    [ (1,j) := 0 | j <- [2..n] ])
in p
"""

# ----------------------------------------------------------------------
# In-place kernels (paper §9).

#: LINPACK row swap: swap rows i and k of an m x n matrix, in place.
#: Anti-dependence (=) cycle broken by node-splitting: one hoisted
#: temporary per column — exactly the hand-coded swap.
SWAP = """
array ((1,1),(m,n))
  [* [ (i,j) := a!(k,j), (k,j) := a!(i,j) ] | j <- [1..n] *]
"""

#: One Jacobi relaxation step on the interior of an m x m mesh, in
#: place: all four neighbour reads are of the *old* array.  Anti
#: self-cycles at both loop levels; node-splitting keeps a previous-row
#: vector and a previous-element scalar (paper's §9 discussion).
JACOBI = """
array ((1,1),(m,m))
  [* (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
   | i <- [2..m-1], j <- [2..m-1] *]
"""

#: One Gauss-Seidel / SOR step (the Livermore Kernel 23 wavefront):
#: north/west reads see *new* values (flow deps), south/east reads the
#: old array (anti deps).  All four dependences agree with forward
#: loops: no thunks, no copies.
SOR = """
letrec a = array ((1,1),(m,m))
  [* (i,j) := u!(i,j) + omega *
       (0.25 * (a!(i-1,j) + a!(i,j-1) + u!(i+1,j) + u!(i,j+1))
        - u!(i,j))
   | i <- [2..m-1], j <- [2..m-1] *]
in a
"""

#: Monolithic form of one SOR sweep (fresh output array, borders
#: copied through): same arithmetic as :data:`SOR`, no storage reuse.
#: The interior clause carries dependences at both loop levels, so
#: ``vectorize`` runs it as a hyperplane (1,1) wavefront.
SOR_MONOLITHIC = """
letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := u!(i,j) + omega *
         (0.25 * (a!(i-1,j) + a!(i,j-1) + u!(i+1,j) + u!(i,j+1))
          - u!(i,j))
      | i <- [2..m-1], j <- [2..m-1] ])
in a
"""

#: Plain Gauss-Seidel (omega = 1 form, matches the paper's simplified
#: fragment).
GAUSS_SEIDEL = """
letrec a = array ((1,1),(m,m))
  [* (i,j) := 0.25 * (a!(i-1,j) + a!(i,j-1) + u!(i+1,j) + u!(i,j+1))
   | i <- [2..m-1], j <- [2..m-1] *]
in a
"""

#: In-place SAXPY on a matrix row: row i += s * row k (LINPACK's
#: daxpy on rows).  No anti conflicts: zero copies.
SAXPY_ROW = """
array ((1,1),(m,n))
  [* (i,j) := a!(i,j) + s * a!(k,j) | j <- [1..n] *]
"""

#: Scaling a matrix row in place (LINPACK dscal): zero copies.
SCALE_ROW = """
array ((1,1),(m,n))
  [* (i,j) := s * a!(i,j) | j <- [1..n] *]
"""

#: Reversing a vector in place: every element moves; anti dependences
#: of both directions force node-splitting (or, without the stencil
#: shape... this one *is* a stencil in neither dim) — exercises the
#: whole-copy fallback.
REVERSE = """
array (1,n)
  [* i := a!(n+1-i) | i <- [1..n] *]
"""

# ----------------------------------------------------------------------
# Irregular-subscript kernels (gather/scatter; the subscript-property
# analysis in repro.core.subscripts_indirect).

#: Permutation scatter: ``p`` is opaque at compile time, so the
#: compiler emits the guarded dual-schedule kernel — an O(n) runtime
#: verifier proves ``p`` injective and in bounds, then the scatter
#: runs unchecked (and vectorized when requested); a bad ``p``
#: replays the loop with full bounds/collision/definedness checks.
PERMUTATION_SCATTER = """
letrec* a = array (1,n) [ (p!i) := b!i | i <- [1..n] ] in a
"""

#: Histogram: accumulation through an opaque key array.  Duplicate
#: keys are the whole point, so only bounds and int-ness are verified
#: at runtime; the fast path then accumulates with no per-store checks.
HISTOGRAM = """
accumArray (\\a b -> a + b) 0 (1,m) [ (k!i) := 1 | i <- [1..n] ]
"""

#: Sparse matrix-vector product over CSR-style arrays: ``ptr`` bounds
#: each row's slice of ``v``/``col``, ``col`` gathers from ``x``.  The
#: writes stay affine (one per row), so this exercises the *gather*
#: side of the analysis: read-side index arrays are hazard-free and
#: the loops compile thunkless.
SPMV_CSR = """
letrec* y = array (1,m)
  [ i := sum [ v!k * x!(col!k) | k <- [ptr!i .. ptr!(i+1)-1] ]
  | i <- [1..m] ]
in y
"""

#: Scatter through a *visible* permutation: the index array's own
#: comprehension (a reversal, affine in ``i`` with coefficient -1) is
#: in the same program, so injectivity/boundedness are proven
#: statically and the scatter compiles to a plain unchecked schedule —
#: no runtime verifier at all.  (``b`` is a sole-consumer producer;
#: cross-binding fusion inlines it into the scatter's loop.)
PROGRAM_SCATTER = """
p = array (1,n) [ i := n + 1 - i | i <- [1..n] ];
b = array (1,n) [ i := i * (i + 1) | i <- [1..n] ];
a = array (1,n) [ (p!i) := b!i | i <- [1..n] ];
main = a
"""

# ----------------------------------------------------------------------
# Whole-program kernels (multi-binding; for repro.compile_program and
# the lazy oracle repro.run_program).

#: A three-stage pipeline: each stage's input dies at its last read, so
#: the program compiler threads §9 storage reuse across bindings — the
#: whole chain runs in one buffer (expected: 2 reuse edges, 1
#: allocation instead of 3).
PROGRAM_PIPELINE = """
b = array (1,n) [ i := 1.0 * i * i | i <- [1..n] ];
c = array (1,n) [ i := b!i + 0.5 | i <- [1..n] ];
x = letrec x = array (1,n)
      ([ 1 := c!1 ] ++
       [ i := c!i - 0.25 * x!(i-1) | i <- [2..n] ])
    in x;
main = x
"""

#: Jacobi relaxation to convergence: boundary held at i+j (harmonic,
#: so the interior relaxes toward it), interior seeded 0.  The step is
#: a full-mesh monolithic sweep (borders copied through), so the
#: driver double-buffers and recycles dead buffers via the '.reuse'
#: slot — two allocations for the whole run.
PROGRAM_JACOBI = """
u0 = array ((1,1),(m,m))
  [ (i,j) := if i == 1 || i == m || j == 1 || j == m
             then 1.0 * (i + j) else 0.0
  | i <- [1..m], j <- [1..m] ];
step u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
main = converge step u0 tol
"""

#: Fixed-sweep-count Jacobi (same step; ``iterate`` instead of
#: ``converge``).
PROGRAM_JACOBI_STEPS = """
u0 = array ((1,1),(m,m))
  [ (i,j) := if i == 1 || i == m || j == 1 || j == m
             then 1.0 * (i + j) else 0.0
  | i <- [1..m], j <- [1..m] ];
step u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := 0.25 * (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + u!(i,j+1))
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
main = iterate step u0 k
"""

#: SOR to a fixed sweep count: north/west reads see *new* values (flow
#: deps into the letrec name), south/east read the previous sweep —
#: the §9 plan is a clean split, so the driver runs true in-place
#: sweeps in the seed's buffer (zero steady-state allocations).
PROGRAM_SOR = """
u0 = array ((1,1),(m,m))
  [ (i,j) := if i == 1 || i == m || j == 1 || j == m
             then 1.0 * (i + j) else 0.0
  | i <- [1..m], j <- [1..m] ];
sweep u = letrec a = array ((1,1),(m,m))
   ([ (1,j) := u!(1,j) | j <- [1..m] ] ++
    [ (m,j) := u!(m,j) | j <- [1..m] ] ++
    [ (i,1) := u!(i,1) | i <- [2..m-1] ] ++
    [ (i,m) := u!(i,m) | i <- [2..m-1] ] ++
    [ (i,j) := u!(i,j) + omega *
         (0.25 * (a!(i-1,j) + a!(i,j-1) + u!(i+1,j) + u!(i,j+1))
          - u!(i,j))
      | i <- [2..m-1], j <- [2..m-1] ])
  in a;
main = iterate sweep u0 k
"""

#: A four-stage stencil pipeline for loop fusion (E21): ``img`` feeds
#: a 5-point blur (reads at distance ±1, so it must materialize), then
#: blur→scale→shift→clamp are pure distance-zero stages — scale reads
#: the blur at a shifted origin (legal after loop alignment), clamp
#: reads shift twice (bound once via ``let`` in the fused nest).
#: Expected: one fused chain blur→scale→shift→main, two allocations
#: instead of four.
PROGRAM_STENCIL_CHAIN = """
img = array ((1,1),(m,m))
  [ (i,j) := 0.01 * (i * j) | i <- [1..m], j <- [1..m] ];
blur = array ((2,2),(m-1,m-1))
  [ (i,j) := 0.2 * (img!(i,j) + img!(i-1,j) + img!(i+1,j)
                    + img!(i,j-1) + img!(i,j+1))
  | i <- [2..m-1], j <- [2..m-1] ];
scale = array ((1,1),(m-2,m-2))
  [ (i,j) := blur!(i+1,j+1) * 1.5 | i <- [1..m-2], j <- [1..m-2] ];
shift = array ((1,1),(m-2,m-2))
  [ (i,j) := scale!(i,j) + 0.05 | i <- [1..m-2], j <- [1..m-2] ];
main = array ((1,1),(m-2,m-2))
  [ (i,j) := if shift!(i,j) > 0.9 then 0.9 else shift!(i,j)
  | i <- [1..m-2], j <- [1..m-2] ]
"""

#: ``bigupd`` across bindings: the row swap's input array is
#: program-allocated and dead after the update, so the defensive copy
#: is elided and the swap mutates a0's storage directly.
PROGRAM_SWAP = """
a0 = array ((1,1),(m,n)) [ (i,j) := 1.0 * (10*i + j)
                         | i <- [1..m], j <- [1..n] ];
a1 = bigupd a0 [* [ (r,j) := a0!(s,j), (s,j) := a0!(r,j) ]
              | j <- [1..n] *];
main = a1
"""

#: Registry of whole-program kernels: name -> {source, params}.
#: ``params`` are defaults small enough for differential tests.
PROGRAM_CATALOG: Dict[str, Dict] = {
    "program_pipeline": {"source": PROGRAM_PIPELINE,
                         "params": {"n": 24}},
    "program_jacobi": {"source": PROGRAM_JACOBI,
                       "params": {"m": 8, "tol": 1e-3}},
    "program_jacobi_steps": {"source": PROGRAM_JACOBI_STEPS,
                             "params": {"m": 8, "k": 5}},
    "program_sor": {"source": PROGRAM_SOR,
                    "params": {"m": 8, "k": 5, "omega": 1.25}},
    "program_swap": {"source": PROGRAM_SWAP,
                     "params": {"m": 5, "n": 7, "r": 2, "s": 4}},
    "program_stencil_chain": {"source": PROGRAM_STENCIL_CHAIN,
                              "params": {"m": 10}},
    "program_scatter": {"source": PROGRAM_SCATTER,
                        "params": {"n": 16}},
}


# ----------------------------------------------------------------------
# Reference (hand-coded "Fortran-style") implementations.


def ref_wavefront(n: int) -> List[List[int]]:
    """Hand-scheduled wavefront; returns a dense row list."""
    a = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(1, n + 1):
        a[1][j] = 1
    for i in range(2, n + 1):
        a[i][1] = 1
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            a[i][j] = a[i - 1][j] + a[i][j - 1] + a[i - 1][j - 1]
    return a


def ref_wavefront_f(n: int) -> List[List[float]]:
    """Hand-scheduled float wavefront (matches :data:`WAVEFRONT_F`)."""
    a = [[0.0] * (n + 1) for _ in range(n + 1)]
    for j in range(1, n + 1):
        a[1][j] = 1.0
    for i in range(2, n + 1):
        a[i][1] = 1.0
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            a[i][j] = (0.25 * (a[i - 1][j] + a[i][j - 1])
                       + 0.5 * a[i - 1][j - 1])
    return a


def ref_jacobi(cells: List[float], m: int) -> List[float]:
    """One Jacobi step on a flat row-major m x m mesh (pure)."""
    def at(r, c):
        return cells[(r - 1) * m + (c - 1)]

    out = list(cells)
    for r in range(2, m):
        for c in range(2, m):
            out[(r - 1) * m + (c - 1)] = 0.25 * (
                at(r - 1, c) + at(r + 1, c) + at(r, c - 1) + at(r, c + 1)
            )
    return out


def ref_gauss_seidel(cells: List[float], m: int) -> List[float]:
    """One Gauss-Seidel sweep on a flat row-major m x m mesh."""
    out = list(cells)

    def at(r, c):
        return out[(r - 1) * m + (c - 1)]

    for r in range(2, m):
        for c in range(2, m):
            out[(r - 1) * m + (c - 1)] = 0.25 * (
                at(r - 1, c) + at(r + 1, c) + at(r, c - 1) + at(r, c + 1)
            )
    return out


def ref_sor(cells: List[float], m: int, omega: float) -> List[float]:
    """One SOR sweep on a flat row-major m x m mesh."""
    out = list(cells)

    def at(r, c):
        return out[(r - 1) * m + (c - 1)]

    for r in range(2, m):
        for c in range(2, m):
            old = at(r, c)
            gs = 0.25 * (
                at(r - 1, c) + at(r + 1, c) + at(r, c - 1) + at(r, c + 1)
            )
            out[(r - 1) * m + (c - 1)] = old + omega * (gs - old)
    return out


def ref_swap(cells: List, m: int, n: int, i: int, k: int) -> List:
    """Swap rows i and k of a flat row-major m x n matrix (pure)."""
    out = list(cells)
    for j in range(n):
        out[(i - 1) * n + j], out[(k - 1) * n + j] = (
            out[(k - 1) * n + j],
            out[(i - 1) * n + j],
        )
    return out


def ref_matmul(x: List[List[float]], y: List[List[float]], n: int):
    """Dense n x n matrix product on 1-based nested lists."""
    out = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out[i][j] = sum(x[i][k] * y[k][j] for k in range(1, n + 1))
    return out


def ref_scatter(p: List[int], b: List, n: int, lo: int = 1) -> List:
    """Hand-coded permutation scatter: ``out[p[i]] = b[i]`` (1-based).

    ``p``/``b`` are 0-based Python lists of the arrays' cells; ``lo``
    is the output's low bound.  No validation — feed it a permutation.
    """
    out = [None] * n
    for i in range(n):
        out[p[i] - lo] = b[i]
    return out


def ref_histogram(k: List[int], m: int, lo: int = 1) -> List[int]:
    """Hand-coded histogram: counts of each key in ``[lo, lo+m-1]``."""
    out = [0] * m
    for key in k:
        out[key - lo] += 1
    return out


def ref_spmv(ptr: List[int], col: List[int], v: List, x: List,
             m: int) -> List:
    """Hand-coded CSR sparse matrix-vector product (1-based logical).

    ``ptr`` has ``m + 1`` entries (1-based positions into ``v``/
    ``col``); ``col`` holds 1-based column indices into ``x``.  All
    four inputs are 0-based Python lists of the arrays' cells.
    """
    out = [0] * m
    for i in range(m):
        acc = 0
        for j in range(ptr[i] - 1, ptr[i + 1] - 1):
            acc += v[j] * x[col[j] - 1]
        out[i] = acc
    return out


def mesh_cells(m: int, seed: int = 0) -> List[float]:
    """A deterministic test mesh (flat row-major, 1-based logical)."""
    return [
        float((r * 31 + c * 17 + seed * 7) % 10)
        for r in range(1, m + 1)
        for c in range(1, m + 1)
    ]


#: Registry used by examples and benches: name -> (source, kind).
CATALOG: Dict[str, Dict] = {
    "wavefront": {"source": WAVEFRONT, "kind": "monolithic"},
    "wavefront_f": {"source": WAVEFRONT_F, "kind": "monolithic"},
    "sor_monolithic": {"source": SOR_MONOLITHIC, "kind": "monolithic"},
    "stride3": {"source": STRIDE3, "kind": "monolithic"},
    "example2": {"source": EXAMPLE2, "kind": "monolithic",
                 "partial": True},
    "abc_acyclic": {"source": ABC_ACYCLIC, "kind": "monolithic"},
    "cyclic_fallback": {"source": CYCLIC_FALLBACK, "kind": "monolithic"},
    "forward_recurrence": {"source": FORWARD_RECURRENCE,
                           "kind": "monolithic"},
    "backward_recurrence": {"source": BACKWARD_RECURRENCE,
                            "kind": "monolithic"},
    "matmul": {"source": MATMUL, "kind": "monolithic"},
    "squares": {"source": SQUARES, "kind": "monolithic"},
    "pascal": {"source": PASCAL, "kind": "monolithic"},
    "swap": {"source": SWAP, "kind": "inplace", "old": "a"},
    "jacobi": {"source": JACOBI, "kind": "inplace", "old": "u"},
    "sor": {"source": SOR, "kind": "inplace", "old": "u"},
    "gauss_seidel": {"source": GAUSS_SEIDEL, "kind": "inplace", "old": "u"},
    "saxpy_row": {"source": SAXPY_ROW, "kind": "inplace", "old": "a"},
    "scale_row": {"source": SCALE_ROW, "kind": "inplace", "old": "a"},
    "reverse": {"source": REVERSE, "kind": "inplace", "old": "a"},
    "permutation_scatter": {"source": PERMUTATION_SCATTER,
                            "kind": "monolithic"},
    "histogram": {"source": HISTOGRAM, "kind": "accum"},
    "spmv_csr": {"source": SPMV_CSR, "kind": "monolithic"},
}
