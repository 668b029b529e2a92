"""Workloads of the solve-and-compile benchmark, and the inputs they draw.

Every workload is a closed loop: one client in one process sends its
next op only after the previous one returned.  There are no threads
(``parallel_threads`` stays 0) and no worker pool.  The seed draws the
inputs; the program only receives them.

The program texts and catalog sources below are copies, not imports of
``repro.kernels``, so that an edit to the catalog cannot silently change
what a workload measures.

``sor_c``
    In-place SOR ``converge`` (omega 1.9) on the C backend.  Each op
    solves a fresh seeded mesh passed as ``FlatArray.from_list``.  The
    Python sweep driver, the generated C wrapper's list/float64
    conversions and ``max_abs_diff`` dominate the op; the native kernel
    is a small share.  It is the only workload whose setup runs ``cc``.
    Layers: ``program.run``, ``program.iterate``, ``backends.c``,
    ``backends.native``.
``jacobi_py``
    Double-buffered Jacobi ``converge`` on the default python backend:
    a fresh output each sweep with ``.reuse`` buffer recycling.  The
    emitted Python kernel does almost all of the work, so sweep-driver or C
    changes must not move it and emitter changes do.  Layers:
    ``codegen`` (the step), ``program.run`` (buffers).
``jacobi_ooc``
    The same program and inputs as ``jacobi_py`` with ``ooc=True`` and
    four row tiles per sweep.  It is the only workload that runs
    ``program/outofcore.py``; its sweep counts equal ``jacobi_py``'s, so
    the difference between the two is the placement.  Layer:
    ``program.outofcore``.
``compile_mix``
    A seeded stream of ``CompileService.submit`` requests on the python
    backend with a disk tier in a fresh directory.  One request in five
    is new (a miss: the compile passes run and the store is written);
    the other four repeat an earlier request of the same epoch and hit
    the memory tier.  The stream is cut into epochs, each replayed
    against a fresh service, so the mix of hits and misses stays the
    same however fast the compiler gets.  Layers: ``program.compile``,
    the ``core`` passes, ``service``.

The meshes hold the boundary at ``i + j``, which is an exact fixpoint of
both sweeps.  The interior is that fixpoint plus one fixed sine mode and
seeded noise far below the tolerance, so the fixed mode alone decides
the sweep count: it does not depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

NAMES = ("sor_c", "jacobi_py", "jacobi_ooc", "compile_mix")

# ----------------------------------------------------------------------
# Solver programs.  ``u0`` is an input: the benchmark passes the seeded
# mesh in, the program never builds it.

SOR_PROGRAM = """
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
main = converge sweep u0 tol
"""

JACOBI_PROGRAM = """
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


@dataclass(frozen=True)
class Solve:
    """One solve workload's program, sizes and mesh shape."""

    kind: str            # "sor" | "jacobi"
    backend: str         # "c" | "python"
    ooc: bool
    m: int
    tol: float
    omega: float
    amp: float           # amplitude of the fixed sine mode
    mode: int            # its wave number along each axis
    noise: float         # half-width of the seeded noise

    @property
    def program(self) -> str:
        return SOR_PROGRAM if self.kind == "sor" else JACOBI_PROGRAM

    @property
    def params(self) -> Dict:
        params = {"m": self.m}
        if self.kind == "sor":
            params["omega"] = self.omega
        return params

    @property
    def tile_rows(self) -> Optional[int]:
        """Rows per out-of-core tile: four tiles per sweep."""
        return -(-self.m // 4) if self.ooc else None


def _jacobi_amp(m: int, mode: int, tol: float, sweeps: float) -> float:
    """Amplitude whose Jacobi sweep deltas fall below ``tol`` after
    ``sweeps`` sweeps: the mode decays by its eigenvalue each sweep."""
    lam = math.cos(mode * math.pi / (m - 1))
    return tol / ((1.0 - lam) * lam ** sweeps)


def _solves(tiny: bool) -> Dict[str, Solve]:
    # sor_c: 143 sweeps at m=48.  Jacobi: 5 sweeps at m=96, so that a
    # jacobi_ooc op stays near 0.1 s (a run then holds the hundred ops
    # a 90th percentile needs) while its tiles are large enough for the
    # kernel, not the per-tile spill-file flush, to dominate.
    m_sor, m_jac, mode = (12, 12, 2) if tiny else (48, 96, 14)
    sor = Solve("sor", "c", False, m_sor, 1e-6, 1.9, 10.0, 1, 1e-4)
    amp = _jacobi_amp(m_jac, mode, 1e-3, 6.5 if tiny else 3.5)
    jac = Solve("jacobi", "python", False, m_jac, 1e-3, 0.0, amp, mode,
                1e-5)
    return {"sor_c": sor, "jacobi_py": jac,
            "jacobi_ooc": replace(jac, ooc=True)}


def solve_spec(name: str, tiny: bool = False) -> Solve:
    return _solves(tiny)[name]


#: Distinct meshes per run; op ``k`` solves a fresh copy of mesh
#: ``k % MESHES``, so the reference solves each mesh once.
MESHES = 4


def mesh(spec: Solve, rng: random.Random) -> List[float]:
    """One seeded row-major ``m x m`` mesh (1-based logical indices)."""
    m = spec.m
    waves = [math.sin(spec.mode * math.pi * (i - 1) / (m - 1))
             for i in range(1, m + 1)]
    cells: List[float] = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            value = float(i + j)
            if 1 < i < m and 1 < j < m:
                value += spec.amp * waves[i - 1] * waves[j - 1]
                value += rng.uniform(-spec.noise, spec.noise)
            cells.append(value)
    return cells


def meshes(spec: Solve, seed: int) -> List[List[float]]:
    rng = random.Random(f"mesh-{seed}")
    return [mesh(spec, rng) for _ in range(MESHES)]


# ----------------------------------------------------------------------
# compile_mix: catalog sources (copied from the kernel catalog).

WAVEFRONT = """
letrec* a = array ((1,1),(n,n))
   ([ (1,j) := 1 | j <- [1..n] ] ++
    [ (i,1) := 1 | i <- [2..n] ] ++
    [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
      | i <- [2..n], j <- [2..n] ])
in a
"""

WAVEFRONT_F = """
letrec* a = array ((1,1),(n,n))
   ([ (1,j) := 1.0 | j <- [1..n] ] ++
    [ (i,1) := 1.0 | i <- [2..n] ] ++
    [ (i,j) := 0.25 * (a!(i-1,j) + a!(i,j-1)) + 0.5 * a!(i-1,j-1)
      | i <- [2..n], j <- [2..n] ])
in a
"""

PASCAL = """
letrec* p = array ((1,1),(n,n))
   ([ (i,1) := 1 | i <- [1..n] ] ++
    [ (i,j) := (if j <= i then p!(i-1,j-1) + p!(i-1,j) else 0)
      | i <- [2..n], j <- [2..n] ] ++
    [ (1,j) := 0 | j <- [2..n] ])
in p
"""

SQUARES = """
letrec* a = array (1,n) [ i := i*i | i <- [1..n] ]
in a
"""

MATMUL = """
letrec* c = array ((1,1),(n,n))
  [ (i,j) := sum [ x!(i,k) * y!(k,j) | k <- [1..n] ]
  | i <- [1..n], j <- [1..n] ]
in c
"""

FORWARD_RECURRENCE = """
letrec* x = array (1,n)
  ([ 1 := b!1 ] ++
   [ i := b!i - c!i * x!(i-1) | i <- [2..n] ])
in x
"""

BACKWARD_RECURRENCE = """
letrec* x = array (1,n)
  ([ n := b!n ] ++
   [ i := b!i + c!i * x!(i+1) | i <- [1..n-1] ])
in x
"""

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

PROGRAM_PIPELINE = """
b = array (1,n) [ i := 1.0 * i * i | i <- [1..n] ];
c = array (1,n) [ i := b!i + 0.5 | i <- [1..n] ];
x = letrec x = array (1,n)
      ([ 1 := c!1 ] ++
       [ i := c!i - 0.25 * x!(i-1) | i <- [2..n] ])
    in x;
main = x
"""

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

PROGRAM_SWAP = """
a0 = array ((1,1),(m,n)) [ (i,j) := 1.0 * (10*i + j)
                         | i <- [1..m], j <- [1..n] ];
a1 = bigupd a0 [* [ (r,j) := a0!(s,j), (s,j) := a0!(r,j) ]
              | j <- [1..n] *];
main = a1
"""

PROGRAM_SOR_STEPS = """
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

#: name -> (source, is_program, size range).  The sizes stay small so
#: that the lazy oracle checks every artifact in well under a second.
SOURCES: Dict[str, Tuple[str, bool, range]] = {
    "wavefront": (WAVEFRONT, False, range(4, 28)),
    "wavefront_f": (WAVEFRONT_F, False, range(4, 28)),
    "pascal": (PASCAL, False, range(4, 28)),
    "squares": (SQUARES, False, range(4, 28)),
    "matmul": (MATMUL, False, range(2, 10)),
    "forward_recurrence": (FORWARD_RECURRENCE, False, range(4, 28)),
    "backward_recurrence": (BACKWARD_RECURRENCE, False, range(4, 28)),
    "sor_monolithic": (SOR_MONOLITHIC, False, range(4, 12)),
    "program_pipeline": (PROGRAM_PIPELINE, True, range(4, 28)),
    "program_stencil_chain": (PROGRAM_STENCIL_CHAIN, True, range(4, 20)),
    "program_swap": (PROGRAM_SWAP, True, range(3, 11)),
    "program_sor_steps": (PROGRAM_SOR_STEPS, True, range(4, 10)),
    "program_jacobi_steps": (PROGRAM_JACOBI_STEPS, True, range(4, 10)),
}

#: Misses per source per epoch; an epoch has five ops per miss.
MISSES_PER_SOURCE = 2


def _params(name: str, size: int, rng: random.Random) -> Dict:
    """Size parameters of one new request."""
    if name == "sor_monolithic":
        return {"m": size, "omega": round(rng.uniform(1.0, 1.9), 3)}
    if name == "program_swap":
        return {"m": size, "n": rng.randrange(3, 11), "r": 1,
                "s": rng.randrange(2, size + 1)}
    if name == "program_sor_steps":
        return {"m": size, "k": rng.randrange(1, 4),
                "omega": round(rng.uniform(1.0, 1.9), 3)}
    if name == "program_jacobi_steps":
        return {"m": size, "k": rng.randrange(1, 4)}
    key = "m" if name == "program_stencil_chain" else "n"
    return {key: size}


def request_key(name: str, params: Dict) -> str:
    return name + ":" + ",".join(f"{k}={params[k]!r}"
                                 for k in sorted(params))


def _shape(per_source: int) -> List[Tuple[str, bool]]:
    """The seed-independent shape of an epoch: ``(source, is_new)``.

    Each block of five ops holds exactly one new request, at a drawn
    position (the first block starts with it); the other four repeat a
    source already requested in the epoch.  Every source gets the same
    number of new requests.  The shape is drawn once, from a fixed
    seed, so every seed sends the same mix of sources, hits and misses.
    """
    rng = random.Random("epoch-shape")
    names = [name for name in SOURCES for _ in range(per_source)]
    rng.shuffle(names)
    shape: List[Tuple[str, bool]] = []
    seen: List[str] = []
    for block, name in enumerate(names):
        slot = 0 if block == 0 else rng.randrange(5)
        for position in range(5):
            if position == slot:
                shape.append((name, True))
                if name not in seen:
                    seen.append(name)
            else:
                shape.append((rng.choice(seen), False))
    return shape


def epoch_stream(seed: int, tiny: bool = False) -> List[Tuple[str, Dict, bool]]:
    """The ops of one epoch as ``(source name, params, is_new)``.

    The seed draws the size parameters of every new request and which
    earlier request of the same source each repeat sends.
    """
    rng = random.Random(f"stream-{seed}")
    drawn: Dict[str, List[Dict]] = {name: [] for name in SOURCES}
    seen = set()
    ops: List[Tuple[str, Dict, bool]] = []
    for name, new in _shape(1 if tiny else MISSES_PER_SOURCE):
        if not new:
            ops.append((name, rng.choice(drawn[name]), False))
            continue
        while True:
            params = _params(name, rng.choice(SOURCES[name][2]), rng)
            key = request_key(name, params)
            if key not in seen:
                break
        seen.add(key)
        drawn[name].append(params)
        ops.append((name, params, True))
    return ops


def artifact_inputs(name: str, params: Dict) -> Dict:
    """The small deterministic input arrays an artifact runs on, as
    ``name -> (bounds, row-major cells)``; a function of the request
    alone, never of the seed."""
    n = params.get("n", 0)
    if name == "matmul":
        return {
            "x": (((1, 1), (n, n)),
                  [0.5 * (i % 7) + 0.25 for i in range(n * n)]),
            "y": (((1, 1), (n, n)),
                  [0.125 * (i % 5) - 1.0 for i in range(n * n)]),
        }
    if name in ("forward_recurrence", "backward_recurrence"):
        return {
            "b": ((1, n), [float(i % 4) + 0.5 for i in range(n)]),
            "c": ((1, n), [0.25 + 0.01 * i for i in range(n)]),
        }
    if name == "sor_monolithic":
        m = params["m"]
        return {"u": (((1, 1), (m, m)),
                      [float((r * 31 + c * 17) % 10)
                       for r in range(1, m + 1) for c in range(1, m + 1)])}
    return {}
