"""Independent references the benchmark checks every op against.

The solve references are hand-written sweep loops with the same float
operation order as the workload programs and their own convergence
test; they never import ``repro``.  The ``compile_mix`` reference is the
lazy oracle (``repro.evaluate`` / ``repro.run_program``), which
interprets the source and never calls the compiler.

Every output is reduced to a digest, so the measured process only ships
a short string per op: the float64 bits for the solves, whose cells
must be bit-identical, and ``==``-equality for the compiled artifacts.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Dict, Iterable, List, Tuple

from workloads import SOURCES, Solve, artifact_inputs, meshes

#: The program's ``converge`` cap: a solve that needs more sweeps fails.
CONVERGE_CAP = 10_000


def value_digest(cells: Iterable) -> str:
    """A hash of a cell list that two lists share exactly when they are
    equal under ``==`` (an integral float and its int hash alike)."""
    h = hashlib.sha256()
    for cell in cells:
        if isinstance(cell, float):
            cell = float(cell)
            if cell.is_integer() and abs(cell) < 2 ** 53:
                cell = int(cell)
        h.update(repr(cell).encode())
        h.update(b",")
    return h.hexdigest()


def bits_digest(cells: Iterable[float]) -> str:
    """A hash of the float64 bits of a cell list (bit identity)."""
    return hashlib.sha256(array("d", cells).tobytes()).hexdigest()


def sor_solve(cells: List[float], m: int, omega: float,
              tol: float) -> Tuple[List[float], int]:
    """In-place SOR sweeps to ``max |new - old| <= tol``.

    North and west neighbours are this sweep's values, south and east
    the previous sweep's: one buffer updated in row-major order.
    """
    x = list(cells)
    for sweep in range(1, CONVERGE_CAP + 1):
        old = x[:]
        for i in range(1, m - 1):
            for k in range(i * m + 1, i * m + m - 1):
                u = x[k]
                x[k] = u + omega * (
                    0.25 * (x[k - m] + x[k - 1] + x[k + m] + x[k + 1]) - u
                )
        if max(abs(a - b) for a, b in zip(x, old)) <= tol:
            return x, sweep
    raise RuntimeError("reference SOR did not converge")


def jacobi_solve(cells: List[float], m: int,
                 tol: float) -> Tuple[List[float], int]:
    """Double-buffered Jacobi sweeps; the boundary is copied through."""
    x = list(cells)
    for sweep in range(1, CONVERGE_CAP + 1):
        y = x[:]
        for i in range(1, m - 1):
            for k in range(i * m + 1, i * m + m - 1):
                y[k] = 0.25 * (x[k - m] + x[k + m] + x[k - 1] + x[k + 1])
        delta = max(abs(a - b) for a, b in zip(y, x))
        x = y
        if delta <= tol:
            return x, sweep
    raise RuntimeError("reference Jacobi did not converge")


def solve_refs(spec: Solve, seed: int) -> List[Tuple[str, int]]:
    """``(digest, sweeps)`` of each seeded mesh of one solve workload."""
    out = []
    for cells in meshes(spec, seed):
        if spec.kind == "sor":
            solved, sweeps = sor_solve(cells, spec.m, spec.omega, spec.tol)
        else:
            solved, sweeps = jacobi_solve(cells, spec.m, spec.tol)
        out.append((bits_digest(solved), sweeps))
    return out


def oracle_refs(requests: Dict[str, Tuple[str, Dict]]) -> Dict[str, str]:
    """Lazy-oracle digest per ``compile_mix`` request key.

    ``requests`` maps each key to ``(source name, params)``.  When the
    oracle raises, the key maps to the error text, so every op of that
    request fails the comparison.
    """
    import repro
    from repro import FlatArray

    refs: Dict[str, str] = {}
    for key, (name, params) in requests.items():
        source, is_program, _ = SOURCES[name]
        env = dict(params)
        for arr, (bounds, cells) in artifact_inputs(name, params).items():
            env[arr] = FlatArray.from_list(bounds, cells)
        try:
            if is_program:
                result = repro.run_program(source, bindings=env)
            else:
                result = repro.evaluate(source, bindings=env, deep=False)
            refs[key] = value_digest(result.to_list())
        except Exception as exc:  # the mismatch is reported per op
            refs[key] = f"oracle raised {exc!r}"
    return refs
