#!/usr/bin/env python3
"""The §10 extensions: vectorization, interchange, wavefront execution.

The paper's final section sketches how the same dependence information
drives vectorization and parallelization.  One option,
``CodegenOptions(vectorize=True)``, runs all of it; this example shows
the four steps:

1. dependence-free loop nests compiled to numpy slices;
2. loop interchange moving a dependence-free loop innermost;
3. hyperplane (wavefront) parallelism profiles for nests where every
   loop carries a dependence;
4. ``vectorize`` *executing* those profiles: anti-diagonal slice
   sweeps for the carried nest, whole-dimension slices for the
   dependence-free borders, with bit-identical results.

Run:  python examples/vectorize_and_parallel.py
"""

import time

import repro
from repro import CodegenOptions, FlatArray, analyze
from repro.kernels import SOR_MONOLITHIC, WAVEFRONT, mesh_cells

N = 60_000

SAXPY = """
letrec y = array (1,n)
  [ i := a0 * x!i + y0!i | i <- [1..n] ]
in y
"""

COLUMN_RECURRENCE = """
letrec a = array ((1,1),(m,m))
  ([ (i,1) := 0.5 * fromIntegral i | i <- [1..m] ] ++
   [ (i,j) := a!(i,j-1) + 1.0 | i <- [1..m], j <- [2..m] ])
in a
"""


def timed(compiled, env):
    start = time.perf_counter()
    result = compiled(env)
    return result, time.perf_counter() - start


def main():
    # ------------------------------------------------------------------
    # 1. Vectorization of a dependence-free loop (SAXPY).
    env = {
        "n": N,
        "a0": 2.5,
        "x": FlatArray.from_list((1, N), [float(k) for k in range(N)]),
        "y0": FlatArray.from_list((1, N), [1.0] * N),
    }
    scalar = repro.compile(SAXPY, params={"n": N})
    vector = repro.compile(SAXPY, params={"n": N},
                           options=CodegenOptions(vectorize=True))
    r1, t_scalar = timed(scalar, env)
    r2, t_vector = timed(vector, env)
    assert r1.to_list() == r2.to_list()
    print(f"SAXPY n={N}: scalar {t_scalar*1000:.1f} ms, "
          f"vectorized {t_vector*1000:.1f} ms "
          f"({t_scalar/t_vector:.1f}x)")

    # ------------------------------------------------------------------
    # 2. Interchange exposes a vectorizable loop.
    m = 300
    plain = repro.compile(COLUMN_RECURRENCE, params={"m": m})
    swapped = repro.compile(COLUMN_RECURRENCE, params={"m": m},
                            options=CodegenOptions(vectorize=True))
    print("\nColumn recurrence (inner loop carries the dependence):")
    for note in swapped.report.notes:
        print(f"  {note}")
    r3, t_plain = timed(plain, {"m": m})
    r4, t_swapped = timed(swapped, {"m": m})
    assert r3.to_list() == r4.to_list()
    print(f"  scalar {t_plain*1000:.1f} ms, interchanged+vectorized "
          f"{t_swapped*1000:.1f} ms ({t_plain/t_swapped:.1f}x)")

    # ------------------------------------------------------------------
    # 3. Wavefront parallelism for the fully-carried nest.
    report = analyze(WAVEFRONT, {"n": 100})
    print("\nWavefront recurrence parallelism profile:")
    for profile in report.parallelism:
        if profile.fully_parallel:
            print(f"  {profile.clause.label}: fully parallel "
                  f"({profile.work} instances in 1 step)")
        elif profile.hyperplane:
            print(f"  {profile.clause.label}: hyperplane "
                  f"h={profile.hyperplane}, critical path "
                  f"{profile.steps} of {profile.work} instances "
                  f"(speedup bound {profile.speedup_bound:.1f}x)")

    # ------------------------------------------------------------------
    # 4. Executing the wavefront: vectorize on SOR.
    size = 256
    mesh = FlatArray.from_list(((1, 1), (size, size)), mesh_cells(size))
    env = {"u": mesh, "m": size, "omega": 1.5}
    seq = repro.compile(SOR_MONOLITHIC, params={"m": size})
    vec = repro.compile(SOR_MONOLITHIC, params={"m": size},
                        options=CodegenOptions(vectorize=True))
    print(f"\nVectorizer decisions (SOR, m={size}):")
    for line in vec.report.parallel:
        print(f"  {line}")
    r5, t_seq = timed(seq, env)
    r6, t_vec = timed(vec, env)
    assert r5.to_list() == r6.to_list()  # bit-identical, not approx
    print(f"  scalar schedule {t_seq*1000:.1f} ms, wavefront "
          f"{t_vec*1000:.1f} ms ({t_seq/t_vec:.1f}x), bit-identical")


if __name__ == "__main__":
    main()
