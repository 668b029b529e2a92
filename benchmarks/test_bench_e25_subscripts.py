"""E25 (extension) — irregular subscripts: the guarded scatter, measured.

The workload is the permutation scatter ``a!(p!i) := b!i`` at n = 50000
with an opaque index array: nothing about ``p`` is known at compile
time, so soundness costs *something* on every call.  The question is
how little.  Three ways to run it:

* **guarded** — the subscript-property kernel: one O(n) verifier scan
  over ``p``, then the unchecked vectorize-eligible fast path (no
  per-write bounds/collision/definedness checks);
* **checked** — the pre-pass behavior for unproven indirect writes:
  thunkless loops carrying the full per-store check battery;
* **thunked** — the lazy fallback (``force_strategy='thunked'``): a
  thunk graph that tolerates any write order by construction.

Plus the accumulation side: the histogram's guarded fast path against
its per-store-checked form (bounds-only verification — duplicates are
semantics there, not errors, and accumulations have no thunked mode).

Asserted shape, at n = 50000:

* the guarded scatter is at least **2x faster** than the thunked
  fallback and at least **1.2x faster** than per-store checking;
* one verifier scan, zero fallbacks, and bit-identity with the lazy
  oracle on every path.

Set ``REPRO_BENCH_FAST=1`` for a CI-sized run (n = 2000; the speedup
assertions are skipped because the constant verifier/driver overheads
dominate tiny arrays).
"""

import os
import time

import pytest

import repro
from repro.codegen.emit import CodegenOptions
from repro.codegen.support import FlatArray, VERIFY_STATS
from repro.kernels import HISTOGRAM, PERMUTATION_SCATTER, ref_histogram
from repro.runtime.bounds import Bounds

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
N = 2000 if FAST else 50000
BINS = 64
ORACLE_N = 500
MIN_SPEEDUP_VS_THUNKED = 2.0
MIN_SPEEDUP_VS_CHECKED = 1.2


def best_of(fn, repeat=3):
    """Best wall time over ``repeat`` runs (noise-resistant floor)."""
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def arr(vals):
    if not vals:
        return FlatArray(Bounds(1, 0), [])
    return FlatArray(Bounds(1, len(vals)), list(vals))


def scatter_env(n):
    # gcd(step, n) == 1 makes i -> (step*i mod n) + 1 a permutation.
    step = 7
    assert n % step != 0
    p = [((step * i) % n) + 1 for i in range(n)]
    b = [3 * i - n for i in range(n)]
    return {"p": arr(p), "b": arr(b)}


def hist_env(n):
    k = [(i * 11) % BINS + 1 for i in range(n)]
    return {"k": k, "env": {"k": arr(k)}}


def compile_scatter(n, flavor):
    if flavor == "guarded":
        return repro.compile(PERMUTATION_SCATTER, params={"n": n})
    if flavor == "checked":
        return repro.compile(
            PERMUTATION_SCATTER, params={"n": n},
            options=CodegenOptions(bounds_checks=True,
                                   collision_checks=True,
                                   empties_check=True),
        )
    return repro.compile(PERMUTATION_SCATTER, params={"n": n},
                         force_strategy="thunked")


def compile_hist(n, flavor):
    params = {"n": n, "m": BINS}
    if flavor == "guarded":
        return repro.compile(HISTOGRAM, params=params)
    assert flavor == "checked"
    return repro.compile(HISTOGRAM, params=params,
                         options=CodegenOptions(bounds_checks=True))


@pytest.mark.benchmark(group="E25-scatter")
def test_e25_scatter_guarded(benchmark):
    compiled = compile_scatter(N, "guarded")
    assert compiled.report.strategy == "guarded"
    env = scatter_env(N)
    VERIFY_STATS.reset()
    result = benchmark(compiled, dict(env))
    assert VERIFY_STATS.fast_path >= 1
    assert VERIFY_STATS.fallbacks == 0
    assert result.bounds.size() == N


@pytest.mark.benchmark(group="E25-scatter")
def test_e25_scatter_checked(benchmark):
    compiled = compile_scatter(N, "checked")
    assert compiled.report.strategy == "thunkless"
    result = benchmark(compiled, scatter_env(N))
    assert result.bounds.size() == N


@pytest.mark.benchmark(group="E25-scatter")
def test_e25_scatter_thunked(benchmark):
    compiled = compile_scatter(N, "thunked")
    assert compiled.report.strategy == "thunked"
    result = benchmark(compiled, scatter_env(N))
    assert result.bounds.size() == N


@pytest.mark.benchmark(group="E25-histogram")
def test_e25_histogram_guarded(benchmark):
    compiled = compile_hist(N, "guarded")
    assert compiled.report.subscripts.guarded
    env = hist_env(N)["env"]
    VERIFY_STATS.reset()
    result = benchmark(compiled, dict(env))
    assert VERIFY_STATS.fast_path >= 1
    assert result.bounds.size() == BINS


@pytest.mark.benchmark(group="E25-histogram")
def test_e25_histogram_checked(benchmark):
    compiled = compile_hist(N, "checked")
    assert not compiled.report.subscripts.guarded
    result = benchmark(compiled, hist_env(N)["env"])
    assert result.bounds.size() == BINS


def test_e25_speedup_floor():
    """The headline claim: the verifier scan pays for itself."""
    guarded = compile_scatter(N, "guarded")
    checked = compile_scatter(N, "checked")
    thunked = compile_scatter(N, "thunked")
    env = scatter_env(N)
    same = guarded(dict(env)).to_list()
    assert same == checked(dict(env)).to_list()
    assert same == thunked(dict(env)).to_list()
    if FAST:
        return
    t_guarded = best_of(lambda: guarded(dict(env)))
    t_checked = best_of(lambda: checked(dict(env)))
    t_thunked = best_of(lambda: thunked(dict(env)))
    assert t_thunked / t_guarded >= MIN_SPEEDUP_VS_THUNKED, \
        (t_thunked, t_guarded)
    assert t_checked / t_guarded >= MIN_SPEEDUP_VS_CHECKED, \
        (t_checked, t_guarded)


def test_e25_matches_lazy_oracle():
    """Bit-identity with ``evaluate`` — verification is an
    optimization gate, never a semantic one."""
    env = scatter_env(ORACLE_N)
    compiled = compile_scatter(ORACLE_N, "guarded")
    oracle = repro.evaluate(PERMUTATION_SCATTER,
                            {"n": ORACLE_N, **env})
    got = compiled(dict(env))
    assert ([got[i] for i in range(1, ORACLE_N + 1)]
            == [oracle[i] for i in range(1, ORACLE_N + 1)])

    hist = hist_env(ORACLE_N)
    compiled_h = compile_hist(ORACLE_N, "guarded")
    got_h = compiled_h(dict(hist["env"]))
    assert ([got_h[i] for i in range(1, BINS + 1)]
            == ref_histogram(hist["k"], BINS))


def test_e25_decisions_recorded():
    """Explain files the verifier decision under 'subscript'."""
    compiled = repro.compile(PERMUTATION_SCATTER, params={"n": N},
                             explain=True)
    decisions = compiled.explanation.by_area("subscript")
    assert any(d.verdict == "accepted" for d in decisions)
    assert "subscript" in compiled.report.summary()
