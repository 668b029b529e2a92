"""The solve-and-compile benchmark: run one workload for one seed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sor_c --seed 1 --seconds 20 --trace 0

The workloads are described in ``workloads.py``.  Each run starts fresh
processes (``worker.py``) with fresh, empty ``REPRO_CACHE_DIR``,
``REPRO_NATIVE_CACHE_DIR``, ``REPRO_OOC_DIR`` and ``TMPDIR`` directories
under ``.perfbench/`` of the checkout:

* ``--trace 0``: ``SETUP_SAMPLES - 1`` processes that only set up, then
  one that sets up and runs ops for ``--seconds``.  It prints the
  ``end_to_end`` metrics of ``BENCHMARK.json``; ``setup_s`` is the
  median over all of them.  Op and setup times are CPU seconds of the
  measured process scaled to a nominal host speed (see ``worker.py``
  and ``hostspeed.py``); the wall-clock and unscaled CPU figures are
  printed beside them for reference.
* ``--trace 1``: one untraced process and one traced process
  (``REPRO_TRACE=1`` plus the wrappers in ``layers.py``), each for half
  of ``--seconds``.  It prints the ``per_layer`` metrics, the traced
  spans go to ``.perfbench/spans/``.

Every op is checked against ``reference.py`` after the measured process
has exited.  The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
Without ``src/repro`` in the working directory it exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

#: Fresh processes whose setup time ``setup_s`` takes the median of.
SETUP_SAMPLES = 7

#: Seconds a setup may take before the run is abandoned.
SETUP_TIMEOUT = 60


class BenchError(Exception):
    """The run cannot produce a valid measurement."""


def spawn(root, run_dir, index, args, seconds, trace=False,
          setup_only=False, spans=None):
    """Run one worker process in fresh directories; return its record
    plus ``setup_s``, measured from just before the process started."""
    work = os.path.join(run_dir, f"proc-{index}")
    dirs = {}
    for name in ("cache", "native", "ooc", "tmp", "store"):
        dirs[name] = os.path.join(work, name)
        os.makedirs(dirs[name])
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONPATH"}
    env.update(REPRO_CACHE_DIR=dirs["cache"],
               REPRO_NATIVE_CACHE_DIR=dirs["native"],
               REPRO_OOC_DIR=dirs["ooc"], TMPDIR=dirs["tmp"],
               PYTHONHASHSEED="0")
    # One thread: numpy's BLAS pool would add CPU time the op never used.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    if trace:
        env["REPRO_TRACE"] = "1"
    out = os.path.join(work, "record.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--root", root,
           "--work", dirs["store"], "--out", out]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", spans]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=root,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=seconds + SETUP_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    with open(out, encoding="utf-8") as handle:
        record = json.load(handle)
    record["setup_wall_s"] = record["first_op_mono"] - started
    native = record["native"]
    if args.workload == "sor_c" and (native["cc_invocations"] < 1
                                     or native["so_cache_hits"] != 0):
        raise BenchError(f"warm native cache measured: {native}")
    shutil.rmtree(work, ignore_errors=True)
    return record


def check(args, record, refs) -> int:
    """Failed ops of one record: raised, or differs from the reference
    (cells, and in traced runs the sweep count too)."""
    sweeps = record.get("sweeps")
    failed = 0
    for index, op in enumerate(record["ops"]):
        want = refs.get(op["key"])
        bad = op["error"] is not None or want is None
        if not bad and args.workload == "compile_mix":
            bad = op["digest"] != want
        elif not bad:
            bad = op["digest"] != want[0] or (
                sweeps is not None and sweeps[index] != want[1])
        failed += bad
    return failed


def references(args, root):
    """Reference outputs keyed like the ops' ``key`` field."""
    if args.workload == "compile_mix":
        from worker import import_repro

        import_repro(root)
        requests = {workloads.request_key(name, params): (name, params)
                    for name, params, _ in
                    workloads.epoch_stream(args.seed, args.tiny)}
        return reference.oracle_refs(requests)
    spec = workloads.solve_spec(args.workload, args.tiny)
    return dict(enumerate(reference.solve_refs(spec, args.seed)))


def end_to_end(records, setups):
    times = [op["s"] for op in records[-1]["ops"]]
    p90 = times[0] if len(times) < 2 else statistics.quantiles(
        times, n=10, method="inclusive")[8]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": p90,
        "peak_rss_mb": records[-1]["peak_rss_kb"] / 1024.0,
    }


def per_layer(plain, traced):
    layers = dict(traced["layers"])
    for name in ("import_s", "inputs_s"):
        layers[f"setup.{name}"] = traced["setup"].get(name, 0.0)
    layers["backends.native.cc_invocations"] = \
        traced["native"]["cc_invocations"]
    layers["backends.native.so_cache_hits"] = \
        traced["native"]["so_cache_hits"]
    plain_p50 = statistics.median(op["s"] for op in plain["ops"])
    traced_p50 = statistics.median(op["s"] for op in traced["ops"])
    layers["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
    return layers


def shares(layers):
    """Shares of the traced op time, for the solve workloads."""
    op = layers["trace.op_mean_s"]
    parts = [
        ("driver", "program.run.driver_s"),
        ("convergence test", "program.iterate.max_abs_diff_s"),
        ("C wrapper", "backends.c.wrapper_s"),
        ("native kernel", "backends.native.kernel_s"),
        ("python step", "codegen.step_s"),
        ("out-of-core driver", "program.outofcore.driver_s"),
        ("out-of-core kernel", "program.outofcore.kernel_s"),
        ("unattributed", "unattributed_s"),
    ]
    return ", ".join(f"{label} {100.0 * layers[name] / op:.1f}%"
                     for label, name in parts if layers[name])


def run(args, root, spec) -> dict:
    work_root = os.path.join(root, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        if args.trace:
            spans_dir = os.path.join(work_root, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(
                spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
            half = args.seconds / 2.0
            plain = spawn(root, run_dir, 0, args, half)
            traced = spawn(root, run_dir, 1, args, half, trace=True,
                           spans=spans)
            records = [plain, traced]
            values = per_layer(plain, traced)
            wanted = spec["per_layer"]
        else:
            samples = SETUP_SAMPLES if not args.tiny else 2
            records = [spawn(root, run_dir, i, args, 0.0, setup_only=True)
                       for i in range(samples - 1)]
            records.append(spawn(root, run_dir, samples - 1, args,
                                 args.seconds))
            values = end_to_end(records, [r["setup_s"] for r in records])
            setup_wall = statistics.median(r["setup_wall_s"]
                                           for r in records)
            records = records[-1:]
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    refs = references(args, root)
    attempted = sum(len(r["ops"]) for r in records)
    failed = sum(check(args, r, refs) for r in records)
    # A layer the workload never reaches reports 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}

    ops = len(records[-1]["ops"])
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {int(args.trace)}  seconds {args.seconds:g}")
    print(f"ops {attempted}  failed {failed}  "
          f"fail_frac {failed / max(attempted, 1):.4f} ratio  "
          f"({ops} ops timed, {ops - int(0.9 * ops)} beyond p90)")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    last = records[-1]
    walls = [op["wall_s"] for op in last["ops"]]
    print(f"  wall clock: op p50 {statistics.median(walls):.6g} s, "
          f"op max {max(walls):.6g} s"
          + ("" if args.trace else f", setup {setup_wall:.6g} s"))
    cpu = statistics.median(op["cpu_s"] for op in last["ops"])
    calibration = last["calibration_s"]
    print(f"  unscaled CPU: op p50 {cpu:.6g} s; calibration "
          f"{1e3 * min(calibration):.3f}-{1e3 * max(calibration):.3f} ms, "
          f"median {1e3 * statistics.median(calibration):.3f} ms "
          f"({len(calibration)} samples, nominal "
          f"{1e3 * hostspeed.NOMINAL_S:g} ms)")
    if args.trace and args.workload != "compile_mix":
        print("  op time shares: " + shares(values))
        print(f"  spans: {os.path.relpath(spans, root)}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the solve-and-compile benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small meshes and streams (the benchmark's "
                             "own tests)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {root}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # Bytecode first, so no timed process compiles a module.
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    try:
        result = run(args, root, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
