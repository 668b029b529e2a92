"""The measured process: set up one workload, then run its ops for a
fixed time and write a JSON record of what it saw.

Op and setup times are CPU seconds of this process (setup adds the CPU
of the ``cc`` runs it waited for), scaled to a nominal host speed by
the calibration samples of ``hostspeed.py``.  On a shared VM the wall
clock also counts time the virtual CPU was stolen and time blocked on
the virtual disk, which measure the host rather than the program; each
op's wall and unscaled CPU times are recorded too, and the traced spans
are wall-clock.

``run.py`` starts it once per setup sample and once for the timed
phase, each time in a fresh process with fresh, empty cache
directories.  It imports ``repro`` from ``src/`` of the checkout it
runs in and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from hostspeed import Sampler, factors  # noqa: E402
from layers import (  # noqa: E402
    PASSES, Tracer, install, instrument_program, instrument_service,
    pass_seconds,
)
from reference import bits_digest, value_digest  # noqa: E402

#: ``iterate.sweeps.*`` counters (one of them moves per sweep).
SWEEP_COUNTERS = ("iterate.sweeps.inplace", "iterate.sweeps.double")

#: Calibration samples taken before and again after the setup.
SETUP_SAMPLES = 3


def import_repro(root: str):
    """Import ``repro`` from ``<root>/src``; refuse any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"no repro package under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")
    return repro


def setup_cpu() -> float:
    """CPU seconds since this process started, ``cc`` children included."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _counter_delta(after, before, names):
    return sum(after.get(n, 0) - before.get(n, 0) for n in names)


# ----------------------------------------------------------------------
# Solve workloads.


def setup_solve(repro, args, tracer):
    """Compile the solver; returns ``(op, setup dict, program)``."""
    from repro.backends import native

    spec = workloads.solve_spec(args.workload, args.tiny)
    setup = {}
    started = perf_counter()
    pool = workloads.meshes(spec, args.seed)
    setup["inputs_s"] = perf_counter() - started
    if spec.backend == "c":
        started = perf_counter()
        status = native.toolchain_status()
        setup["probe_s"] = perf_counter() - started
        if status is not None:
            raise SystemExit(f"C toolchain unavailable: {status}")
    options = repro.CodegenOptions(backend=spec.backend,
                                   tile=spec.tile_rows)
    started = perf_counter()
    program = repro.compile_program(spec.program, params=spec.params,
                                    options=options, ooc=spec.ooc)
    setup["compile_s"] = perf_counter() - started
    _require_placement(program, spec)
    if tracer is not None:
        instrument_program(tracer, program)
        call = tracer.wrap("call", program)
    else:
        call = program
    env = dict(spec.params, tol=spec.tol)
    bounds = ((1, 1), (spec.m, spec.m))

    def op(k):
        mesh = pool[k % workloads.MESHES]
        return call(dict(env, u0=repro.FlatArray.from_list(bounds, mesh)))

    return op, setup, program


def _require_placement(program, spec) -> None:
    """Refuse to measure a solve that silently lost its placement."""
    (plan,) = [s.iterate for s in program.steps if s.iterate is not None]
    expected = "inplace" if spec.kind == "sor" else "double"
    if plan.mode != expected:
        raise SystemExit(f"sweep mode {plan.mode!r}, expected {expected!r}")
    if spec.ooc and plan.ooc is None:
        raise SystemExit("out-of-core plan rejected: "
                         + "; ".join(program.report.fallbacks))
    backend = getattr(plan.step.report, "backend_used", "python")
    if backend != spec.backend:
        raise SystemExit(f"step lowered to {backend!r}, "
                         f"expected {spec.backend!r}")


def timed_solve(tracer, op, deadline, sampler):
    from repro.obs.trace import runtime_counters

    ops = []
    counters = []
    k = 0
    while k == 0 or perf_counter() < deadline:
        sampler.due()
        if tracer is not None:
            tracer.op = k
            before = runtime_counters()
        started, cpu = perf_counter(), process_time()
        error = None
        try:
            result = op(k)
        except Exception as exc:
            result, error = None, repr(exc)
        cpu = process_time() - cpu
        elapsed = perf_counter() - started
        if tracer is not None:
            tracer.record("op", started, elapsed)
            after = runtime_counters()
            counters.append({
                "sweeps": _counter_delta(after, before, SWEEP_COUNTERS),
                "recycled": _counter_delta(
                    after, before, ("iterate.buffers.recycled",)),
                "tiles": _counter_delta(after, before, ("ooc.tiles",)),
                "halo": _counter_delta(after, before, ("tile.halo.cells",)),
                "resident": _counter_delta(
                    after, before, ("ooc.bytes.resident",)),
            })
        cells = result.cells if result is not None else None
        ops.append({
            "k": k, "cpu_s": cpu, "wall_s": elapsed, "at": started,
            "key": k % workloads.MESHES,
            "digest": bits_digest(cells) if cells is not None else None,
            "error": error,
        })
        k += 1
    return ops, counters


# ----------------------------------------------------------------------
# compile_mix.


class Mix:
    """The epoch stream, its requests, and the artifact checks."""

    def __init__(self, repro, args, work):
        self.repro = repro
        self.work = work
        self.stream = workloads.epoch_stream(args.seed, args.tiny)
        self.requests = {}
        for name, params, _ in self.stream:
            key = workloads.request_key(name, params)
            if key not in self.requests:
                source = workloads.SOURCES[name][0]
                self.requests[key] = (name, params, repro.CompileRequest(
                    source, dict(params)))
        self.epochs = 0

    def service(self, tracer):
        """A fresh service over a fresh, empty disk directory."""
        self.epochs += 1
        path = os.path.join(self.work, f"epoch-{self.epochs}")
        service = self.repro.CompileService(disk_dir=path)
        if tracer is not None:
            instrument_service(tracer, service)
        return service, path

    def run_artifact(self, key, compiled) -> str:
        name, params, _ = self.requests[key]
        env = dict(params)
        for array, (bounds, cells) in workloads.artifact_inputs(
                name, params).items():
            env[array] = self.repro.FlatArray.from_list(bounds, cells)
        return value_digest(compiled(env).to_list())


def setup_mix(repro, args, work):
    setup = {}
    started = perf_counter()
    mix = Mix(repro, args, work)
    setup["inputs_s"] = perf_counter() - started
    # The warm-up op: the stream's first request on a throwaway service.
    service, path = mix.service(None)
    started = perf_counter()
    key = workloads.request_key(*mix.stream[0][:2])
    service.submit(mix.requests[key][2]).value()
    setup["compile_s"] = perf_counter() - started
    shutil.rmtree(path, ignore_errors=True)
    return mix, setup


def timed_mix(tracer, mix, deadline, sampler):
    ops = []
    stats = {"hits": 0, "misses": 0}
    passes = []
    k = 0
    while k == 0 or perf_counter() < deadline:
        service, path = mix.service(tracer)
        artifacts = {}
        for name, params, _ in mix.stream:
            if k and perf_counter() >= deadline:
                break
            key = workloads.request_key(name, params)
            sampler.due()
            if tracer is not None:
                tracer.op = k
            started, cpu = perf_counter(), process_time()
            result = service.submit(mix.requests[key][2])
            cpu = process_time() - cpu
            elapsed = perf_counter() - started
            if tracer is not None:
                tracer.record("op", started, elapsed)
            record = {"k": k, "cpu_s": cpu, "wall_s": elapsed,
                      "at": started, "key": key,
                      "hit": result.tier is not None, "digest": None,
                      "error": None}
            if result.error is not None:
                record["error"] = repr(result.error)
            else:
                known = artifacts.get(key)
                if known is not None and known[0] is result.compiled:
                    record["digest"] = known[1]
                else:
                    try:
                        found = mix.run_artifact(key, result.compiled)
                    except Exception as exc:
                        record["error"] = f"artifact raised {exc!r}"
                    else:
                        record["digest"] = found
                        artifacts[key] = (result.compiled, found)
                        if tracer is not None and not record["hit"]:
                            passes.append(pass_seconds(
                                result.compiled.report.trace))
            ops.append(record)
            k += 1
        requests = service.stats()["requests"]
        stats["hits"] += requests["hits"]
        stats["misses"] += requests["misses"]
        del service, artifacts
        shutil.rmtree(path, ignore_errors=True)
    return ops, stats, passes


# ----------------------------------------------------------------------
# Per-layer metrics (traced runs).


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def solve_layers(spec, tracer, ops, counters, setup):
    per_op = tracer.per_op()
    rows = [per_op.get(o["k"], {}) for o in ops]

    def mean(name):
        return _mean(r.get(name, 0.0) for r in rows)

    op_s, call_s = mean("op"), mean("call")
    step_s, kernel_s = mean("step"), mean("kernel")
    diff_s, ooc_s, ooc_kernel_s = (mean("max_abs_diff"), mean("ooc"),
                                   mean("ooc_kernel"))
    sweeps = _mean(c["sweeps"] for c in counters)
    tiles = _mean(c["tiles"] for c in counters)
    halo = _mean(c["halo"] for c in counters)
    written = sweeps * spec.m * spec.m if spec.ooc else 0.0
    layers = {
        "program.run.driver_s": call_s - step_s - diff_s - ooc_s,
        "program.run.sweeps": sweeps,
        "program.iterate.max_abs_diff_s": diff_s,
        "backends.c.wrapper_s": step_s - kernel_s
        if spec.backend == "c" else 0.0,
        "backends.native.kernel_s": kernel_s,
        "codegen.step_s": step_s if spec.backend == "python" else 0.0,
        "program.run.buffers_recycled": _mean(
            c["recycled"] for c in counters),
        "program.outofcore.driver_s": ooc_s - ooc_kernel_s,
        "program.outofcore.kernel_s": ooc_kernel_s,
        "program.outofcore.tiles": tiles,
        "program.outofcore.halo_ratio": halo / written if written else 0.0,
        "program.outofcore.bytes_resident": _mean(
            c["resident"] for c in counters),
        # Each tile maps its halo window to read and its rows to write.
        "program.outofcore.bytes_mapped": 8.0 * (2 * written + halo),
        "unattributed_s": op_s - call_s,
        "trace.op_mean_s": op_s,
    }
    for name in PASSES:
        layers[f"compile.{name}_s"] = setup.get(f"pass.{name}", 0.0)
    return layers


def mix_layers(tracer, ops, stats, passes):
    per_op = tracer.per_op()
    rows = [per_op.get(o["k"], {}) for o in ops]
    misses = [o for o in ops if not o["hit"]]
    hits = [o for o in ops if o["hit"]]
    miss_rows = [per_op.get(o["k"], {}) for o in misses]
    op_s = _mean(r.get("op", 0.0) for r in rows)
    named = _mean(r.get("fingerprint", 0.0) + r.get("compile", 0.0)
                  + r.get("store_put", 0.0) for r in rows)
    total = stats["hits"] + stats["misses"]
    layers = {
        "compile.total_s": _mean(r.get("compile", 0.0) for r in miss_rows),
        "service.hit_ratio": stats["hits"] / total if total else 0.0,
        "service.fingerprint_s": _mean(
            r.get("fingerprint", 0.0) for r in rows),
        "service.hit_s": _mean(o["wall_s"] for o in hits),
        "service.miss_s": _mean(o["wall_s"] for o in misses),
        "service.store_put_s": _mean(
            r.get("store_put", 0.0) for r in miss_rows),
        "unattributed_s": op_s - named,
        "trace.op_mean_s": op_s,
    }
    for name in PASSES:
        layers[f"compile.{name}_s"] = _mean(p[name] for p in passes)
    return layers


# ----------------------------------------------------------------------


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sampler = Sampler()
    calibration_cpu = sum(sampler.sample() for _ in range(SETUP_SAMPLES))
    setup = {}
    started = perf_counter()
    repro = import_repro(args.root)
    setup["import_s"] = perf_counter() - started
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)

    record = {"workload": args.workload, "seed": args.seed}
    if args.workload == "compile_mix":
        mix, more = setup_mix(repro, args, args.work)
        setup.update(more)
    else:
        op, more, program = setup_solve(repro, args, tracer)
        setup.update(more)
        if tracer is not None:
            for name, seconds in pass_seconds(program.report.trace).items():
                setup[f"pass.{name}"] = seconds
        op(0)  # the warm-up op
    record["setup_cpu_s"] = setup_cpu() - calibration_cpu
    record["first_op_mono"] = time.monotonic()
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    # Scaled by the median of all the samples, before and after.
    record["setup_s"] = record["setup_cpu_s"] * factors(
        [started], sampler.samples)[0]

    from repro.backends.native import NATIVE_STATS

    record["native"] = NATIVE_STATS.snapshot()
    record["setup"] = setup
    if not args.setup_only:
        deadline = perf_counter() + args.seconds
        if args.workload == "compile_mix":
            ops, stats, passes = timed_mix(tracer, mix, deadline, sampler)
        else:
            ops, counters = timed_solve(tracer, op, deadline, sampler)
        record["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        sampler.sample()
        scales = factors([o["at"] for o in ops], sampler.samples)
        for o, scale in zip(ops, scales):
            o["s"] = o["cpu_s"] * scale
        record["calibration_s"] = [s for _, s in sampler.samples]
        record["ops"] = ops
        if tracer is not None:
            if args.workload == "compile_mix":
                layers = mix_layers(tracer, ops, stats, passes)
            else:
                spec = workloads.solve_spec(args.workload, args.tiny)
                layers = solve_layers(spec, tracer, ops, counters, setup)
                layers["compile.total_s"] = setup["compile_s"]
                record["sweeps"] = [c["sweeps"] for c in counters]
            per_setup = tracer.per_op().get("setup", {})
            layers["backends.native.cc_s"] = per_setup.get(
                "load_kernel", 0.0)
            layers["backends.native.probe_s"] = setup.get("probe_s", 0.0)
            record["layers"] = layers
            if args.spans:
                tracer.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return record


if __name__ == "__main__":
    main()
