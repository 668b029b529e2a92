"""Command-line driver: ``python -m repro <command> <file>``.

Commands
--------
analyze
    Print the dependence graph, schedule, collision/empties verdicts,
    and vectorization report for an array definition.
compile
    Print the generated Python for the chosen strategy.
run
    Compile and execute, printing the resulting array.
oracle
    Evaluate with the lazy reference interpreter instead.
explain
    Print the decision trace: why each schedule / in-place /
    vectorize / reuse decision was taken or rejected
    (``--json`` for the machine form).
serve
    Run the HTTP compile service (``repro.serve``): POST wire-schema
    requests to ``/v1/compile``, stats at ``/stats``.
serve-load
    Drive a running server with N concurrent clients and print a
    load report (``--check`` exits nonzero on 5xx/transport errors).
serve-stats
    Inspect the on-disk compile cache (entry count, bytes,
    strategies) — or, with ``--url``, a live server's ``/stats``.
bench-check
    Compare two ``BENCH_<host>.json`` files (baseline, current) and
    exit nonzero on a regression beyond ``--tolerance``.

Size parameters are passed as ``-p name=value`` (ints or floats);
``-`` reads the definition from stdin.  ``--cache [DIR]`` serves
``compile``/``run`` through the persistent compile service (default
directory ``~/.cache/repro``).  Examples::

    python -m repro analyze examples/wavefront.hs -p n=10
    python -m repro run kernel.hs -p n=100 --cache
    python -m repro serve-stats
    echo 'letrec* a = array (1,5) [ i := i*i | i <- [1..5] ] in a' \\
        | python -m repro run -

Multi-binding *programs* (``;``-separated top-level bindings) are
detected automatically and compiled whole (``repro.compile_program``):
``analyze``/``compile``/``run`` print the program report — topo order,
cross-binding reuse edges, convergence-driver decisions.  ``--iterate
tol=1e-8`` or ``--iterate steps=50`` overrides the program's own
iteration control, and ``--dist-workers N`` block-partitions the
convergence sweeps over a process pool (``repro.dist``)::

    python -m repro run jacobi.hs -p m=256 --iterate tol=1e-8
    python -m repro run jacobi.hs -p m=1024 -p tol=1e-4 --dist-workers 4
"""

from __future__ import annotations

import argparse
import sys

import repro
from repro import CodegenOptions, CompileError, analyze, evaluate
from repro.comprehension.build import BuildError
from repro.codegen.exprs import CodegenError
from repro.report import render_edges, render_schedule

#: Sentinel for ``--cache`` given without a directory.
_DEFAULT_CACHE = "__default__"


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _parse_params(items):
    params = {}
    for item in items or ():
        name, eq, value = item.partition("=")
        if not eq or not name or not value:
            raise SystemExit(f"bad parameter {item!r}; use name=value")
        try:
            params[name] = int(value)
        except ValueError:
            try:
                number = float(value)
            except ValueError:
                raise SystemExit(
                    f"bad parameter {item!r}: {value!r} is not a number "
                    "(expected an int like n=100 or a float like "
                    "omega=1.5)"
                ) from None
            # Integral floats (1e3, 10.0) are almost always meant as
            # sizes; keep true fractions (omega=1.5) as floats.
            params[name] = int(number) if number.is_integer() else number
    return params


def _parse_iterate(item):
    """``--iterate tol=1e-8`` / ``--iterate steps=50`` -> overrides."""
    if item is None:
        return None, None
    name, eq, value = item.partition("=")
    if not eq or name not in ("tol", "steps"):
        raise SystemExit(
            f"bad --iterate {item!r}; use tol=FLOAT (converge until "
            "the largest change is at most FLOAT) or steps=INT (run "
            "exactly INT sweeps)"
        )
    try:
        if name == "steps":
            return int(value), None
        return None, float(value)
    except ValueError:
        raise SystemExit(
            f"bad --iterate {item!r}: {value!r} is not a number"
        ) from None


def _cache_dir(arg):
    if arg is None:
        return None
    if arg == _DEFAULT_CACHE:
        from repro.service import DEFAULT_CACHE_DIR

        return DEFAULT_CACHE_DIR
    return arg


def _print_array(array):
    bounds = array.bounds
    if bounds.rank == 2:
        (lo_i, lo_j), (hi_i, hi_j) = bounds.low, bounds.high
        for i in range(lo_i, hi_i + 1):
            # .item() unboxes numpy scalars (C-backed results) so both
            # backends print identically.
            row = [getattr(v, "item", lambda v=v: v)()
                   for v in (array.at((i, j))
                             for j in range(lo_j, hi_j + 1))]
            print("  ".join(f"{v!r:>8}" for v in row))
        return
    print(array.to_list())


def _serve_command(args) -> int:
    from repro.serve import ServeConfig, run_server

    return run_server(ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.serve_workers,
        queue_limit=args.queue_limit,
        timeout_s=args.timeout,
        capacity=args.capacity,
        disk_dir=_cache_dir(args.cache),
    ))


def _serve_load_command(args) -> int:
    from repro.serve import LoadGenConfig, run_load

    report = run_load(LoadGenConfig(
        url=args.url,
        clients=args.clients,
        duration_s=args.duration,
        max_requests=args.requests,
        hit_rate=args.hit_rate,
        seed=args.seed,
    ))
    if args.json:
        import json

        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    if args.check:
        ok, _ = report.check()
        return 0 if ok else 1
    return 0


def _serve_stats_url(url: str) -> int:
    import json
    from urllib.request import urlopen

    from repro.service.stats import render_stats

    with urlopen(url.rstrip("/") + "/stats", timeout=10) as response:
        payload = json.loads(response.read().decode("utf-8"))
    print(render_stats(payload))
    return 0


def _serve_stats(cache_dir) -> int:
    import pickle

    from repro.service import DEFAULT_CACHE_DIR, DiskStore

    store = DiskStore(cache_dir or DEFAULT_CACHE_DIR)
    entries = list(store.entries())
    total = sum(size for _, size in entries)
    print(f"compile cache at {store.root}")
    print(f"  entries: {len(entries)}")
    print(f"  bytes:   {total}")
    strategies = {}
    unreadable = 0
    for path, _ in entries:
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if "program" in payload:
                strategy = "program"
            else:
                strategy = payload["report"].strategy or "analysis"
        except Exception:
            unreadable += 1
            continue
        strategies[strategy] = strategies.get(strategy, 0) + 1
    for strategy in sorted(strategies):
        print(f"  strategy {strategy}: {strategies[strategy]}")
    if unreadable:
        print(f"  unreadable entries: {unreadable} "
              "(treated as misses at lookup)")
    return 0


def _options(args) -> CodegenOptions:
    """The CLI flags as :class:`CodegenOptions`; a malformed value
    exits with the options' own message."""
    tile = getattr(args, "tile", None)
    if tile is not None and tile != "auto":
        try:
            tile = int(tile)
        except ValueError:
            raise SystemExit("--tile must be 'auto' or an integer >= 1")
    try:
        return CodegenOptions(vectorize=args.vectorize,
                              backend=args.backend, tile=tile)
    except CodegenError as exc:
        raise SystemExit(str(exc)) from exc


def _dist_workers(args) -> int:
    """``--dist-workers`` -> a worker count (0 disables)."""
    if args.dist_workers < 0:
        raise SystemExit("--dist-workers needs a non-negative count")
    return args.dist_workers


def _program_command(args, binds, params) -> int:
    """``analyze``/``compile``/``run``/``oracle`` on a whole program."""
    from repro.program import ProgramError

    if args.inplace:
        raise SystemExit(
            "--inplace applies to single definitions; whole programs "
            "thread storage reuse automatically (see the report's "
            "reuse edges)"
        )
    if args.strategy != "auto":
        raise SystemExit(
            "--strategy applies to single definitions; whole programs "
            "pick a strategy per binding"
        )
    steps, tol = _parse_iterate(args.iterate)

    if args.command == "oracle":
        if args.iterate:
            raise SystemExit(
                "--iterate does not apply to oracle: the lazy oracle runs "
                "the program as written; pass the iteration control as a "
                "parameter instead (e.g. -p k=30 for iterate step u0 k)"
            )
        result = repro.run_program(binds, bindings=params, deep=False)
        _print_result(result)
        return 0

    options = _options(args)
    dist_workers = _dist_workers(args)
    try:
        program = repro.compile_program(
            binds, params=params, options=options,
            cache=_cache_dir(args.cache),
            dist=bool(dist_workers), workers=dist_workers,
            ooc=bool(getattr(args, "ooc", False)),
        )
    except CompileError as exc:
        raise SystemExit(f"compile error: {exc}") from exc

    if args.command == "analyze":
        print(program.report.summary())
        return 0
    if args.command == "compile":
        print(f"# {program.report.summary()}".replace("\n", "\n# "))
        for name, source_text in program.sources().items():
            print(f"\n# --- binding {name} ---")
            print(source_text)
        return 0

    # run
    try:
        result = program(params, steps=steps, tol=tol)
    except ProgramError as exc:
        raise SystemExit(f"program error: {exc}") from exc
    print(program.report.summary())
    print()
    _print_result(result)
    return 0


def _print_result(result):
    if hasattr(result, "bounds"):
        _print_array(result)
    else:
        print(repr(result))


def _explain_command(args, tree, params) -> int:
    """``explain``: the decision trace for a definition or program."""
    from repro.obs.explain import explain

    dist_workers = _dist_workers(args)
    options = _options(args)
    try:
        explanation = explain(
            tree,
            params=params,
            options=options,
            old_array=args.inplace,
            strategy="inplace" if args.inplace else "auto",
            force_strategy=(None if args.strategy == "auto"
                            else args.strategy),
            ooc=bool(getattr(args, "ooc", False)),
            dist=bool(dist_workers), workers=dist_workers,
        )
    except CompileError as exc:
        raise SystemExit(f"compile error: {exc}") from exc
    if args.json:
        import json

        print(json.dumps(explanation.to_json(), indent=2))
    else:
        print(explanation.render())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Array-comprehension compiler (Anderson & Hudak, "
                    "PLDI 1990 reproduction)",
    )
    parser.add_argument("command",
                        choices=["analyze", "compile", "run", "oracle",
                                 "explain", "serve", "serve-load",
                                 "serve-stats", "bench-check"])
    parser.add_argument("file", nargs="?",
                        help="source file, or - for stdin "
                             "(bench-check: the baseline json)")
    parser.add_argument("file2", nargs="?",
                        help="bench-check only: the current-run json")
    parser.add_argument("-p", "--param", action="append",
                        metavar="NAME=NUM",
                        help="size parameter, int or float (repeatable)")
    parser.add_argument("--strategy",
                        choices=["auto", "thunkless", "thunked"],
                        default="auto")
    parser.add_argument("--vectorize", action="store_true",
                        help="emit numpy slices for dependence-free "
                             "loop nests and one slice per "
                             "anti-diagonal for hyperplane wavefronts")
    parser.add_argument("--inplace", metavar="OLD_ARRAY",
                        help="compile for in-place update of OLD_ARRAY")
    parser.add_argument("--backend", default="python",
                        metavar="NAME",
                        help="code-generation backend: python (default) "
                             "or c (native kernels via cffi; falls back "
                             "to python per construct, with reasons in "
                             "the report)")
    parser.add_argument("--cache", nargs="?", const=_DEFAULT_CACHE,
                        metavar="DIR",
                        help="serve compile/run through the persistent "
                             "compile cache (default ~/.cache/repro)")
    parser.add_argument("--iterate", metavar="KEY=VALUE",
                        help="override a program's iteration control: "
                             "tol=FLOAT or steps=INT (programs only)")
    parser.add_argument("--tile", default=None, metavar="N|auto",
                        help="cache-block the C backend's loops: an "
                             "explicit edge length or 'auto' for the "
                             "cache-model size (python loops and "
                             "tiling-ineligible nests fall back with a "
                             "reasoned note); with --ooc, the rows "
                             "per streamed tile")
    parser.add_argument("--ooc", action="store_true",
                        help="stream iterate/converge sweeps through "
                             "row tiles kept in spill files (resident "
                             "memory bounded by the tile; programs "
                             "only)")
    parser.add_argument("--dist-workers", type=int, default=0,
                        metavar="N",
                        help="block-partition a program's iterate/"
                             "converge sweeps over N worker processes "
                             "(programs only; 0 disables)")
    parser.add_argument("--json", action="store_true",
                        help="explain only: emit the decision trace "
                             "as JSON")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        metavar="FRAC",
                        help="bench-check only: allowed fractional "
                             "slowdown before failing (default 0.25)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="bench-check only: benchmarks missing "
                             "from the current run are notes, not "
                             "failures")
    serve_group = parser.add_argument_group("serve / serve-load")
    serve_group.add_argument("--host", default="127.0.0.1")
    serve_group.add_argument("--port", type=int, default=8377,
                             help="listen port (0 picks a free port)")
    serve_group.add_argument("--serve-workers", type=int, default=0,
                             metavar="N",
                             help="compile worker processes "
                                  "(0 = inline threads, the default)")
    serve_group.add_argument("--queue-limit", type=int, default=32,
                             metavar="N",
                             help="requests in flight before shedding "
                                  "with 429")
    serve_group.add_argument("--timeout", type=float, default=30.0,
                             metavar="SECONDS",
                             help="per-request compile budget")
    serve_group.add_argument("--capacity", type=int, default=512,
                             help="memory-tier LRU capacity")
    serve_group.add_argument("--url", default=None,
                             help="serve-load/serve-stats: server "
                                  "base URL")
    serve_group.add_argument("--clients", type=int, default=8,
                             help="serve-load: concurrent clients")
    serve_group.add_argument("--duration", type=float, default=10.0,
                             metavar="SECONDS",
                             help="serve-load: run length")
    serve_group.add_argument("--requests", type=int, default=0,
                             metavar="N",
                             help="serve-load: stop after N requests "
                                  "(0 = duration only)")
    serve_group.add_argument("--hit-rate", type=float, default=0.85,
                             metavar="FRAC",
                             help="serve-load: warm-set fraction of "
                                  "the traffic mix")
    serve_group.add_argument("--seed", type=int, default=1990,
                             help="serve-load: traffic-mix seed")
    serve_group.add_argument("--check", action="store_true",
                             help="serve-load: exit nonzero on 5xx or "
                                  "transport errors")
    args = parser.parse_args(argv)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "serve-load":
        if not args.url:
            parser.error("serve-load needs --url http://HOST:PORT")
        return _serve_load_command(args)

    if args.command == "serve-stats":
        if args.url:
            return _serve_stats_url(args.url)
        return _serve_stats(_cache_dir(args.cache))

    if args.command == "bench-check":
        if not args.file or not args.file2:
            parser.error("bench-check needs BASELINE and CURRENT "
                         "json files")
        from repro.obs.bench import bench_check

        return bench_check(args.file, args.file2,
                           tolerance=args.tolerance,
                           allow_missing=args.allow_missing)

    if not args.file:
        parser.error(f"command {args.command!r} needs a source file")
    if args.file2:
        parser.error("a second file only applies to bench-check")

    source = _read_source(args.file)
    params = _parse_params(args.param)
    from repro.program import classify_source

    kind, tree = classify_source(source)

    if kind != "program":
        for flag, value in (("--iterate", args.iterate),
                            ("--dist-workers", args.dist_workers),
                            ("--ooc", args.ooc)):
            if value:
                raise SystemExit(
                    f"{flag} only applies to multi-binding programs "
                    "(this source is a single definition)"
                )
    if args.command == "explain":
        return _explain_command(args, tree, params)
    if kind == "program":
        return _program_command(args, tree, params)

    if args.command == "analyze":
        try:
            report = analyze(tree, params)
        except (BuildError, CompileError) as exc:
            raise SystemExit(f"compile error: {exc}") from exc
        print("dependence edges:")
        print(render_edges(report.edges) or "  (none)")
        print("\nschedule:")
        print(render_schedule(report.schedule))
        print(f"\ncollisions: {report.collision.status}")
        print(f"empties:    {report.empties.status}")
        print(f"vectorizable inner loops: {report.vectorizable}")
        return 0

    options = _options(args)
    try:
        compiled = repro.compile(
            tree,
            strategy="inplace" if args.inplace else "auto",
            old_array=args.inplace,
            params=params,
            options=options,
            force_strategy=(None if args.strategy == "auto"
                            else args.strategy),
            cache=_cache_dir(args.cache),
        )
    except CompileError as exc:
        raise SystemExit(f"compile error: {exc}") from exc

    if args.command == "compile":
        print(f"# {compiled.report.summary()}".replace("\n", "\n# "))
        print(compiled.source)
        return 0

    if args.command == "run":
        if args.inplace:
            raise SystemExit(
                "run with --inplace needs an input array; use the API"
            )
        result = compiled(params)
        _print_array(result)
        return 0

    if args.command == "oracle":
        result = evaluate(tree, bindings=params, deep=False)
        _print_array(result)
        return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
