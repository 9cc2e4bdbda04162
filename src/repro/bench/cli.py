"""Command-line entry point: regenerate the paper's experiments.

Usage: ``python -m repro.bench COMMAND [options]``, where COMMAND is
``reproduce``, ``trace``, ``replay``, ``tune``, ``maps``, ``verify``,
``irregular`` or ``serve``; ``COMMAND --help`` lists its options.

Each ``cmd_*`` function's docstring describes its command. Every
command but ``serve`` takes ``--profile`` (print compiler/runtime
counters and phase timers after the run; also embedded in JSON dumps).
The commands that execute programs take ``--backend
compiled|interp|replay``; every command but ``trace`` and ``serve``
takes ``--json PATH`` (``-`` for stdout) to dump its results as JSON,
and ``tune`` takes ``--jobs N`` to confirm candidates in worker
processes. Each command registers only the options it reads, in full:
anything else, ``verify --procs`` included, is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import perf
from repro.bench.harness import compile_app, load_app
from repro.bench.report import format_table


def _parse_procs(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


def _axis(text: str | None, parse=str) -> tuple | None:
    """A tune axis option: ``None`` when not given, else its values."""
    if text is None:
        return None
    return tuple(parse(s) for s in text.split(",") if s)


def _dump_json(payload: dict, path: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _print_profile(args) -> None:
    if getattr(args, "profile", False):
        print()
        print(format_profile(perf.snapshot()))


def format_profile(snap: dict) -> str:
    """Render a perf snapshot as aligned text (phases, then counters)."""
    lines = ["-- profile --"]
    for name, seconds in snap.get("phases", {}).items():
        lines.append(f"phase {name:<12} {seconds * 1000:10.1f} ms")
    counters = snap.get("counters", {})
    caches = sorted(
        {k.rsplit(".", 1)[0] for k in counters if k.endswith((".hit", ".miss"))}
    )
    for cache in caches:
        hits = counters.get(f"{cache}.hit", 0)
        misses = counters.get(f"{cache}.miss", 0)
        total = hits + misses
        rate = hits / total if total else 0.0
        lines.append(
            f"cache {cache:<20} {hits:>8} hit {misses:>8} miss "
            f"({rate:6.1%})"
        )
    intern = snap.get("intern", {})
    if intern:
        lines.append(
            f"intern {intern.get('hits', 0)} hit "
            f"{intern.get('misses', 0)} miss"
        )
    return "\n".join(lines)


def cmd_reproduce(args) -> int:
    """Check the paper's evaluation, one table of claims
    (:mod:`repro.bench.paper`): print the Figure 6 and 7 series, then
    one ``ok``/``FAIL`` line per check; exit 1 when any check fails.
    ``--n``/``--procs`` size Figures 6 and 7 only."""
    from repro.bench.paper import Setup, reproduce

    sizes = {}
    if args.n is not None:
        sizes["n"] = args.n
    if args.procs is not None:
        sizes["procs"] = tuple(_parse_procs(args.procs))
    text, payload = reproduce(Setup(backend=args.backend, **sizes))
    print(text)
    _print_profile(args)
    if args.json:
        if args.profile:
            payload["profile"] = perf.snapshot()
        _dump_json(payload, args.json)
    return 0 if payload["ok"] else 1


def cmd_replay(args) -> int:
    """Replay acceptance sweep: bit-identity plus the speed gates.

    Quick grid by default (the full N=1024/S=256 sweep that refreshes
    the committed ``BENCH_replay.json`` takes minutes — opt in with
    ``--full``). The JSON payload embeds ``perf.cache_stats()`` so hit
    rates — including the on-disk artifact store's — ride along with
    the timings they explain.
    """
    from repro.bench.replay_bench import run_benchmark

    try:
        payload = run_benchmark(quick=not args.full)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    point_cols = [
        "strategy", "compiled_s", "replay_fresh_s", "replay_cold_s",
        "replay_warm_s", "scalar_warm_s", "cold_x", "warm_x", "vector_x",
    ]
    rows = [
        {col: str(point[col]) for col in point_cols}
        for point in payload["points"]
    ]
    first = payload["points"][0]
    print(
        format_table(
            rows, point_cols,
            f"replay acceptance (N={first['n']}, S={first['nprocs']}, "
            f"{'quick' if payload['quick'] else 'full'})",
        )
    )
    stats_cols = ["cache", "entries", "hit_rate", "est_bytes", "store_hits"]
    stats_rows = [
        {
            "cache": name,
            "entries": str(entry["entries"]),
            "hit_rate": f"{entry['hit_rate']:.1%}",
            "est_bytes": str(entry["est_bytes"]),
            "store_hits": str(entry.get("store_hits", "-")),
        }
        for name, entry in sorted(payload["cache_stats"].items())
        if entry["hits"] or entry["misses"]
    ]
    print()
    print(format_table(stats_rows, stats_cols, "perf caches"))
    _print_profile(args)
    if args.json:
        if args.profile:
            payload["profile"] = perf.snapshot()
        _dump_json(payload, args.json)
    return 0


def cmd_trace(args) -> int:
    """Full observability report for one traced run — timeline,
    per-rank utilization, critical path, communication heatmap;
    ``--trace-out FILE`` also exports Chrome trace-event JSON
    (https://ui.perfetto.dev). Exit 1 when the run fails."""
    from repro.core.runner import execute
    from repro.errors import ReproError
    from repro.machine.trace import render_timeline
    from repro.obs import (
        critical_path,
        format_critical_path,
        format_heatmap,
        format_utilization,
        write_chrome_trace,
    )
    from repro.spmd.layout import make_full

    label = f"{args.app}-{args.strategy}-N{args.n}-S{args.nprocs}"
    try:
        compiled = compile_app(args.app, args.strategy, args.nprocs)
        env = {**compiled.checked.consts, "N": args.n}
        info = compiled.array_info[compiled.entry]
        outcome = execute(
            compiled, args.nprocs, params={"N": args.n}, inputs={
                name: make_full(
                    tuple(d.evaluate(env) for d in info[name].shape), 1
                )
                for name in compiled.entry_array_params
            }, extra_globals={"blksize": args.blksize}, trace=True,
            backend=args.backend,
        )
    except ReproError as exc:
        print(f"trace: {label}: {type(exc).__name__}: {exc}")
        return 1
    print(render_timeline(outcome.sim, label=label))
    print()
    print(format_utilization(outcome.sim))
    print()
    print(format_critical_path(critical_path(outcome.sim)))
    print()
    print(format_heatmap(outcome.sim.stats, outcome.sim.nprocs))
    print()
    print(
        f"messages={outcome.total_messages} "
        f"time={outcome.makespan_us / 1000:.1f} ms"
    )
    if args.trace_out:
        payload = write_chrome_trace(outcome.sim, args.trace_out, label=label)
        print(
            f"wrote {len(payload['traceEvents'])} Chrome trace events to "
            f"{args.trace_out} (open in https://ui.perfetto.dev)"
        )
    _print_profile(args)
    return 0


def cmd_tune(args) -> None:
    """Predict every distribution x strategy x blksize candidate with
    the cost model (:mod:`repro.tune.model`), confirm the ``--top-k``
    predicted best on the simulator and print the ranking. The model is
    bit-exact, so ``spearman=`` is a self-check that reads 1.00. Without
    ``--dists`` the distributions are the layout family the locality
    analyzer reads off the program's access functions."""
    from repro.errors import TuneError
    from repro.tune import tune

    app, source = load_app(args.app)
    try:
        report = tune(
            source,
            args.n,
            entry=app.ENTRY,
            proc_counts=_axis(args.procs, int),
            top_k=args.top_k,
            jobs=args.jobs,
            backend=args.backend,
            oracle=app.reference_rows,
            dists=_axis(args.dists),
            strategies=_axis(args.strategies),
            blksizes=_axis(args.blksizes, int),
        )
    except TuneError as exc:
        args.parser.error(str(exc))
    if report.derived_maps:
        print(
            "derived maps: "
            + ", ".join(m["dist"] for m in report.derived_maps)
        )

    rows = []
    shown = 0
    for rank, cand in enumerate(report.candidates, start=1):
        if shown >= max(args.top_k, 10) and cand.measured is None:
            continue
        shown += 1
        messages = (
            cand.measured.messages if cand.measured
            else cand.predicted.total_messages if cand.predicted
            else ""
        )
        rows.append(
            {
                "rank": rank,
                "configuration": cand.config.label,
                "predicted_ms": (
                    f"{cand.predicted_us / 1000:.2f}"
                    if cand.predicted_us is not None else "-"
                ),
                "measured_ms": (
                    f"{cand.measured_us / 1000:.2f}"
                    if cand.measured_us is not None else "-"
                ),
                "messages": messages,
                "note": cand.error or "",
            }
        )
    hidden = len(report.candidates) - shown
    title = (
        f"tune {args.app} (N={args.n}): space={report.space_size} "
        f"simulations={report.simulations}"
    )
    print(
        format_table(
            rows,
            ["rank", "configuration", "predicted_ms", "measured_ms",
             "messages", "note"],
            title,
        )
    )
    if hidden > 0:
        print(f"... and {hidden} more candidates (see --json for all)")
    rho = report.spearman
    if report.best is not None:
        print(
            f"best: {report.best.config.label} -> "
            f"{report.best.measured_us / 1000:.2f} ms"
            + (f"  (spearman={rho:.2f} over confirmed)"
               if rho is not None else "")
        )
    else:
        print("best: no configuration could be confirmed")
    _print_profile(args)
    if args.json:
        from repro.tune.serialize import report_payload

        payload = report_payload(
            report, command="tune", app=args.app, backend=args.backend,
        )
        if args.profile:
            payload["profile"] = perf.snapshot()
        _dump_json(payload, args.json)


def cmd_verify(args) -> int:
    """Statically verify one app/dist/strategy/S configuration.

    Exit codes: 0 when the verifier reports nothing, 1 when it finds
    any diagnostic (or the configuration fails to compile), 2 for usage
    errors (argparse). CI keys on these.
    """
    from repro.analysis import render_json, render_text, verify_compiled
    from repro.errors import ReproError, TuneError
    from repro.tune.space import parse_dist

    try:
        parse_dist(args.dist)
    except TuneError as exc:
        args.parser.error(str(exc))
    label = f"{args.app} {args.dist} {args.strategy} S={args.nprocs}"
    try:
        compiled = compile_app(
            args.app, args.strategy, args.nprocs, args.dist
        )
    except ReproError as exc:
        print(f"verify: {label}: {type(exc).__name__}: {exc}")
        return 1
    report = verify_compiled(
        compiled,
        args.nprocs,
        params={"N": args.n},
        extra_globals={"blksize": args.blksize},
        metadata={
            "app": args.app, "dist": args.dist, "strategy": args.strategy,
            "nprocs": args.nprocs, "n": args.n,
        },
    )
    print(render_text(report, title=f"verify {label}"))
    _print_profile(args)
    if args.json:
        payload = render_json(
            report, command="verify", app=args.app, dist=args.dist,
            strategy=args.strategy, nprocs=args.nprocs, n=args.n,
        )
        if args.profile:
            payload["profile"] = perf.snapshot()
        _dump_json(payload, args.json)
    return 1 if report.diagnostics else 0


def cmd_maps(args) -> int:
    """Derive the decomposition-map candidates statically and rank them
    by the cost model's predicted makespan (unpriced ones last).

    Exit codes: 0 when the candidates contain the hand-written map, 1
    otherwise, 2 for usage errors (argparse). CI keys on these.
    """
    from repro.analysis import analyze, render_json, render_text
    from repro.errors import TuneError
    from repro.tune import tune

    app, source = load_app(args.app)
    result = analyze(source, entry=app.ENTRY)
    try:
        report = tune(
            source,
            args.n,
            entry=app.ENTRY,
            proc_counts=(args.nprocs,),
            top_k=0,
            entry_shapes=app.ENTRY_SHAPES,
            strategies=("compile",),
            blksizes=(args.blksize,),
        )
    except TuneError as exc:
        print(f"maps: {args.app}: {exc}")
        return 1
    for cand in report.candidates:
        if cand.predicted is None:
            why = cand.error or cand.abstained
            print(f"maps: {args.app} {cand.config.dist}: {why}")

    # The hand-written map is the one the program declares.
    spec = compile_app(args.app, "compile", args.nprocs).spec
    hand = next(map(str, spec.distributions.values()), None)
    derived = {m["dist"]: m for m in report.derived_maps}
    priced = {c.config.dist: c.predicted_us for c in report.candidates}
    rows = [
        {
            "dist": c.config.dist,
            "predicted_ms": (
                f"{c.predicted_us / 1000:.2f}"
                if c.predicted_us is not None else "-"
            ),
            "rationale": derived[c.config.dist]["rationale"],
        }
        for c in report.candidates
    ]
    title = (
        f"maps {args.app} (N={args.n}, S={args.nprocs}): "
        f"{len(derived)} candidates by predicted makespan, "
        f"entry={result.entry}"
    )
    print(format_table(rows, ["dist", "predicted_ms", "rationale"], title))
    if result.report.diagnostics:
        print()
        print(render_text(result.report, title=f"locality {args.app}"))
    ok = hand in priced
    print(
        f"gate: hand map {hand} is a candidate -> ok" if ok
        else f"gate: hand map {hand} is not a candidate -> FAIL"
    )
    _print_profile(args)
    if args.json:
        payload = {
            "command": "maps",
            "app": args.app,
            "n": args.n,
            "nprocs": args.nprocs,
            "entry": result.entry,
            "abstained": result.abstained,
            "candidates": [
                dict(derived[c.config.dist], predicted_us=c.predicted_us)
                for c in report.candidates
            ],
            "hand": {"dist": hand, "predicted_us": priced.get(hand)},
            "gate": {
                "hand_in_derived": ok,
                "derived_best_us": report.candidates[0].predicted_us,
                "ok": ok,
            },
            "diagnostics": render_json(result.report)["diagnostics"],
        }
        if args.profile:
            payload["profile"] = perf.snapshot()
        _dump_json(payload, args.json)
    return 0 if ok else 1


def cmd_irregular(args) -> int:
    """Run the irregular apps under the inspector strategy, gated.

    Exit codes: 0 when every gate holds (oracle and backend
    bit-identity, exact schedule reuse), 1 when any fails, 2 for usage
    errors (argparse).
    """
    from repro.bench.irregular import APPS, run_point

    apps = APPS if args.app == "all" else (args.app,)
    points = []
    try:
        for app in apps:
            points.append(
                run_point(
                    app, args.n, args.nprocs,
                    steps=args.steps, bins=args.bins, nnz_extra=args.nnz,
                )
            )
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    cols = [
        "app", "sites", "schedule_messages", "cold_messages",
        "warm_messages", "cold_ms", "warm_ms",
    ]
    rows = [
        {
            **{c: str(p[c]) for c in cols if c in p},
            "cold_ms": f"{p['cold_time_us'] / 1000:.1f}",
            "warm_ms": f"{p['warm_time_us'] / 1000:.1f}",
        }
        for p in points
    ]
    print(
        format_table(
            rows, cols,
            f"irregular apps, strategy=inspector (N={args.n}, "
            f"S={args.nprocs}): schedules built once, replayed warm",
        )
    )
    _print_profile(args)
    if args.json:
        payload = {
            "n": args.n,
            "nprocs": args.nprocs,
            "points": points,
            "cache_stats": perf.cache_stats(),
        }
        if args.profile:
            payload["profile"] = perf.snapshot()
        _dump_json(payload, args.json)
    return 0


def cmd_serve(args) -> int:
    """Run the decomposition service (:mod:`repro.service`) until
    interrupted: an HTTP server that turns ``POST /v1/programs`` into
    content-addressed artifacts in the shared artifact store."""
    import logging

    from repro.service import ServiceApp, ServiceConfig, make_server

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    config = ServiceConfig(
        rate_capacity=args.burst,
        rate_per_s=args.rate,
        sync=args.sync,
        tune_enabled=not args.no_tune,
    )
    app = ServiceApp(config)
    server = make_server(app, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(
        f"repro service listening on http://{host}:{port} "
        f"(rate {args.rate}/s, burst {args.burst}"
        f"{', sync builds' if args.sync else ''})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def _validate_args(args) -> None:
    """Reject nonsense numeric arguments with a one-line parser error
    (exit code 2) instead of a traceback from deep inside the harness."""
    err = args.parser.error
    if getattr(args, "n", None) is not None and args.n < 1:
        err(f"--n must be a positive grid size, got {args.n}")
    if getattr(args, "nprocs", 1) < 1:
        err(f"--nprocs must be a positive ring size, got {args.nprocs}")
    if getattr(args, "blksize", 1) < 1:
        err(f"--blksize must be a positive block size, got {args.blksize}")
    if getattr(args, "rate", 1) <= 0 or getattr(args, "burst", 1) <= 0:
        err("--rate and --burst must be positive")
    if getattr(args, "port", 0) < 0 or getattr(args, "port", 0) > 65535:
        err(f"--port must be in [0, 65535], got {args.port}")
    for opt in ("procs", "blksizes"):
        text = getattr(args, opt, None)
        if text is None:
            continue
        try:
            values = _parse_procs(text)
        except ValueError:
            err(
                f"--{opt} must be a comma-separated list of integers, "
                f"got {text!r}"
            )
        if not values:
            err(f"--{opt} must name at least one value")
        if any(v < 1 for v in values):
            err(f"--{opt} entries must be positive, got {text!r}")
    if getattr(args, "steps", 1) < 1:
        err(f"--steps must be a positive time-step count, got {args.steps}")
    if getattr(args, "bins", 1) < 1:
        err(f"--bins must be a positive bin count, got {args.bins}")
    if getattr(args, "nnz", 0) < 0:
        err(f"--nnz must be a non-negative per-row fill count, got {args.nnz}")
    if getattr(args, "jobs", 1) < 1:
        err(f"--jobs must be positive, got {args.jobs}")
    if getattr(args, "top_k", 1) < 1:
        err(f"--top-k must be positive, got {args.top_k}")


#: The options several subcommands read, by name; ``main`` registers on
#: each subcommand only those its ``cmd_*`` reads.
_SHARED_OPTIONS = {
    "n": dict(type=int, default=48),
    "procs": dict(type=str, default="2,4,8,16"),
    "nprocs": dict(type=int, default=8),
    "blksize": dict(type=int, default=8),
    "backend": dict(choices=["compiled", "interp", "replay"],
                    default="compiled"),
    "strategy": dict(choices=["runtime", "compile", "optI", "optII", "optIII"],
                     default="optIII"),
    "jobs": dict(type=int, default=1, metavar="N",
                 help="confirm up to N candidates in parallel "
                      "worker processes"),
    "json": dict(type=str, default=None, metavar="PATH",
                 help="also dump the results as JSON ('-' for stdout)"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, shared in (
        ("reproduce", cmd_reproduce, "n procs backend json"),
        ("trace", cmd_trace, "n nprocs blksize backend strategy"),
        ("replay", cmd_replay, "json"),
        ("tune", cmd_tune, "n procs backend jobs json"),
        ("verify", cmd_verify, "n nprocs blksize strategy json"),
        ("maps", cmd_maps, "n nprocs blksize json"),
        ("irregular", cmd_irregular, "n nprocs json"),
    ):
        # Only the options ``fn`` reads, spelled out in full: an option
        # it would ignore, or an abbreviation of one it reads, is a
        # usage error (exit 2).
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.set_defaults(fn=fn, parser=cmd)
        for option in shared.split():
            cmd.add_argument(f"--{option}", **_SHARED_OPTIONS[option])
        cmd.add_argument(
            "--profile", action="store_true",
            help="print compiler/runtime counters and phase timers "
                 "(and embed them in --json dumps)",
        )
        if name == "reproduce":
            cmd.set_defaults(n=None, procs=None)  # Setup's: the paper's
        if name == "irregular":
            cmd.set_defaults(nprocs=4)
            cmd.add_argument(
                "--app",
                choices=["spmv", "histogram", "mesh", "all"],
                default="all",
            )
            cmd.add_argument(
                "--steps", type=int, default=2, metavar="T",
                help="time steps for the iterated apps (spmv, mesh)",
            )
            cmd.add_argument(
                "--bins", type=int, default=32, metavar="M",
                help="histogram bin count",
            )
            cmd.add_argument(
                "--nnz", type=int, default=2, metavar="K",
                help="off-diagonal entries per sparse-matrix row (spmv)",
            )
        if name == "replay":
            cmd.add_argument(
                "--full", action="store_true",
                help="full N=1024/S=256 sweep with every speed gate "
                     "(the committed BENCH_replay.json scale; minutes)",
            )
        if name == "verify":
            cmd.add_argument(
                "--app",
                choices=["gauss_seidel", "jacobi", "triangular"],
                default="gauss_seidel",
            )
            cmd.add_argument(
                "--dist", type=str, default="wrapped_cols",
                metavar="DIST",
                help="distribution to verify under "
                     "(e.g. wrapped_cols, block_rows, block_cyclic_cols:4)",
            )
        if name == "maps":
            cmd.set_defaults(nprocs=4)
            cmd.add_argument(
                "--app",
                choices=["gauss_seidel", "jacobi", "matmul", "triangular"],
                default="jacobi",
            )
        if name == "trace":
            cmd.add_argument(
                "--app",
                choices=["gauss_seidel", "jacobi", "triangular"],
                default="gauss_seidel",
            )
            cmd.add_argument(
                "--trace-out", type=str, default=None, metavar="FILE",
                help="also export Chrome trace-event JSON (Perfetto)",
            )
        if name == "tune":
            cmd.set_defaults(procs="4")
            cmd.add_argument(
                "--app",
                choices=["gauss_seidel", "jacobi"],
                default="gauss_seidel",
            )
            cmd.add_argument(
                "--top-k", type=int, default=3, metavar="K",
                help="confirm the K predicted-best candidates "
                     "on the real simulator",
            )
            cmd.add_argument(
                "--dists", type=str, default=None, metavar="D1,D2,...",
                help="distributions to search (default: the layout "
                     "family the static locality analyzer derives)",
            )
            cmd.add_argument(
                "--strategies", type=str, default=None, metavar="S1,S2,...",
                help="resolution strategies to search (default: "
                     "runtime,compile,optI,optII,optIII)",
            )
            cmd.add_argument(
                "--blksizes", type=str, default=None, metavar="B1,B2,...",
                help="strip-mining block sizes to search (Optimized III; "
                     "default: 1,2,4,8,16)",
            )

    cmd = sub.add_parser(
        "serve", help="run the decomposition-as-a-service control plane"
    )
    cmd.set_defaults(fn=cmd_serve, parser=cmd)
    cmd.add_argument("--host", type=str, default="127.0.0.1")
    cmd.add_argument(
        "--port", type=int, default=8000,
        help="listen port (0 picks a free one, printed at startup)",
    )
    cmd.add_argument(
        "--rate", type=float, default=10.0, metavar="R",
        help="steady-state requests/second allowed per client",
    )
    cmd.add_argument(
        "--burst", type=float, default=20.0, metavar="B",
        help="token-bucket burst capacity per client",
    )
    cmd.add_argument(
        "--sync", action="store_true",
        help="build artifacts inside the POST instead of a worker thread",
    )
    cmd.add_argument(
        "--no-tune", action="store_true",
        help="never attach tune rankings to artifacts",
    )

    args = parser.parse_args(argv)
    _validate_args(args)
    return args.fn(args) or 0


if __name__ == "__main__":
    raise SystemExit(main())
