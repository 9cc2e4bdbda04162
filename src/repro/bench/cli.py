"""Command-line entry point: regenerate the paper's experiments.

Usage::

    python -m repro.bench fig6 [--n 128] [--procs 2,4,8,16,32]
    python -m repro.bench fig7 [--n 128] [--blksize 8]
    python -m repro.bench msgcount
    python -m repro.bench blocksize [--n 128] [--nprocs 8]
    python -m repro.bench timeline [--strategy optIII] [--n 24] [--nprocs 4]
    python -m repro.bench trace [--app gauss_seidel] [--strategy optIII]
                                [--n 24] [--nprocs 4] [--trace-out FILE]
    python -m repro.bench speedup [--n 48] [--procs 2,4,8,16]
    python -m repro.bench replay [--full] [--json PATH]
    python -m repro.bench tune [--app gauss_seidel] [--n 48] [--procs 4]
                               [--top-k 3] [--dists ...] [--strategies ...]
                               [--blksizes 1,2,4,8,16]
    python -m repro.bench maps [--app jacobi] [--n 48] [--nprocs 4]
                               [--json PATH]
    python -m repro.bench verify [--app gauss_seidel] [--dist wrapped_cols]
                                 [--strategy optIII] [--n 48] [--nprocs 8]
                                 [--json PATH]
    python -m repro.bench irregular [--app spmv|histogram|mesh|all]
                                    [--n 48] [--nprocs 4] [--steps 2]
                                    [--bins 32] [--nnz 2] [--json PATH]
    python -m repro.bench serve [--host 127.0.0.1] [--port 8000]
                                [--rate 10] [--burst 20] [--sync]
                                [--no-tune]

The ``serve`` command starts the decomposition-as-a-service control
plane (:mod:`repro.service`): a long-running HTTP server that turns
``POST /v1/programs`` submissions into content-addressed artifacts
(compiled-IR summary, verify report, tune ranking) persisted in the
shared artifact store, with keyset-paginated listings, health/stats
routes, and token-bucket rate limiting.

The ``irregular`` command runs the inspector/executor acceptance checks
(:mod:`repro.bench.irregular`) on the data-dependent apps — sparse
matvec, histogram, unstructured-mesh relaxation — gating oracle
bit-identity on both backends and exact schedule reuse (warm-run
message count == schedule size x site executions), and exits 1 when a
gate fails.

The ``verify`` command runs the static communication-safety verifier
(:mod:`repro.analysis`) on one configuration without simulating it, and
exits 0 when clean, 1 when any diagnostic is found, 2 on usage errors.

The ``tune`` command searches distribution x strategy x blksize for the
given app: it predicts every candidate with the analytic cost model
(:mod:`repro.tune.model`), then confirms only the predicted-best
``--top-k`` on the real simulator and prints the ranked report. The
model's makespan is bit-exact against the simulator under any machine
parameters, so the report's ``spearman=`` figure is a self-check that
reads 1.00, not an accuracy score. Without ``--dists`` the
distribution axis is the layout family the static locality analyzer
reads off the program's own access functions, and the report names it.

The ``maps`` command runs the static locality analyzer
(:mod:`repro.analysis.locality`) on one app without simulating it: it
prices every candidate map with the analytic cost model, prints them in
predicted order with their LOC00x rationale, and exits 0 when the
candidates contain the hand-written map (the app's ``map ... by``
clause), 1 otherwise.

The ``replay`` command runs the replay backend's acceptance sweep
(:mod:`repro.bench.replay_bench`) — fresh / warm / scalar-oracle /
primed-store-cold timings with bit-identity checks — and reports the
perf cache statistics alongside, disk-store hit counts included.

The ``trace`` command runs one traced simulation and renders the full
observability report — timeline, per-rank utilization, critical path,
and communication heatmap — for any app/strategy/ring size;
``--trace-out FILE`` additionally exports Chrome trace-event JSON
viewable at https://ui.perfetto.dev.

Every command but ``serve`` takes ``--profile`` (print compiler/runtime
counters and phase timers after the run; also embedded in JSON dumps).
The commands that execute programs take ``--backend
compiled|interp|replay``; the figure, speedup, replay, tune, verify,
maps and irregular commands take ``--json PATH`` (``-`` for stdout) to
dump their results as JSON, and the
figure, speedup and tune commands ``--jobs N`` to fan work out across
worker processes. Each command registers only the options it reads, in
full: anything else, ``verify --procs`` included, is a usage error
(exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from repro import perf
from repro.bench.harness import STRATEGY_ORDER, measure, sweep_nprocs
from repro.bench.report import format_series, format_table


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


def _series_payload(series, args, **meta) -> dict:
    payload = {
        **meta,
        "series": {
            strategy: [asdict(p) for p in points]
            for strategy, points in series.items()
        },
    }
    if getattr(args, "profile", False):
        payload["profile"] = perf.snapshot()
    return payload


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


def cmd_fig6(args) -> None:
    series = sweep_nprocs(
        ["runtime", "compile", "optI", "handwritten"],
        args.n,
        _parse_procs(args.procs),
        blksize=args.blksize,
        backend=args.backend,
        jobs=args.jobs,
    )
    print(format_series(series, "time_ms", f"Figure 6 (N={args.n}, ms)"))
    print()
    print(format_series(series, "messages", "messages"))
    _print_profile(args)
    if args.json:
        _dump_json(
            _series_payload(series, args, figure="fig6", n=args.n,
                            backend=args.backend),
            args.json,
        )


def cmd_fig7(args) -> None:
    series = sweep_nprocs(
        ["optI", "optII", "optIII", "handwritten"],
        args.n,
        _parse_procs(args.procs),
        blksize=args.blksize,
        backend=args.backend,
        jobs=args.jobs,
    )
    print(format_series(series, "time_ms", f"Figure 7 (N={args.n}, ms)"))
    print()
    print(format_series(series, "messages", "messages"))
    _print_profile(args)
    if args.json:
        _dump_json(
            _series_payload(series, args, figure="fig7", n=args.n,
                            backend=args.backend),
            args.json,
        )


_SPEEDUP_BACKENDS = ("interp", "compiled", "replay")


def cmd_speedup(args) -> None:
    """Time the full strategy sweep on all three backends side by side.

    The simulated results must agree exactly; the host-seconds ratios —
    interp over compiled, and compiled over replay — are the execution
    backends' figures of merit tracked across PRs.
    """
    procs = _parse_procs(args.procs)
    if not procs:
        raise SystemExit("speedup: --procs must name at least one ring size")
    # Warm program compilation, closure compilation, layout plans, and
    # replay skeletons so the timed region measures steady-state
    # execution only.
    for backend in _SPEEDUP_BACKENDS:
        sweep_nprocs(
            STRATEGY_ORDER, args.n, procs[:1], blksize=args.blksize,
            backend=backend, jobs=args.jobs,
        )
    sweeps = {}
    totals = {}
    for backend in _SPEEDUP_BACKENDS:
        t0 = time.perf_counter()
        sweeps[backend] = sweep_nprocs(
            STRATEGY_ORDER, args.n, procs, blksize=args.blksize,
            backend=backend, jobs=args.jobs,
        )
        totals[backend] = time.perf_counter() - t0

    def simulated(sweep):
        return {
            strategy: [(p.time_us, p.messages, p.bytes) for p in points]
            for strategy, points in sweep.items()
        }

    reference = simulated(sweeps["compiled"])
    for backend in _SPEEDUP_BACKENDS:
        if simulated(sweeps[backend]) != reference:
            raise AssertionError(
                f"backend {backend!r} disagrees with 'compiled' on "
                "simulated results"
            )

    exec_host = {
        backend: sum(p.host_seconds for ps in sweep.values() for p in ps)
        for backend, sweep in sweeps.items()
    }
    ratio = exec_host["interp"] / exec_host["compiled"]
    replay_ratio = exec_host["compiled"] / exec_host["replay"]
    rows = [
        {
            "backend": backend,
            "exec_host_s": f"{exec_host[backend]:.3f}",
            "sweep_wall_s": f"{totals[backend]:.3f}",
            "vs_compiled": (
                f"{exec_host['compiled'] / exec_host[backend]:.2f}x"
            ),
        }
        for backend in _SPEEDUP_BACKENDS
    ]
    print(
        format_table(
            rows,
            ["backend", "exec_host_s", "sweep_wall_s", "vs_compiled"],
            f"backend speedup (N={args.n}, S in {procs}): "
            f"compiled {ratio:.2f}x over interp, "
            f"replay {replay_ratio:.2f}x over compiled",
        )
    )
    _print_profile(args)
    if args.json:
        payload = {
            "n": args.n,
            "procs": procs,
            "blksize": args.blksize,
            "strategies": STRATEGY_ORDER,
            "exec_host_seconds": exec_host,
            "sweep_wall_seconds": totals,
            "speedup": ratio,
            "replay_speedup": replay_ratio,
            "points": {
                backend: [
                    asdict(p) for ps in sweep.values() for p in ps
                ]
                for backend, sweep in sweeps.items()
            },
            # How much of the sweep the memoization tables absorbed —
            # hit rates near zero here mean the speedup above is
            # measuring cache misses, not backends.
            "cache_stats": perf.cache_stats(),
        }
        if args.profile:
            payload["profile"] = perf.snapshot()
        _dump_json(payload, args.json)


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


def cmd_msgcount(args) -> None:
    rows = []
    for strategy, nprocs in (("runtime", 2), ("compile", 2),
                             ("optIII", 4), ("handwritten", 4)):
        point = measure(strategy, 128, nprocs, blksize=8,
                        backend=args.backend)
        rows.append({"strategy": strategy, "messages": point.messages})
    print(
        format_table(
            rows, ["strategy", "messages"],
            "message counts at 128x128 (paper footnote 3: 31752 vs 2142)",
        )
    )
    _print_profile(args)


def cmd_blocksize(args) -> None:
    rows = []
    for blk in (1, 2, 4, 8, 16, 32):
        point = measure("optIII", args.n, args.nprocs, blksize=blk,
                        backend=args.backend)
        rows.append(
            {
                "blksize": blk,
                "time_ms": f"{point.time_ms:.1f}",
                "messages": point.messages,
            }
        )
    print(
        format_table(
            rows,
            ["blksize", "time_ms", "messages"],
            f"Optimized III vs block size (N={args.n}, S={args.nprocs})",
        )
    )
    _print_profile(args)


#: ``--app`` name -> (module under :mod:`repro.apps`, the source the
#: commands run). Each module declares ``ENTRY`` and ``ENTRY_SHAPES``
#: beside its sources.
APPS = {
    "gauss_seidel": ("gauss_seidel", "SOURCE"),
    "jacobi": ("jacobi", "SOURCE_WRAPPED"),
    "matmul": ("matmul", "SOURCE"),
    "triangular": ("triangular", "SOURCE"),
}


def load_app(name: str):
    """``(module, source)`` of one ``--app`` choice."""
    import importlib

    module, source = APPS[name]
    app = importlib.import_module(f"repro.apps.{module}")
    return app, getattr(app, source)


def compile_app(name: str, strategy: str, nprocs: int, dist=None):
    """Compile one app, retargeted onto ``dist`` when given.

    Compilation goes through the memoized cache so repeat invocations
    (and backend comparisons) see the identical program — including the
    generated channel names that appear in reports and exports.
    """
    from repro.core.compiler import compile_program_cached
    from repro.tune.space import STRATEGIES, retarget_source

    app, source = load_app(name)
    strat, level = STRATEGIES[strategy]
    return compile_program_cached(
        source if dist is None else retarget_source(source, dist),
        entry=app.ENTRY,
        entry_shapes=app.ENTRY_SHAPES,
        strategy=strat,
        opt_level=level,
        assume_nprocs_min=2 if nprocs >= 2 else 1,
    )


def _traced_run(args):
    """Compile and execute one app/strategy/S with tracing on."""
    from repro.core.runner import execute
    from repro.spmd.layout import make_full

    compiled = compile_app(
        getattr(args, "app", "gauss_seidel"), args.strategy, args.nprocs
    )
    env = {**compiled.checked.consts, "N": args.n}
    info = compiled.array_info[compiled.entry]
    inputs = {
        name: make_full(tuple(d.evaluate(env) for d in info[name].shape), 1)
        for name in compiled.entry_array_params
    }
    return execute(
        compiled,
        args.nprocs,
        inputs=inputs,
        params={"N": args.n},
        extra_globals={"blksize": args.blksize},
        trace=True,
        backend=args.backend,
    )


def cmd_timeline(args) -> None:
    from repro.machine.trace import render_timeline

    outcome = _traced_run(args)
    print(render_timeline(outcome.sim, label=args.strategy))
    print(
        f"messages={outcome.total_messages} "
        f"time={outcome.makespan_us / 1000:.1f} ms"
    )
    _print_profile(args)


def cmd_trace(args) -> None:
    """Full observability report for one traced run."""
    from repro.machine.trace import render_timeline
    from repro.obs import (
        critical_path,
        format_critical_path,
        format_heatmap,
        format_utilization,
        write_chrome_trace,
    )

    outcome = _traced_run(args)
    label = f"{args.app}-{args.strategy}-N{args.n}-S{args.nprocs}"
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


def cmd_tune(args) -> None:
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
    """Run the decomposition service until interrupted."""
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
    if getattr(args, "n", 1) < 1:
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
                 help="measure up to N strategy series in parallel "
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
        ("fig6", cmd_fig6, "n procs blksize backend jobs json"),
        ("fig7", cmd_fig7, "n procs blksize backend jobs json"),
        ("msgcount", cmd_msgcount, "backend"),
        ("blocksize", cmd_blocksize, "n nprocs backend"),
        ("timeline", cmd_timeline, "n nprocs blksize backend strategy"),
        ("trace", cmd_trace, "n nprocs blksize backend strategy"),
        ("speedup", cmd_speedup, "n procs blksize jobs json"),
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
