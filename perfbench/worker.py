"""One workload, one process: set-up, rounds, metrics as one JSON line.

Spawned by :mod:`perfbench.harness` with ``PYTHONHASHSEED=0`` and a
private ``REPRO_CACHE_DIR``; never run against the user's real store.

Untraced run (``--trace 0``): set-up, one round under ``cProfile``
(``host_mcalls`` — it runs first so it sits at the same place in every
process and its count repeats exactly), then whole timed rounds until
``--seconds`` have been measured. Traced run (``--trace 1``): set-up,
one untraced round for the overhead base, round T1 under span wrappers,
round T2 under ``cProfile`` split by package, then the counters.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from repro import perf  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")

CACHES = (
    "compile", "verify", "replay_skeleton", "tune_predict", "tune_measure",
    "inspector", "locality", "simplify", "affine", "prove_le",
)


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def load_golden(quick: bool) -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)["quick" if quick else "full"]


def tally(results, totals: dict) -> None:
    totals["attempted"] += len(results)
    for result in results:
        if result.failure is not None:
            totals["failed"] += 1
            if len(totals["failures"]) < 5:
                totals["failures"].append(f"{result.key}: {result.failure}")


def untraced(workload, seconds: float, rounds: int | None, totals):
    """``(end-to-end metrics, timed rounds run)``; ``setup_s`` and memory
    are added by main."""
    profile = cProfile.Profile()
    profile.enable()
    first = workload.round(over_http=False)
    profile.disable()
    total_calls, _ = layers.attribute_calls(profile)
    tally(first, totals)
    store_mb = workload.store_bytes / 1e6

    best: dict[str, float] = {}
    done, started = 0, time.perf_counter()
    while True:
        results = workload.round()
        tally(results, totals)
        for result in results:
            if result.failure is None:
                best[result.key] = min(
                    result.wall_s, best.get(result.key, math.inf)
                )
        done += 1
        elapsed = time.perf_counter() - started
        if (done >= rounds) if rounds else (elapsed >= seconds):
            break
    walls = list(best.values())
    if not walls:
        raise RuntimeError(f"every job failed: {totals['failures']}")
    return {
        "jobs_per_s": metric(len(walls) / sum(walls), "1/s"),
        "job_p50_ms": metric(statistics.median(walls) * 1e3, "ms"),
        "job_p90_ms": metric(p90(walls) * 1e3, "ms"),
        "host_mcalls": metric(total_calls / 1e6, "Mcalls"),
        "store_mb": metric(store_mb, "MB"),
        "sim_makespan_ms": metric(
            sum(r.makespan_us for r in first) / 1e3, "ms_sim"
        ),
        "sim_messages_k": metric(
            sum(r.messages for r in first) / 1e3, "kmsgs"
        ),
    }, done


def traced(workload, totals) -> dict:
    """Per-layer metrics."""
    out: dict[str, dict] = {}

    started = time.perf_counter()
    base = workload.round(over_http=False)
    base_wall = time.perf_counter() - started
    tally(base, totals)

    over_http, transport = workload.transport()  # needs the real server
    tally(over_http, totals)
    for name, value in transport.items():
        unit = "ms" if "_ms" in name else "count"
        out[name] = metric(value, unit)

    tracer = layers.Tracer()
    tracer.install()
    try:
        started = time.perf_counter()
        spans_round = workload.round(tracer=tracer, over_http=False)
        spans_wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    tally(spans_round, totals)
    counters = perf.snapshot()["counters"]
    cache_stats = perf.cache_stats()

    ledger = tracer.ledger()
    for name, value in ledger.items():
        out[name] = metric(value, "ms" if name.endswith("_ms") else "count")
    job_ms = sum(r.wall_s for r in spans_round) * 1e3
    self_ms = sum(v for k, v in ledger.items() if k.endswith(".self_ms"))
    out["ledger.coverage"] = metric(self_ms / job_ms, "ratio")
    out["ledger.overhead"] = metric(spans_wall / base_wall, "ratio")
    out["store.put_mb"] = metric(tracer.extra["store.put_mb"], "MB")
    out["store.fetch_mb"] = metric(tracer.extra["store.fetch_mb"], "MB")
    found = tracer.extra["store.fetch.found"]
    fetched = found + tracer.extra["store.fetch.missed"]
    out["store.hit_rate"] = metric(found / fetched if fetched else 0.0,
                                   "ratio")
    out["replay.skeleton.events_k"] = metric(
        tracer.extra["replay.skeleton.events_k"], "kevents"
    )
    out["replay.skeleton.est_mb"] = metric(
        cache_stats["replay_skeleton"]["est_bytes"] / 1e6, "MB"
    )
    for cache in CACHES:
        hits = counters.get(f"{cache}.hit", 0)
        lookups = hits + counters.get(f"{cache}.miss", 0)
        out[f"cache.{cache}.hit_rate"] = metric(
            hits / lookups if lookups else 0.0, "ratio"
        )
    out["replay.fallbacks"] = metric(
        counters.get("replay.fallback", 0), "count"
    )
    for name in ("tune.candidates", "tune.abstained", "tune.simulations",
                 "inspector.request_msgs"):
        out[name] = metric(
            sum(r.counts.get(name, 0) for r in spans_round), "count"
        )

    profile = cProfile.Profile()
    profile.enable()
    calls_round = workload.round(over_http=False)
    profile.disable()
    tally(calls_round, totals)
    _, buckets = layers.attribute_calls(profile)
    for package, calls in buckets.items():
        out[f"pycalls.{package}"] = metric(calls, "count")

    return out


def regen(workload, totals) -> dict:
    """Observed statistics for golden.json, refused unless every value
    matches the oracle and replay timing equals the compiled backend's."""
    results = workload.round(over_http=False)
    tally(results, totals)
    pins = {r.key: r.observed for r in results if r.observed}
    for job in workload.jobs:
        if getattr(job, "backend", None) != "replay":
            continue
        reference = job.check(job.run(backend="compiled"), 0.0, None)
        if reference.observed != pins[job.key]:
            totals["failed"] += 1
            totals["failures"].append(
                f"{job.key}: replay {pins[job.key]} != compiled "
                f"{reference.observed}"
            )
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", default="run",
                        choices=("run", "setup", "regen"))
    args = parser.parse_args(argv)

    # SIGTERM from the harness must still run the finally below (the
    # service workload owns a server process).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    golden = None if args.mode == "regen" else load_golden(args.quick)
    workload = WORKLOADS[args.workload](
        args.seed, args.quick, Path(args.workdir),
        None if golden is None else golden.get(args.workload, {}),
    )
    totals = {"attempted": 0, "failed": 0, "failures": []}
    out = {"workload": args.workload, "seed": args.seed}
    try:
        workload.setup()
        out["setup_s"] = time.perf_counter() - T0
        out["sizes"] = workload.sizes
        out["jobs"] = len(workload.jobs)
        if args.mode == "regen":
            out["golden"] = regen(workload, totals)
        elif args.mode == "run" and args.trace:
            out["metrics"] = traced(workload, totals)
        elif args.mode == "run":
            metrics, out["rounds"] = untraced(
                workload, args.seconds, args.rounds, totals
            )
            out["samples"] = out["rounds"] * len(workload.jobs)
            metrics["peak_rss_mb"] = metric(
                workload.peak_rss_kb() / 1024, "MB"
            )
            out["metrics"] = metrics
    finally:
        workload.close()
    out.update(totals)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
