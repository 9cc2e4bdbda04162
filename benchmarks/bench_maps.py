"""Locality analyzer acceptance benchmark (``BENCH_maps.json``).

Two gates:

``derived``
    on every app of the affine suite — jacobi, gauss_seidel, matmul,
    triangular — the analyzer's candidates must be the program's whole
    layout family and contain the hand-written ``map ... by``
    distribution; one predict-only ``tune()`` call per app ranks them
    by cost-model predicted makespan at N=128 (N=64 for matmul's cubic
    nest). This is the
    paper-facing claim: the layouts derived from the access functions
    include the decompositions a programmer wrote by hand, and the
    cost model ranks them.
``speed``
    a *warm* analysis pass must stay under **1 second** for the whole
    suite, and every analysis in it must be a ``locality`` memo hit.
    Analysis results are memoized like compilations (the tuner
    re-derives maps per proc count, CI re-runs the suite), so the warm
    path is the steady state; the cold pass (every cache and the
    store off) is reported alongside, ungated.

Run as a script (``python benchmarks/bench_maps.py --quick``) to
refresh ``BENCH_maps.json``; exits nonzero if a gate fails. Also
collected by pytest with a smaller N so the gates run in seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import perf
from repro.analysis import analyze
from repro.bench.harness import compile_app, load_app
from repro.distrib.builtin import LAYOUTS
from repro.machine import MachineParams
from repro.tune import tune

MACHINE = MachineParams.ipsc2()
APPS = ("jacobi", "gauss_seidel", "matmul", "triangular")
WARM_GATE_S = 1.0
# Cost-model pricing walks every statement instance, so matmul's O(N^3)
# nest is priced at a smaller N than the O(N^2) stencil apps. The
# derived-vs-hand verdict is scale-free here (every layout prices the
# same replicated-operand traffic), only the wall clock changes.
FULL_N = {"matmul": 64}


def check_derived(app: str, n: int, nprocs: int = 4) -> dict:
    """Gate 1: the whole family, the hand map among it, ranked."""
    module, source = load_app(app)
    report = tune(
        source, n, entry=module.ENTRY, proc_counts=(nprocs,),
        machine=MACHINE, top_k=0, entry_shapes=module.ENTRY_SHAPES,
        strategies=("compile",), blksizes=(8,),
    )
    spec = compile_app(app, "compile", nprocs).spec
    hand = next(map(str, spec.distributions.values()), None)
    family = [dist for _, _, dist in LAYOUTS[2]]  # the apps are matrix apps
    dists = [m["dist"] for m in report.derived_maps]
    if dists != family or hand not in family:
        raise AssertionError(
            f"{app}: candidates {dists} are not the family "
            f"{family}, or miss the hand map {hand}"
        )
    priced = {c.config.dist: c.predicted_us for c in report.candidates}
    unpriced = [
        c.config.label for c in report.candidates if c.predicted is None
    ]
    if unpriced:
        raise AssertionError(f"{app}: the cost model priced no {unpriced}")
    derived = [c.config.dist for c in report.candidates]
    return {
        "app": app,
        "n": n,
        "nprocs": nprocs,
        "derived": derived,
        "hand": hand,
        "hand_in_derived": True,
        "predicted_us": {d: round(us, 2) for d, us in priced.items()},
        "derived_best_us": round(priced[derived[0]], 2),
    }


def check_speed(repeats: int = 3) -> dict:
    """Gate 2: one warm analysis sweep of the suite under 1 second."""
    sources = [load_app(app)[1] for app in APPS]
    # Cold means analysis itself: no memory table and no store load.
    with perf.caches_disabled():
        t0 = time.perf_counter()
        for source in sources:
            analyze(source)
        cold_s = time.perf_counter() - t0

    for source in sources:  # the steady state: every result memoized
        analyze(source)
    misses, hits = perf.counter("locality.miss"), perf.counter("locality.hit")
    warm_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for source in sources:
            analyze(source)
        warm_s = min(warm_s, time.perf_counter() - t0)
    if warm_s > WARM_GATE_S:
        raise AssertionError(
            f"warm analysis sweep took {warm_s * 1e3:.1f} ms "
            f"for {len(sources)} apps — gate is {WARM_GATE_S * 1e3:.0f} ms"
        )
    return {
        "apps": len(sources),
        "warm_ms": round(warm_s * 1e3, 3),
        "cold_ms": round(cold_s * 1e3, 3),
        "gate_ms": WARM_GATE_S * 1e3,
        "warm_misses": perf.counter("locality.miss") - misses,
        "warm_hits": perf.counter("locality.hit") - hits,
    }


def run_benchmark(quick: bool = True) -> dict:
    def n_for(app: str) -> int:
        return 24 if quick else FULL_N.get(app, 128)

    return {
        "benchmark": "locality analyzer acceptance",
        "quick": quick,
        "derived": [check_derived(app, n_for(app)) for app in APPS],
        "speed": check_speed(repeats=3 if quick else 7),
    }


# ---------------------------------------------------------------------------
# pytest entry points (smaller N; the N=128 gate runs in script mode)
# ---------------------------------------------------------------------------


def test_derived_set_is_the_family_with_the_hand_map():
    for app in APPS:
        summary = check_derived(app, n=24)
        assert summary["derived"]


def test_warm_pass_under_a_second():
    """The wall-clock bound, and its deterministic companion: every
    analysis of the warm pass is a ``locality`` memo hit."""
    speed = check_speed(repeats=2)
    assert speed["warm_ms"] <= WARM_GATE_S * 1e3
    assert speed["warm_misses"] == 0
    assert speed["warm_hits"] == 2 * len(APPS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller N and fewer repeats (CI smoke)")
    parser.add_argument("--json", default="BENCH_maps.json", metavar="PATH",
                        help="output path ('-' for stdout only)")
    args = parser.parse_args(argv)

    try:
        payload = run_benchmark(quick=args.quick)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json == "-":
        print(text)
    else:
        Path(args.json).write_text(text + "\n")
        print(text)
    ok = sum(1 for d in payload["derived"] if d["hand_in_derived"])
    print(
        f"OK: {len(payload['derived'])} apps gated "
        f"({ok} hand maps among the candidates), warm sweep "
        f"{payload['speed']['warm_ms']} ms (gate "
        f"{payload['speed']['gate_ms']:.0f} ms)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
