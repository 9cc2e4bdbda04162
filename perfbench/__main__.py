"""``PYTHONPATH=src python -m perfbench``: the human report.

Prints all ten end-to-end metrics for every workload by name with
units and sample counts; ``--traced`` adds the per-layer ledger;
``--selfcheck`` runs two full sets and compares them against the
bounds in BENCHMARK.json; ``--regen-golden`` rewrites golden.json.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from perfbench import DEFAULT_SEED, RUN_SECONDS, harness, layers
from perfbench.workloads import WHY

HERE = Path(__file__).resolve().parent
NAMES = tuple(WHY)

#: Metrics that must repeat exactly between two runs of the same code.
EXACT = ("host_mcalls", "store_mb", "sim_makespan_ms", "sim_messages_k",
         "failed_frac")


@functools.cache
def contract() -> dict:
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def end_to_end(result: dict) -> dict:
    """The ten end-to-end metrics of one untraced run, in table order."""
    metrics = {
        m["name"]: result["metrics"][m["name"]]
        for m in contract()["end_to_end"]
    }
    metrics["failed_frac"] = {
        "value": result["failed"] / result["attempted"], "unit": "ratio",
    }
    return metrics


def print_end_to_end(result: dict) -> None:
    print(f"\n== {result['workload']}  seed={result['seed']}  "
          f"jobs={result['jobs']}  rounds={result['rounds']}  "
          f"samples={result['samples']}  sizes={json.dumps(result['sizes'])}")
    for name, m in end_to_end(result).items():
        print(f"  {name:<18} {m['value']:>14.6g} {m['unit']}")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def print_ledger(result: dict) -> None:
    metrics = result["metrics"]
    total = sum(
        metrics[f"{layer}.self_ms"]["value"] for layer in layers.LAYER_NAMES
    )
    print(f"\n-- {result['workload']} ledger: coverage "
          f"{metrics['ledger.coverage']['value']:.3f}, tracing overhead "
          f"x{metrics['ledger.overhead']['value']:.2f}")
    print(f"  {'layer':<20} {'self_ms':>10} {'share':>7} {'calls':>7}")
    ranked = sorted(
        layers.LAYER_NAMES,
        key=lambda layer: -metrics[f"{layer}.self_ms"]["value"],
    )
    for layer in ranked:
        self_ms = metrics[f"{layer}.self_ms"]["value"]
        calls = metrics[f"{layer}.calls"]["value"]
        if calls:
            print(f"  {layer:<20} {self_ms:>10.1f} {self_ms / total:>7.1%} "
                  f"{calls:>7}")
    calls_total = sum(
        metrics[f"pycalls.{p}"]["value"] for p in layers.PACKAGES
    )
    shares = sorted(
        ((metrics[f"pycalls.{p}"]["value"], p) for p in layers.PACKAGES),
        reverse=True,
    )
    print("  pycalls: " + ", ".join(
        f"{p} {n / calls_total:.1%}" for n, p in shares if n
    ))
    rest = {
        name: m for name, m in metrics.items()
        if not name.startswith("pycalls.")
        and not name.endswith((".self_ms", ".calls"))
        and not name.startswith("ledger.")
    }
    for name, m in rest.items():
        if m["value"]:
            print(f"  {name:<28} {m['value']:>12.6g} {m['unit']}")


def selfcheck(names, seed: int, seconds: float, rounds, quick: bool) -> int:
    """Two full sets of the same code must agree within the bounds."""
    bounds = {m["name"]: m["bound"] for m in contract()["end_to_end"]}
    bounds["failed_frac"] = 0.0
    bad = 0
    print(f"{'workload':<16} {'metric':<18} {'first':>14} {'second':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        first, second = (
            end_to_end(harness.run_workload(
                name, seed=seed, seconds=seconds, rounds=rounds,
                quick=quick,
            ))
            for _ in range(2)
        )
        for key, bound in bounds.items():
            a, b = first[key]["value"], second[key]["value"]
            spread = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            ok = a == b if key in EXACT else spread <= bound
            bad += not ok
            print(f"{name:<16} {key:<18} {a:>14.6g} {b:>14.6g} "
                  f"{spread:>8.4f} {bound:>6} {'' if ok else 'DISAGREE'}")
    print("selfcheck " + ("FAILED" if bad else "passed"))
    return 1 if bad else 0


def regen_golden(seed: int) -> int:
    """Rewrite golden.json from a run in which every check passed."""
    golden = {}
    for quick in (False, True):
        section = golden["quick" if quick else "full"] = {}
        for name in NAMES:
            result = harness.run_workload(
                name, seed=seed, quick=quick, mode="regen",
            )
            if result["failed"]:
                print(f"refusing to write golden.json: {name}: "
                      + "; ".join(result["failures"]), file=sys.stderr)
                return 1
            section[name] = result["golden"]
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {HERE / 'golden.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    parser.add_argument("--workload", action="append", choices=NAMES,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="seconds of timed rounds per workload")
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many timed rounds instead")
    parser.add_argument("--traced", action="store_true",
                        help="also make the traced run (per-layer ledger)")
    parser.add_argument("--quick", action="store_true",
                        help="smallest sizes, one timed round")
    parser.add_argument("--json", metavar="PATH",
                        help="also write every result to PATH")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)
    names = args.workload or NAMES
    rounds = 1 if args.quick and args.rounds is None else args.rounds

    try:
        if args.regen_golden:
            return regen_golden(DEFAULT_SEED)
        if args.selfcheck:
            return selfcheck(
                names, args.seed, args.seconds, rounds, args.quick
            )
        results = []
        for name in names:
            result = harness.run_workload(
                name, seed=args.seed, seconds=args.seconds, rounds=rounds,
                quick=args.quick,
            )
            print_end_to_end(result)
            results.append(result)
            if args.traced:
                result = harness.run_workload(
                    name, seed=args.seed, trace=1, quick=args.quick,
                )
                print_ledger(result)
                results.append(result)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=1)
    return 1 if any(r["failed"] for r in results) else 0


if __name__ == "__main__":
    raise SystemExit(main())
