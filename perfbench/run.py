"""Entry point named by BENCHMARK.json.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints, as the last line of standard output, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``, exactly as BENCHMARK.json lists them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    try:
        result = harness.run_workload(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace,
        )
        metrics = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    except (harness.BenchError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
