"""Columnar replay acceptance benchmark (``BENCH_replay.json``).

Thin driver over :mod:`repro.bench.replay_bench`, which times four
replay flavours per strategy point — ``fresh`` (empty caches and store),
``warm`` (vectorized engine, in-process steady state), ``scalar`` (the
per-event reference scheduler, rows rebuilt per call), and ``cold`` (memory
tiers dropped, on-disk artifact store primed) — and enforces the gates:

* every flavour **bit-identical** to the compiled simulator (makespan,
  messages, bytes, per-rank communication times), on the replay backend,
  no silent fallback;
* full scale (N=1024 / S=256, the committed numbers): fresh replay at
  least **2.5x** and warm replay at
  least **10x** over the compiled simulator, the vectorized engine at
  least **5x** over the scalar walk (``vector_x``), and a primed-store
  cold run at least **5x** over compiled with a nonzero disk hit count —
  a fresh process must actually benefit from the store;
* quick mode (CI smoke, N=512 / S=128): the fresh ratio gated at **3x**
  on the event-heavy Optimized I point (catches extraction decaying into
  per-iteration walking) and the primed-store cold ratio at **5x** on
  every point.

Run as a script (``python benchmarks/bench_replay.py``) to refresh
``BENCH_replay.json``; exits nonzero if a gate fails. Also collected by
pytest with a small grid where only the identity checks apply. The JSON
payload carries ``perf.cache_stats()`` — per-cache entry counts, hit
rates, byte estimates, and disk-store counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.replay_bench import run_benchmark, run_point

__all__ = ["run_benchmark", "run_point", "main"]


# ---------------------------------------------------------------------------
# pytest entry points (small grid: identity + store-roundtrip checks only —
# tiny runs cannot amortize skeleton extraction, so speed is gated in
# script mode)
# ---------------------------------------------------------------------------


def test_replay_identity_optI_small():
    __import__("pytest").importorskip("numpy")
    point = run_point("optI", 64, 8, repeats=1)
    assert point["messages"] > 0
    assert point["store_hits_cold"] >= 1


def test_replay_identity_optIII_small():
    __import__("pytest").importorskip("numpy")
    point = run_point("optIII", 64, 8, repeats=1)
    assert point["messages"] > 0
    assert point["store_hits_cold"] >= 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid, fresh+cold gates only (CI smoke)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="output path ('-' for stdout only; default "
                             "BENCH_replay.json, or '-' under --quick so a "
                             "smoke run cannot overwrite the committed "
                             "full-scale numbers)")
    args = parser.parse_args(argv)
    if args.json is None:
        args.json = "-" if args.quick else "BENCH_replay.json"

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
    for point in payload["points"]:
        print(
            f"OK: {point['strategy']} N={point['n']} S={point['nprocs']}: "
            f"compiled {point['compiled_s']}s, replay fresh "
            f"{point['replay_fresh_s']}s ({point['fresh_x']}x), cold "
            f"{point['replay_cold_s']}s ({point['cold_x']}x, "
            f"{point['store_hits_cold']} disk hits), warm "
            f"{point['replay_warm_s']}s ({point['warm_x']}x, "
            f"{point['vector_x']}x over the scalar walk)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
