"""Auto-decomposition tuner acceptance benchmark (``BENCH_tune.json``).

Four gates, each against exhaustive simulation as ground truth:

``fidelity``
    every runnable configuration's predicted per-channel message counts
    and bytes equal the simulator's **exactly** (``==``, no tolerance),
    and the predicted-vs-simulated makespan rank correlation (Spearman)
    over the searched space is >= 0.9 (the model is exact on the default
    machine, so it lands at 1.0). Configurations the simulator cannot
    run must be *predicted* infeasible — disagreement either way fails.
``economy``
    ``tune()`` must find the exhaustive-search winner while spending at
    least 3x fewer full simulations than the exhaustive sweep.
``blocksize`` (X-BLK)
    restricted to the strip-mined strategy, the tuner's block-size pick
    must match the argmin of the exhaustive block-size sweep
    (``bench_blocksize.py``'s grid) for every tested N.
``ordering`` (F6)
    at the paper's grid the tuner must rank optimized > compile-time >
    run-time resolution without being told — purely from the model.

Run as a script (``python benchmarks/bench_tune.py --quick``) to refresh
``BENCH_tune.json``; exits nonzero if any gate fails. The module is also
collected by pytest with small grids so the gates run in seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.apps import gauss_seidel as gs
from repro.core.runner import execute
from repro.errors import ReproError
from repro.machine import MachineParams
from repro.spmd.layout import make_full
from repro.tune import default_space, spearman, tune
from repro.tune.model import predict
from repro.tune.search import _compile_config

MACHINE = MachineParams.ipsc2()
BLKSIZES = [1, 2, 4, 8, 16, 64]  # bench_blocksize.py's sweep grid


def _simulate(config, n):
    compiled = _compile_config(gs.SOURCE, None, config)
    return execute(
        compiled,
        config.nprocs,
        inputs={"Old": make_full((n, n), 1, name="Old")},
        params={"N": n},
        machine=MACHINE,
        extra_globals={"blksize": config.blksize},
    )


def evaluate_space(n, space):
    """Exhaustively predict *and* simulate every configuration."""
    records = []
    expected = gs.reference_rows(n, [[1] * n for _ in range(n)])
    for config in space:
        rec = {"config": config, "prediction": None, "outcome": None}
        try:
            compiled = _compile_config(gs.SOURCE, None, config)
            rec["prediction"] = predict(
                compiled,
                config.nprocs,
                params={"N": n},
                machine=MACHINE,
                extra_globals={"blksize": config.blksize},
            )
        except ReproError:
            pass
        try:
            outcome = _simulate(config, n)
            if outcome.value.to_nested() != expected:
                raise AssertionError(
                    f"{config.label}: simulator computed a wrong grid"
                )
            rec["outcome"] = outcome
        except ReproError:
            pass
        records.append(rec)
    return records


def check_fidelity(records) -> dict:
    """Gate 1: exact message equality + Spearman >= 0.9 on makespan."""
    exact = 0
    preds, sims = [], []
    for rec in records:
        prediction, outcome = rec["prediction"], rec["outcome"]
        if (prediction is None) != (outcome is None):
            raise AssertionError(
                f"{rec['config'].label}: model and simulator disagree on "
                f"feasibility (predicted={prediction is not None}, "
                f"simulated={outcome is not None})"
            )
        if outcome is None:
            continue
        stats = outcome.sim.stats
        if dict(stats.per_channel) != prediction.per_channel:
            raise AssertionError(
                f"{rec['config'].label}: per-channel message counts differ"
            )
        if dict(stats.per_channel_bytes) != prediction.per_channel_bytes:
            raise AssertionError(
                f"{rec['config'].label}: per-channel byte counts differ"
            )
        exact += 1
        preds.append(prediction.makespan_us)
        sims.append(outcome.makespan_us)
    rho = spearman(preds, sims)
    if rho < 0.9:
        raise AssertionError(f"spearman {rho:.3f} < 0.9 over searched space")
    return {
        "runnable": exact,
        "infeasible_agreed": len(records) - exact,
        "spearman": round(rho, 4),
    }


def check_economy(n, axes, records) -> dict:
    """Gate 2: >= 3x fewer simulations, same winner as exhaustive.

    ``axes`` are ``tune()``'s keyword axes of the space ``records``
    covers."""
    runnable = [r for r in records if r["outcome"] is not None]
    best_time = min(r["outcome"].makespan_us for r in runnable)
    report = tune(
        gs.SOURCE, n, **axes, top_k=3, oracle=gs.reference_rows,
        machine=MACHINE,
    )
    if report.best is None:
        raise AssertionError("tuner confirmed nothing")
    if report.simulations * 3 > len(runnable):
        raise AssertionError(
            f"tuner spent {report.simulations} simulations; exhaustive "
            f"needs {len(runnable)} — less than the required 3x saving"
        )
    if report.best.measured_us != best_time:
        raise AssertionError(
            f"tuner picked {report.best.config.label} "
            f"({report.best.measured_us} us) but the exhaustive winner "
            f"takes {best_time} us"
        )
    return {
        "exhaustive_simulations": len(runnable),
        "tuner_simulations": report.simulations,
        "saving": round(len(runnable) / report.simulations, 2),
        "winner": report.best.config.label,
        "winner_us": report.best.measured_us,
    }


def check_blocksize(n, nprocs=4) -> dict:
    """Gate 3 (X-BLK): tuner blksize == argmin of the exhaustive sweep."""
    from repro.bench.harness import measure

    sweep = {
        blk: measure("optIII", n, nprocs, blksize=blk, machine=MACHINE)
        for blk in BLKSIZES
    }
    exhaustive_best = min(BLKSIZES, key=lambda b: sweep[b].time_us)
    report = tune(
        gs.SOURCE, n, proc_counts=(nprocs,), dists=("wrapped_cols",),
        strategies=("optIII",), blksizes=tuple(BLKSIZES), top_k=1,
        machine=MACHINE,
    )
    pick = report.best.config.blksize
    # Accept an exact-tie pick: what matters is the achieved time.
    if report.best.measured_us != sweep[exhaustive_best].time_us:
        raise AssertionError(
            f"N={n}: tuner picked blk={pick} "
            f"({report.best.measured_us} us) but exhaustive argmin is "
            f"blk={exhaustive_best} ({sweep[exhaustive_best].time_us} us)"
        )
    return {
        "n": n,
        "exhaustive_argmin": exhaustive_best,
        "tuner_pick": pick,
        "time_us": report.best.measured_us,
        "sweep_us": {str(b): sweep[b].time_us for b in BLKSIZES},
    }


def check_ordering(n, nprocs=4) -> dict:
    """Gate 4 (F6): optimized < compile-time < run-time, from the model."""
    times = {}
    for strategy in ("runtime", "compile", "optI", "optII", "optIII"):
        space = default_space(
            (nprocs,), dists=("wrapped_cols",), strategies=(strategy,),
            blksizes=(8,),
        )
        compiled = _compile_config(gs.SOURCE, None, space[0])
        times[strategy] = predict(
            compiled, nprocs, params={"N": n}, machine=MACHINE,
            extra_globals={"blksize": 8},
        ).makespan_us
    best_opt = min(times["optI"], times["optII"], times["optIII"])
    if not best_opt < times["compile"] < times["runtime"]:
        raise AssertionError(
            f"N={n}: predicted ranking is wrong: {times}"
        )
    return {"n": n, "predicted_us": times}


def run_benchmark(quick: bool = True) -> dict:
    n = 16 if quick else 32
    axes = dict(
        proc_counts=(2, 4),
        dists=(
            ("wrapped_cols", "wrapped_rows", "block_cols") if quick
            else (
                "wrapped_cols", "wrapped_rows", "block_cols", "block_rows",
                "block_cyclic_cols(4)", "block_cyclic_rows(4)",
            )
        ),
        strategies=("runtime", "compile", "optI", "optII", "optIII"),
        blksizes=(2, 4, 8) if quick else (1, 2, 4, 8, 16),
    )
    space = default_space(**axes)
    records = evaluate_space(n, space)
    fidelity = check_fidelity(records)
    economy = check_economy(n, axes, records)
    blocksize = [
        check_blocksize(grid) for grid in ((24, 48) if quick else (64, 128))
    ]
    ordering = check_ordering(48 if quick else 128)
    return {
        "benchmark": "auto-decomposition tuner acceptance",
        "quick": quick,
        "n": n,
        "space_size": len(space),
        "fidelity": fidelity,
        "economy": economy,
        "blocksize": blocksize,
        "ordering": ordering,
    }


# ---------------------------------------------------------------------------
# pytest entry points (small grids; the full gates run in script mode)
# ---------------------------------------------------------------------------


SMALL_AXES = dict(
    proc_counts=(2, 4), dists=("wrapped_cols", "block_cols"),
    strategies=("runtime", "compile", "optIII"), blksizes=(2, 8),
)


def test_model_matches_simulator_exactly():
    records = evaluate_space(10, default_space(**SMALL_AXES))
    fidelity = check_fidelity(records)
    assert fidelity["runnable"] > 0
    assert fidelity["spearman"] >= 0.9


def test_search_finds_winner_with_fewer_simulations():
    records = evaluate_space(11, default_space(**SMALL_AXES))
    economy = check_economy(11, SMALL_AXES, records)
    assert economy["saving"] >= 3.0


def test_blocksize_pick_matches_exhaustive_argmin():
    assert check_blocksize(24)


def test_strategy_ordering_emerges():
    assert check_ordering(32)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grids (CI smoke)")
    parser.add_argument("--json", default="BENCH_tune.json", metavar="PATH",
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
    print(
        f"OK: spearman={payload['fidelity']['spearman']} "
        f"saving={payload['economy']['saving']}x "
        f"winner={payload['economy']['winner']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
