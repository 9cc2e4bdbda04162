"""Static verifier acceptance benchmark (``BENCH_verify.json``).

Three gates:

``speed``
    verifying a configuration must be at least **5x faster** than
    simulating it at N=128. Verification is deterministic in (program,
    ring, bindings), so reports are memoized in the ``verify`` perf
    cache — exactly like the cost model's predictions, and it is the
    steady state the tuner and repeated CI runs live in, so that is what
    the gate times (simulation is never memoized: its traces and result
    grids are consumed fresh). The first, uncached verification is
    reported alongside as ``cold_ms`` with its own, looser gate: it must
    stay within 5x of one simulation.
``work``
    the loop summarizer must stand in for at least **5 iterations per
    loop body** the verifier's walk runs (``VerifyWalk.covered`` over
    ``VerifyWalk.bodies``, summed over the ranks). A summarizer that
    regressed into per-iteration interpretation runs one body per
    iteration (ratio 1); it is what makes the cold verification 40x
    slower rather than 2x, and a count does not move with machine load.
``agreement``
    on the benchmarked configurations the verifier and the simulator
    must reach the same verdict: clean runs verify clean, and the
    jammed jacobi deadlock is flagged DL001 without running anything.

Run as a script (``python benchmarks/bench_verify.py --quick``) to
refresh ``BENCH_verify.json``; exits nonzero if a gate fails. Also
collected by pytest with a smaller grid and without wall times (they
swing with what else the suite runs): the ``work`` gate, and a second
verification answered from the ``verify`` memo.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import perf
from repro.analysis import verify_compiled, walk_ranks
from repro.apps import gauss_seidel as gs
from repro.core.compiler import compile_program_cached
from repro.core.runner import execute
from repro.errors import DeadlockError
from repro.machine import MachineParams
from repro.spmd.layout import make_full
from repro.tune.space import STRATEGIES, retarget_source

MACHINE = MachineParams.ipsc2()
GATE_RATIO = 5.0


def _compile(strategy: str, dist: str = "wrapped_cols"):
    strat, opt_level = STRATEGIES[strategy]
    return compile_program_cached(
        retarget_source(gs.SOURCE, dist),
        strategy=strat,
        opt_level=opt_level,
        entry_shapes={"Old": ("N", "N")},
        assume_nprocs_min=2,
    )


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _verify(compiled, n: int, nprocs: int) -> None:
    report = verify_compiled(
        compiled, nprocs, params={"N": n}, machine=MACHINE,
        extra_globals={"blksize": 8},
    )
    assert not report.has_errors, report.summary()


def check_speed(n: int, nprocs: int = 4, repeats: int = 3) -> dict:
    """Gate 1: verify >= 5x faster than simulate on the same config."""
    from repro.analysis.verify import _verify_cache

    compiled = _compile("optIII")

    def do_verify():
        _verify(compiled, n, nprocs)

    def do_simulate():
        outcome = execute(
            compiled, nprocs,
            inputs={"Old": make_full((n, n), 1, name="Old")},
            params={"N": n}, machine=MACHINE,
            extra_globals={"blksize": 8},
        )
        assert outcome.sim.undelivered_count == 0

    _verify_cache.clear()
    cold_s = _time(do_verify, 1)  # uncached: the full abstract walk
    do_simulate()  # warm the compile/simplify caches for both sides
    verify_s = _time(do_verify, repeats)
    simulate_s = _time(do_simulate, repeats)
    ratio = simulate_s / verify_s if verify_s else float("inf")
    if ratio < GATE_RATIO:
        raise AssertionError(
            f"N={n}: verify took {verify_s * 1e3:.2f} ms vs simulate "
            f"{simulate_s * 1e3:.2f} ms — only {ratio:.1f}x, gate is "
            f"{GATE_RATIO}x"
        )
    if cold_s > simulate_s * GATE_RATIO:
        raise AssertionError(
            f"N={n}: uncached verify took {cold_s * 1e3:.2f} ms vs "
            f"simulate {simulate_s * 1e3:.2f} ms — loop summarization "
            "has regressed into per-iteration interpretation"
        )
    return {
        "n": n,
        "nprocs": nprocs,
        "verify_ms": round(verify_s * 1e3, 3),
        "cold_ms": round(cold_s * 1e3, 3),
        "simulate_ms": round(simulate_s * 1e3, 3),
        "ratio": round(ratio, 1),
        "gate": GATE_RATIO,
    }


def check_work(n: int, nprocs: int = 4) -> dict:
    """Gate 2: the walk covers >= 5 loop iterations per body it runs."""
    walkers, _ = walk_ranks(
        _compile("optIII").program, nprocs, {"N": n, "blksize": 8}, {}
    )
    bodies = sum(walker.bodies for walker in walkers)
    covered = sum(walker.covered for walker in walkers)
    if covered < GATE_RATIO * bodies:
        raise AssertionError(
            f"N={n}: the verifier's walk ran {bodies} loop bodies for "
            f"{covered} iterations — loop summarization has regressed "
            "into per-iteration interpretation"
        )
    return {"n": n, "nprocs": nprocs, "bodies": bodies, "covered": covered,
            "gate": GATE_RATIO}


def check_agreement(n: int, nprocs: int = 2) -> dict:
    """Gate 3: same verdicts as the simulator, clean and deadlocked."""
    clean = _compile("optI")
    report = verify_compiled(clean, nprocs, params={"N": n}, machine=MACHINE)
    if report.diagnostics:
        raise AssertionError(
            f"clean config flagged: {report.summary()}"
        )

    from repro.apps import jacobi

    jammed = compile_program_cached(
        jacobi.SOURCE_WRAPPED,
        entry="jacobi_step",
        strategy=STRATEGIES["optII"][0],
        opt_level=STRATEGIES["optII"][1],
        entry_shapes={"Old": ("N", "N")},
        assume_nprocs_min=2,
    )
    report = verify_compiled(jammed, nprocs, params={"N": n}, machine=MACHINE)
    if not report.by_code("DL001"):
        raise AssertionError(
            f"jammed jacobi not flagged DL001: {report.summary()}"
        )
    try:
        execute(
            jammed, nprocs,
            inputs={"Old": make_full((n, n), 1, name="Old")},
            params={"N": n}, machine=MACHINE,
        )
    except DeadlockError:
        pass
    else:
        raise AssertionError("simulator did not deadlock on jammed jacobi")
    return {"n": n, "clean_verified": True, "deadlock_flagged": "DL001"}


def run_benchmark(quick: bool = True) -> dict:
    speed = check_speed(128, repeats=3 if quick else 7)
    work = check_work(128)
    agreement = check_agreement(16 if quick else 32)
    return {
        "benchmark": "static verifier acceptance",
        "quick": quick,
        "speed": speed,
        "work": work,
        "agreement": agreement,
    }


# ---------------------------------------------------------------------------
# pytest entry points (smaller grid; the wall-clock gates run in script mode)
# ---------------------------------------------------------------------------


def test_verify_beats_simulation_by_5x():
    """The speed gate as counts: the cold walk summarizes (the work
    gate) and the warm verification does no work at all."""
    work = check_work(64)
    assert work["covered"] >= GATE_RATIO * work["bodies"]
    compiled = _compile("optIII")
    _verify(compiled, 64, 4)
    hits = perf.counter("verify.hit")
    _verify(compiled, 64, 4)
    assert perf.counter("verify.hit") == hits + 1


def test_verdicts_agree_with_simulator():
    agreement = check_agreement(12)
    assert agreement["deadlock_flagged"] == "DL001"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats (CI smoke)")
    parser.add_argument("--json", default="BENCH_verify.json", metavar="PATH",
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
        f"OK: verify {payload['speed']['verify_ms']} ms vs simulate "
        f"{payload['speed']['simulate_ms']} ms "
        f"({payload['speed']['ratio']}x, gate {GATE_RATIO}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
