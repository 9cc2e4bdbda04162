"""Replay acceptance measurement: bit-identity plus four speed gates.

One sweep, shared by the acceptance script ``benchmarks/bench_replay.py``
(which writes ``BENCH_replay.json``) and the ``python -m repro.bench
replay`` subcommand. Each point times four replay flavours against the
compiled simulator baseline:

``fresh``
    empty caches *and* an empty artifact store: extraction + FIFO
    matching + clock walk, the true first-contact cost.
``warm``
    skeleton and plan memoized in-process — the steady state repeated
    sweeps and the tuner's confirmations live in. Runs the vectorized
    engine.
``scalar``
    the per-event reference scheduler (:func:`repro.machine.rows.
    run_rows`) over the memoized skeleton's compact rows, expanded in
    plain Python on every call — the oracle keeps no plan. This
    is the denominator of the vectorized engine's own speedup gate
    (``vector_x``) — compiled-backend ratios alone would let a
    vector-engine regression hide behind the huge compiled baseline.
``cold``
    in-memory cache tiers dropped but the on-disk store primed: what a
    *fresh process* pays after any earlier process already did the
    work. The point of the persistent store — and gated, so a broken
    spill path (skeletons silently re-extracting) fails the benchmark
    instead of shipping.

Every flavour must be bit-identical to the compiled run (makespan,
message count, byte count, per-rank communication times) and must have
actually used the replay backend; the cold run must additionally show a
nonzero ``store.replay_skeleton.hit`` delta, proving the skeleton came
off disk. Measurement is hermetic: each point runs against a private
throwaway store root, so results never depend on what previous runs
left in ``~/.cache/repro``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from repro import perf, store
from repro.bench.harness import compile_app
from repro.core.runner import execute
from repro.machine import MachineParams
from repro.spmd.layout import make_full

MACHINE = MachineParams.ipsc2()

#: Gate multipliers. ``fresh``/``cold``/``warm`` are vs the compiled
#: simulator; ``vector`` is the vectorized engine vs the scalar oracle
#: walk. run_benchmark decides which apply in quick vs full mode.
FRESH_GATE = 3.0
FRESH_GATE_FULL = 2.5
COLD_GATE = 5.0
WARM_GATE = 10.0
VECTOR_GATE = 5.0

STRATEGY_SWEEP = ("optI", "optIII")

#: What a forced-scalar run records on the result (matched exactly so a
#: *different* fallback reason — a real fallback — still fails).
_SCALAR_NOTE = "scalar clock walk (REPRO_REPLAY_SCALAR=1)"


def _time(fn, repeats: int):
    """(best seconds, last result) over ``repeats`` calls."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_point(
    strategy: str,
    n: int,
    nprocs: int,
    blksize: int = 4,
    repeats: int = 2,
    fresh_gate: float | None = None,
    cold_gate: float | None = None,
    warm_gate: float | None = None,
    vector_gate: float | None = None,
) -> dict:
    """Benchmark one configuration; raises AssertionError on any gate."""
    label = f"{strategy} N={n} S={nprocs}"

    def run(backend):
        return execute(
            compiled, nprocs,
            inputs={"Old": make_full((n, n), 1, name="Old")},
            params={"N": n}, machine=MACHINE,
            extra_globals={"blksize": blksize},
            backend=backend,
        )

    def check(name, got, note=None):
        if got.spmd.backend != "replay":
            raise AssertionError(
                f"{label}: {name} replay fell back to compiled "
                f"({got.spmd.fallback_reason})"
            )
        if got.spmd.fallback_reason != note:
            raise AssertionError(
                f"{label}: {name} replay ran the wrong engine "
                f"({got.spmd.fallback_reason!r}, expected {note!r})"
            )
        if got.makespan_us != ref.makespan_us:
            raise AssertionError(
                f"{label}: {name} replay makespan {got.makespan_us!r} != "
                f"compiled {ref.makespan_us!r}"
            )
        if got.total_messages != ref.total_messages:
            raise AssertionError(
                f"{label}: {name} replay messages {got.total_messages} != "
                f"compiled {ref.total_messages}"
            )
        if got.sim.stats.total_bytes != ref.sim.stats.total_bytes:
            raise AssertionError(
                f"{label}: {name} replay bytes "
                f"{got.sim.stats.total_bytes} != compiled "
                f"{ref.sim.stats.total_bytes}"
            )
        if got.sim.comm_times_us != ref.sim.comm_times_us:
            raise AssertionError(f"{label}: {name} comm_times_us diverged")

    # Hermetic store root for the whole point: the reference compile
    # writes there too (not into the user's store), the fresh run finds
    # no skeleton in it (and primes it), the cold run finds it primed.
    store_root = tempfile.mkdtemp(prefix="repro-bench-store-")
    prior_dir = os.environ.get("REPRO_CACHE_DIR")
    prior_scalar = os.environ.pop("REPRO_REPLAY_SCALAR", None)
    os.environ["REPRO_CACHE_DIR"] = store_root
    try:
        compiled = compile_app("gauss_seidel", strategy, nprocs)
        compiled_s, ref = _time(lambda: run("compiled"), repeats)

        perf.clear_caches()  # ``compiled`` itself stays alive above
        fresh_s, fresh = _time(lambda: run("replay"), 1)
        check("fresh", fresh)

        warm_s, warm = _time(lambda: run("replay"), repeats)
        check("warm", warm)

        os.environ["REPRO_REPLAY_SCALAR"] = "1"
        try:
            scalar_s, scal = _time(lambda: run("replay"), repeats)
        finally:
            del os.environ["REPRO_REPLAY_SCALAR"]
        check("scalar", scal, note=_SCALAR_NOTE)

        hits_before = perf.counter("store.replay_skeleton.hit")
        perf.clear_caches()  # memory tiers only; the store survives
        cold_s, cold = _time(lambda: run("replay"), 1)
        check("cold", cold)
        store_hits_cold = perf.counter("store.replay_skeleton.hit") - \
            hits_before
        if store_hits_cold < 1:
            raise AssertionError(
                f"{label}: primed-store cold run recorded no "
                "store.replay_skeleton hits — it re-extracted instead of "
                "loading the persisted skeleton"
            )
        # One skeleton is in memory now (the one just loaded), so the
        # table's exact byte count is that skeleton's ``nbytes``.
        skeleton_nbytes = perf.cache_stats()["replay_skeleton"]["est_bytes"]
        store_bytes = store.get_store().size_bytes()
    finally:
        if prior_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = prior_dir
        if prior_scalar is not None:
            os.environ["REPRO_REPLAY_SCALAR"] = prior_scalar
        shutil.rmtree(store_root, ignore_errors=True)

    fresh_x = compiled_s / fresh_s if fresh_s else float("inf")
    cold_x = compiled_s / cold_s if cold_s else float("inf")
    warm_x = compiled_s / warm_s if warm_s else float("inf")
    vector_x = scalar_s / warm_s if warm_s else float("inf")
    for name, got_x, gate, num_s in (
        ("fresh", fresh_x, fresh_gate, fresh_s),
        ("cold", cold_x, cold_gate, cold_s),
        ("warm", warm_x, warm_gate, warm_s),
    ):
        if gate is not None and got_x < gate:
            raise AssertionError(
                f"{label}: {name} replay {num_s:.2f}s vs compiled "
                f"{compiled_s:.2f}s — only {got_x:.1f}x, gate is {gate}x"
            )
    if vector_gate is not None and vector_x < vector_gate:
        raise AssertionError(
            f"{label}: vectorized engine {warm_s:.3f}s vs scalar walk "
            f"{scalar_s:.3f}s — only {vector_x:.1f}x, gate is "
            f"{vector_gate}x"
        )
    return {
        "strategy": strategy,
        "n": n,
        "nprocs": nprocs,
        "blksize": blksize,
        "compiled_s": round(compiled_s, 3),
        "replay_fresh_s": round(fresh_s, 3),
        "replay_cold_s": round(cold_s, 3),
        "replay_warm_s": round(warm_s, 3),
        "scalar_warm_s": round(scalar_s, 3),
        "fresh_x": round(fresh_x, 1),
        "cold_x": round(cold_x, 1),
        "warm_x": round(warm_x, 1),
        "vector_x": round(vector_x, 1),
        "store_hits_cold": store_hits_cold,
        "skeleton_nbytes": skeleton_nbytes,
        "store_bytes": store_bytes,
        "makespan_us": ref.makespan_us,
        "messages": ref.total_messages,
        "bytes": ref.sim.stats.total_bytes,
    }


def run_benchmark(quick: bool = True) -> dict:
    """The full sweep. Quick mode (CI smoke, N=512/S=128) gates the
    fresh ratio on the event-heavy Optimized I point — the regression
    it catches is the extractor's loop replication decaying into
    per-iteration walking, which shows up fresh, at any scale — plus
    the primed-store cold ratio on every point. Full mode (N=1024/
    S=256, the committed numbers) gates fresh on every point (the
    Optimized III point is extraction-bound, so its ratio is the lower
    one), cold, warm, and the vectorized engine's speedup over the
    scalar oracle."""
    if quick:
        n, nprocs = 512, 128
        gates = {
            "fresh_x": FRESH_GATE, "cold_x": COLD_GATE,
            "warm_x": None, "vector_x": None,
        }
    else:
        n, nprocs = 1024, 256
        gates = {
            "fresh_x": FRESH_GATE_FULL, "cold_x": COLD_GATE,
            "warm_x": WARM_GATE, "vector_x": VECTOR_GATE,
        }
    points = [
        run_point(
            strategy, n, nprocs, repeats=2,
            fresh_gate=(
                gates["fresh_x"] if strategy == "optI" or not quick else None
            ),
            cold_gate=gates["cold_x"],
            warm_gate=gates["warm_x"],
            vector_gate=gates["vector_x"],
        )
        for strategy in STRATEGY_SWEEP
    ]
    return {
        "benchmark": "columnar replay acceptance",
        "quick": quick,
        "gates": gates,
        "points": points,
        "cache_stats": perf.cache_stats(),
    }
