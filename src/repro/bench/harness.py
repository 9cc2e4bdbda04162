"""Measurement harness for the evaluation experiments.

A *strategy* is one curve in the paper's figures:

=============  ==========================================================
``runtime``    run-time resolution (§3.1)
``compile``    compile-time resolution, unoptimized (§3.2, Figure 5)
``optI``       + message vectorization (Appendix A.2)
``optII``      + loop jamming (Appendix A.3)
``optIII``     + strip mining (Appendix A.4)
``handwritten`` the Figure-3 program written by hand in the IR
=============  ==========================================================

Every measurement also verifies the computed grid against the sequential
oracle — a benchmark that produced wrong answers would be worthless.

Sweeps can fan strategies out across worker processes (``jobs=N``): each
worker takes whole strategy series, so its memoization tables (compile
cache, simplify/decide caches, rank specializer) warm once and stay hot
for every point in the series. Workers ship their perf snapshots home
and :func:`repro.perf.merge` folds them into the parent's counters.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

from repro import perf
from repro.apps import gauss_seidel as gs
from repro.core.compiler import compile_program_cached
from repro.core.runner import ExecutionOutcome, MeasurePoint, execute
from repro.machine import MachineParams
from repro.spmd.interp import run_spmd
from repro.spmd.layout import gather, make_full, scatter
from repro.tune.space import STRATEGIES

STRATEGY_ORDER = [
    "runtime",
    "compile",
    "optI",
    "optII",
    "optIII",
    "handwritten",
]


def _compiled(strategy: str, source: str, assume_min: int):
    strat, level = STRATEGIES[strategy]
    return compile_program_cached(
        source,
        strategy=strat,
        opt_level=level,
        entry_shapes={"Old": ("N", "N")},
        assume_nprocs_min=assume_min,
    )


def measure(
    strategy: str,
    n: int,
    nprocs: int,
    blksize: int = 8,
    machine: MachineParams | None = None,
    source: str | None = None,
    verify: bool = True,
    backend: str = "compiled",
    specialize: bool = False,
) -> MeasurePoint:
    """Run one strategy on the N x N wavefront problem and measure it.

    The replay backend produces no array values, so ``verify`` is
    forced off there — its correctness story is bit-identical *timing*
    against the compiled backend (the differential suite), not grids.
    """
    machine = machine or MachineParams.ipsc2()
    verify = verify and backend != "replay"
    old = make_full((n, n), 1, name="Old")
    expected = gs.reference_rows(n, [[1] * n for _ in range(n)]) if verify else None

    if strategy == "handwritten":
        program = gs.handwritten_wavefront()
        parts = scatter(old, gs.DISTRIBUTION, nprocs, name="Old")
        host_t0 = time.perf_counter()
        result = run_spmd(
            program,
            nprocs,
            lambda rank: [parts[rank]],
            machine=machine,
            globals_={"N": n, "blksize": blksize, "c": 1, "bval": 1},
            backend=backend,
        )
        host_seconds = time.perf_counter() - host_t0
        compile_seconds = 0.0
        outcome = ExecutionOutcome(value=None, spmd=result)
        if verify:
            new = gather(result.returned, gs.DISTRIBUTION, nprocs, (n, n))
            _check(new, expected, strategy)
    else:
        # Promise S >= 2 only when we actually run more than one processor.
        assume_min = 2 if nprocs >= 2 else 1
        compile_t0 = perf.phase_seconds("compile")
        compiled = _compiled(strategy, source or gs.SOURCE, assume_min)
        compile_seconds = perf.phase_seconds("compile") - compile_t0
        host_t0 = time.perf_counter()
        outcome = execute(
            compiled,
            nprocs,
            inputs={"Old": old},
            params={"N": n},
            machine=machine,
            extra_globals={"blksize": blksize},
            backend=backend,
            specialize=specialize,
        )
        host_seconds = time.perf_counter() - host_t0
        if verify:
            _check(outcome.value, expected, strategy)

    return MeasurePoint.from_outcome(
        outcome, strategy, n, nprocs, blksize, host_seconds, backend,
        compile_seconds,
    )


def _check(new, expected, strategy: str) -> None:
    if new.to_nested() != expected:
        raise AssertionError(f"strategy {strategy!r} computed a wrong grid")


def _strategy_series(
    strategy: str,
    n: int,
    proc_counts: list[int],
    blksize: int,
    machine: MachineParams | None,
    backend: str,
    specialize: bool,
) -> tuple[str, list[MeasurePoint], dict]:
    """One whole strategy curve — the unit of parallel work.

    Module-level (picklable) so ProcessPoolExecutor can ship it to a
    worker. Measuring a full series in one process keeps that worker's
    caches warm across all its points; the returned perf snapshot lets
    the parent account for work done remotely.
    """
    points = [
        measure(
            strategy, n, nprocs, blksize=blksize, machine=machine,
            backend=backend, specialize=specialize,
        )
        for nprocs in proc_counts
    ]
    return strategy, points, perf.snapshot()


def sweep_nprocs(
    strategies: list[str],
    n: int,
    proc_counts: list[int],
    blksize: int = 8,
    machine: MachineParams | None = None,
    backend: str = "compiled",
    specialize: bool = False,
    jobs: int = 1,
) -> dict[str, list[MeasurePoint]]:
    """One series per strategy over the given ring sizes.

    ``jobs > 1`` measures up to that many strategies concurrently in
    worker processes; worker counters/timers are merged into this
    process's :mod:`repro.perf` state. Results are identical either way
    (the simulation is deterministic), only host wall-clock changes.
    """
    if jobs > 1 and len(strategies) > 1:
        results: dict[str, list[MeasurePoint]] = {}
        with ProcessPoolExecutor(max_workers=min(jobs, len(strategies))) as pool:
            futures = [
                pool.submit(
                    _strategy_series, strategy, n, proc_counts, blksize,
                    machine, backend, specialize,
                )
                for strategy in strategies
            ]
            for future in futures:
                strategy, points, snap = future.result()
                results[strategy] = points
                perf.merge(snap)
        return {s: results[s] for s in strategies}
    return {
        strategy: _strategy_series(
            strategy, n, proc_counts, blksize, machine, backend, specialize
        )[1]
        for strategy in strategies
    }
