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

:func:`compile_app` is the one way the bench package compiles an example
app: through the memoized compile cache, so repeat calls (and backend
comparisons) see the identical program — including the generated
channel names that appear in reports and exports.
"""

from __future__ import annotations

import importlib

from repro.apps import gauss_seidel as gs
from repro.core.compiler import compile_program_cached
from repro.core.runner import ExecutionOutcome, MeasurePoint, execute
from repro.machine import MachineParams
from repro.spmd.interp import run_spmd
from repro.spmd.layout import gather, make_full, scatter
from repro.tune.space import STRATEGIES, retarget_source

STRATEGY_ORDER = [
    "runtime",
    "compile",
    "optI",
    "optII",
    "optIII",
    "handwritten",
]


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
    module, source = APPS[name]
    app = importlib.import_module(f"repro.apps.{module}")
    return app, getattr(app, source)


def compile_app(
    name: str,
    strategy: str,
    nprocs: int,
    dist: str | None = None,
    source: str | None = None,
):
    """Compile one app (or ``source`` under its entry and shapes),
    retargeted onto ``dist`` when given. The compiler may assume S >= 2
    only when ``nprocs >= 2``."""
    app, app_source = load_app(name)
    source = source or app_source
    strat, level = STRATEGIES[strategy]
    return compile_program_cached(
        source if dist is None else retarget_source(source, dist),
        entry=app.ENTRY,
        entry_shapes=app.ENTRY_SHAPES,
        strategy=strat,
        opt_level=level,
        assume_nprocs_min=2 if nprocs >= 2 else 1,
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
        result = run_spmd(
            program,
            nprocs,
            lambda rank: [parts[rank]],
            machine=machine,
            globals_={"N": n, "blksize": blksize, "c": 1, "bval": 1},
            backend=backend,
        )
        outcome = ExecutionOutcome(value=None, spmd=result)
        if verify:
            new = gather(result.returned, gs.DISTRIBUTION, nprocs, (n, n))
            _check(new, expected, strategy)
    else:
        compiled = compile_app("gauss_seidel", strategy, nprocs, source=source)
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
        if verify:
            _check(outcome.value, expected, strategy)

    return MeasurePoint.from_outcome(
        outcome, strategy, n, nprocs, blksize, backend
    )


def _check(new, expected, strategy: str) -> None:
    if new.to_nested() != expected:
        raise AssertionError(f"strategy {strategy!r} computed a wrong grid")


def sweep_nprocs(
    strategies: list[str],
    n: int,
    proc_counts: list[int],
    blksize: int = 8,
    machine: MachineParams | None = None,
    backend: str = "compiled",
    specialize: bool = False,
) -> dict[str, list[MeasurePoint]]:
    """One series per strategy over the given ring sizes."""
    return {
        strategy: [
            measure(
                strategy, n, nprocs, blksize=blksize, machine=machine,
                backend=backend, specialize=specialize,
            )
            for nprocs in proc_counts
        ]
        for strategy in strategies
    }
