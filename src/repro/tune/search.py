"""Search driver: rank the space with the predictor, confirm the top-k.

The predictor walk is orders of magnitude cheaper than compiling *and*
simulating every candidate, and (by :mod:`repro.tune.model`'s design)
exact on message counts and bit-exact on makespan under any
``MachineParams`` — so the search simulates only the ``top_k``
predicted-best configurations, which checks their *values* against the
oracle and ranks candidates the model abstained on, and returns both
numbers for each (``TuneReport.spearman`` over them is therefore 1.0
unless the model and the simulator have diverged). Infeasible candidates are pruned *statically*:
each compiled configuration first runs through the communication-safety
verifier (:mod:`repro.analysis`), and one that provably deadlocks,
unbalances a channel, or double-writes an I-structure is excluded with
the verifier's diagnostic as its error string (``verify: DL001 ...``).
Candidates that fail earlier (data-dependent control, compile failures
such as ``block_grid``'s inconclusive fallback) are likewise kept in
the report with their error: the tuner's job includes telling the user
what it could not evaluate and why.

Confirmations are memoized (``tune_measure``) and can fan out across
worker processes (``jobs > 1``) exactly like the bench harness's
strategy sweeps.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro import perf
from repro.analysis import analyze, verify_compiled
from repro.core.compiler import compile_program_cached
from repro.core.runner import MeasurePoint, execute
from repro.errors import ModelError, ReproError, TuneError
from repro.machine import MachineParams
from repro.spmd.layout import make_full
from repro.tune.model import Prediction, predict
from repro.tune.space import (
    DEFAULT_BLKSIZES,
    DEFAULT_STRATEGIES,
    STRATEGIES,
    TuneConfig,
    default_space,
    retarget_source,
)

perf.register_cache("tune_measure", {})


@dataclass
class Candidate:
    """One searched configuration with everything learned about it."""

    config: TuneConfig
    predicted: Prediction | None = None
    error: str | None = None  # why it is infeasible (None when feasible)
    abstained: str | None = None  # why the predictor declined to rank it
    measured: MeasurePoint | None = None
    spec: object = field(default=None, repr=False)  # DecompositionSpec

    @property
    def feasible(self) -> bool:
        # A candidate the predictor *abstained* on (data-dependent
        # communication) is still feasible — it just has to be confirmed
        # by measurement instead of being ranked by the model.
        if self.error is not None:
            return False
        return self.predicted is not None or self.abstained is not None

    @property
    def predicted_us(self) -> float | None:
        return self.predicted.makespan_us if self.predicted else None

    @property
    def measured_us(self) -> float | None:
        return self.measured.time_us if self.measured else None


@dataclass
class TuneReport:
    """Ranked result of one search."""

    n: int
    candidates: list[Candidate]  # predicted-best first, infeasible last
    best: Candidate | None  # measured-best among confirmed
    simulations: int  # full simulator runs spent
    space_size: int
    machine: MachineParams
    # Provenance when the distribution axis was derived statically
    # (``tune(dists=None)``): one jsonable dict per candidate map, with
    # the locality findings behind it. None when the caller named the
    # distributions.
    derived_maps: list[dict] | None = None

    @property
    def chosen_spec(self):
        """The winning configuration's ``DecompositionSpec``."""
        return self.best.spec if self.best else None

    @property
    def confirmed(self) -> list[Candidate]:
        return [c for c in self.candidates if c.measured is not None]

    @property
    def spearman(self) -> float | None:
        """Rank agreement of predicted vs measured over the confirmed set
        (1.0 while the model stays bit-exact; less flags a divergence)."""
        pts = [c for c in self.confirmed if c.predicted is not None]
        if len(pts) < 2:
            return None
        return spearman(
            [c.predicted_us for c in pts], [c.measured_us for c in pts]
        )


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("length mismatch")
    if n < 2:
        raise ValueError("need at least two points")

    def ranks(values):
        order = sorted(range(n), key=lambda k: values[k])
        out = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mean = (n + 1) / 2.0
    num = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    den = math.sqrt(
        sum((a - mean) ** 2 for a in rx) * sum((b - mean) ** 2 for b in ry)
    )
    return num / den if den else 0.0


DEFAULT_ENTRY_SHAPES = {"Old": ("N", "N")}


def _compile_config(
    source: str,
    entry: str | None,
    config: TuneConfig,
    entry_shapes: dict[str, tuple] | None = None,
):
    strategy, opt_level = STRATEGIES[config.strategy]
    return compile_program_cached(
        retarget_source(source, config.dist),
        entry=entry,
        strategy=strategy,
        opt_level=opt_level,
        entry_shapes=(
            DEFAULT_ENTRY_SHAPES if entry_shapes is None else entry_shapes
        ),
        assume_nprocs_min=2 if config.nprocs >= 2 else 1,
    )


def _confirm(
    source: str,
    entry: str | None,
    config: TuneConfig,
    n: int,
    machine: MachineParams,
    backend: str,
    oracle,
    entry_shapes: dict[str, tuple] | None = None,
) -> MeasurePoint:
    """Run one configuration on the real simulator (and verify it)."""
    compiled = _compile_config(source, entry, config, entry_shapes)
    env = {**compiled.checked.consts, "N": n, "S": config.nprocs}
    inputs: dict[str, object] = {}
    for pname in compiled.entry_array_params:
        info = compiled.array_info[compiled.entry][pname]
        shape = tuple(d.evaluate(env) for d in info.shape)
        inputs[pname] = make_full(shape, 1, name=pname)
    host_t0 = time.perf_counter()
    outcome = execute(
        compiled,
        config.nprocs,
        inputs=inputs,
        params={"N": n},
        machine=machine,
        extra_globals={"blksize": config.blksize},
        backend=backend,
    )
    host_seconds = time.perf_counter() - host_t0
    if (
        oracle is not None
        and compiled.entry_return_array is not None
        and outcome.value is not None  # replay produces no array values
    ):
        expected = oracle(n, [[1] * n for _ in range(n)])
        if outcome.value.to_nested() != expected:
            raise AssertionError(
                f"configuration {config.label} computed a wrong grid"
            )
    return MeasurePoint.from_outcome(
        outcome, config.strategy, n, config.nprocs, config.blksize,
        host_seconds, backend,
    )


def _confirm_job(
    source, entry, config, n, machine, backend, oracle, entry_shapes
):
    """Worker-side confirmation (module-level, hence picklable)."""
    # Forked workers inherit the parent's counters; zero them so the
    # snapshot merged back covers exactly this job's work.
    perf.reset()
    try:
        point = _confirm(
            source, entry, config, n, machine, backend, oracle, entry_shapes
        )
        return config, point, None, perf.snapshot()
    except (ReproError, AssertionError) as err:
        return config, None, f"{type(err).__name__}: {err}", perf.snapshot()


def tune(
    source: str,
    n: int,
    *,
    entry: str | None = None,
    proc_counts=(4,),
    machine: MachineParams | None = None,
    top_k: int = 3,
    jobs: int = 1,
    backend: str = "compiled",
    oracle=None,
    entry_shapes: dict[str, tuple] | None = None,
    dists=None,
    strategies=None,
    blksizes=None,
) -> TuneReport:
    """Find the best ``<map, local, alloc>`` / strategy / blksize choice.

    Predicts every configuration of :func:`~repro.tune.space.
    default_space` over ``proc_counts`` x ``dists`` x ``strategies`` x
    ``blksizes``, ranks by predicted makespan, then confirms candidates
    on the real simulator in predicted order until ``top_k`` have
    succeeded (a confirmation failure marks the candidate infeasible and
    pulls in the next one). ``oracle(n, old_rows)`` optionally verifies
    each confirmed run against a sequential reference. ``jobs > 1``
    confirms candidates in parallel worker processes.

    ``dists=None`` searches the layout family that
    :func:`repro.analysis.analyze` reads off the program's own access
    functions — the programmer does not supply a ``map`` choice at all
    — and records the analyzer's findings on the report
    (``TuneReport.derived_maps``). ``strategies=None`` and
    ``blksizes=None`` mean the library defaults; an empty axis is a
    :class:`TuneError`.
    """
    machine = machine or MachineParams.ipsc2()
    derived = None
    if dists is None:
        result = analyze(source, entry=entry)
        if not result.candidates:
            why = "; ".join(
                d.message for d in result.report.by_code("LOC003")
            ) or "no affine references found"
            raise TuneError(
                f"the locality analyzer derived no candidate maps: {why}"
            )
        derived = [c.to_json() for c in result.candidates]
        dists = result.dists
    axes = {
        "proc_counts": proc_counts,
        "dists": dists,
        "strategies": DEFAULT_STRATEGIES if strategies is None else strategies,
        "blksizes": DEFAULT_BLKSIZES if blksizes is None else blksizes,
    }
    for name, values in axes.items():
        if not values:
            raise TuneError(f"empty search space: no {name} given")
    space = default_space(**axes)

    with perf.phase("tune"):
        candidates: list[Candidate] = []
        for config in space:
            cand = Candidate(config=config)
            try:
                compiled = _compile_config(
                    source, entry, config, entry_shapes
                )
                cand.spec = compiled.spec
                # Prune statically: a configuration the verifier proves
                # unsafe (deadlock, unbalanced channels, double write)
                # is infeasible with a precise explanation — no need to
                # predict, let alone simulate, it.
                verdict = verify_compiled(
                    compiled,
                    config.nprocs,
                    params={"N": n},
                    machine=machine,
                    extra_globals={"blksize": config.blksize},
                )
                if verdict.has_errors:
                    first = verdict.errors[0]
                    cand.error = f"verify: {first.code} {first.message}"
                else:
                    try:
                        cand.predicted = predict(
                            compiled,
                            config.nprocs,
                            params={"N": n},
                            machine=machine,
                            extra_globals={"blksize": config.blksize},
                        )
                    except ModelError as err:
                        # The walk abstained (data-dependent schedule):
                        # fall back to measured confirmation for this
                        # candidate instead of discarding it.
                        cand.abstained = f"ModelError: {err}"
            except ReproError as err:
                cand.error = f"{type(err).__name__}: {err}"
            candidates.append(cand)

        # Model-ranked candidates first (cheapest predicted makespan),
        # abstained candidates after them in space order.
        feasible = sorted(
            (c for c in candidates if c.feasible),
            key=lambda c: (
                c.predicted_us if c.predicted is not None else math.inf
            ),
        )
        infeasible = [c for c in candidates if not c.feasible]

        simulations = 0
        pending = list(feasible)
        confirmed: list[Candidate] = []
        while pending and len(confirmed) < top_k:
            batch_size = min(top_k - len(confirmed), len(pending))
            batch, pending = pending[:batch_size], pending[batch_size:]
            run_batch = []
            for cand in batch:
                key = (source, entry, cand.config, n, machine, backend)
                point = perf.lookup("tune_measure", key)
                if point is perf.MISSING:
                    run_batch.append((cand, key))
                else:
                    cand.measured = point
                    confirmed.append(cand)
            if run_batch:
                simulations += len(run_batch)
                if jobs > 1 and len(run_batch) > 1:
                    with ProcessPoolExecutor(
                        max_workers=min(jobs, len(run_batch))
                    ) as pool:
                        futures = [
                            pool.submit(
                                _confirm_job, source, entry, cand.config,
                                n, machine, backend, oracle, entry_shapes,
                            )
                            for cand, _ in run_batch
                        ]
                        outcomes = [f.result() for f in futures]
                    for (cand, key), (_, point, error, snap) in zip(
                        run_batch, outcomes
                    ):
                        perf.merge(snap)
                        if error is None:
                            cand.measured = point
                            confirmed.append(cand)
                            perf.insert("tune_measure", key, point)
                        else:
                            cand.error = error
                else:
                    for cand, key in run_batch:
                        try:
                            point = _confirm(
                                source, entry, cand.config, n, machine,
                                backend, oracle, entry_shapes,
                            )
                        except (ReproError, AssertionError) as err:
                            cand.error = f"{type(err).__name__}: {err}"
                            continue
                        cand.measured = point
                        confirmed.append(cand)
                        perf.insert("tune_measure", key, point)

        # A candidate that failed confirmation moved to infeasible.
        feasible = [c for c in feasible if c.feasible]
        infeasible = [c for c in candidates if not c.feasible]
        best = min(
            (c for c in feasible if c.measured is not None),
            key=lambda c: c.measured_us,
            default=None,
        )
        return TuneReport(
            n=n,
            candidates=feasible + infeasible,
            best=best,
            simulations=simulations,
            space_size=len(space),
            machine=machine,
            derived_maps=derived,
        )
