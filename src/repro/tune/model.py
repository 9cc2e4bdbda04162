"""Analytic cost model: predict a configuration's cost without simulation.

The prediction prices the abstract walk (:mod:`repro.spmd.walk`, which
explains why it is sound: generated control flow never depends on array
data) of every rank, each rank's event skeleton

    [Compute(ops, mems), Send(dst, channel, plen), Recv(src, channel), ...]

with no scheduler in the loop. The predictor owns no walk: the rows are
the verifier's (:func:`repro.analysis.walk_ranks`), which a flow that
verified the configuration first has already made, and whose failures
are re-raised here as the plain walk raised them — a data-dependent
branch is a :class:`ModelError`, never a guess. Message counts and bytes
are **exact** — per (src, dst, channel), not just in total. The clocks
are the verifier's too (:func:`repro.analysis.clock_ranks`: the reference
scheduler over those skeletons), which reproduce the ``compiled``
backend's makespan bit for bit under any machine parameters.

One knowing approximation, documented in ``docs/INTERNALS.md``: the
model assumes the identity placement (one process per processor). The
§5.3/5.4 multi-process placements change both local-delivery costs and
the deferral schedule and are *not* predicted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import perf
from repro.analysis import clock_ranks, walk_ranks
from repro.errors import CompileError, ModelError
from repro.machine import MachineParams
from repro.machine.stats import ChannelKey


@dataclass
class Prediction:
    """What the model claims a configuration will do."""

    nprocs: int
    makespan_us: float
    total_messages: int
    total_bytes: int
    per_channel: dict[ChannelKey, int]
    per_channel_bytes: dict[ChannelKey, int]
    finish_times_us: list[float]
    busy_times_us: list[float]
    comm_times_us: list[float]

    @property
    def comm_frac(self) -> float:
        """Communication overhead as a fraction of total busy time."""
        busy = sum(self.busy_times_us)
        return sum(self.comm_times_us) / busy if busy else 0.0

    @property
    def idle_frac(self) -> float:
        """Fraction of the processor-time rectangle spent idle."""
        area = self.nprocs * self.makespan_us
        return 1.0 - sum(self.busy_times_us) / area if area else 0.0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

perf.register_cache("tune_predict", {})


def predict(
    compiled,
    nprocs: int,
    params: dict[str, int] | None = None,
    machine: MachineParams | None = None,
    extra_globals: dict[str, object] | None = None,
    inputs: dict[str, object] | None = None,
) -> Prediction:
    """Predict ``compiled``'s behaviour on ``nprocs`` processors.

    Mirrors the argument conventions of :func:`repro.core.runner.execute`:
    ``params`` binds every ``param`` declaration, ``extra_globals`` adds
    run-time knobs such as the strip-mining ``blksize``, and ``inputs``
    may bind entry *scalar* arguments (array arguments are opaque to the
    model and need no values). Memoized (``tune_predict``, memory only).

    Raises :class:`ModelError` when the program's control flow depends
    on array data, and the same errors a real run would raise for
    structurally broken programs (unknown names, invalid partners,
    predicted deadlock).
    """
    machine = machine or MachineParams.ipsc2()
    params = dict(params or {})
    missing = [name for name in compiled.param_names if name not in params]
    if missing:
        raise CompileError(f"missing values for params {missing}")
    extra_globals = dict(extra_globals or {})
    inputs = dict(inputs or {})

    def build() -> Prediction:
        with perf.phase("predict"):
            globals_: dict[str, object] = dict(params)
            globals_.update(extra_globals)
            walkers, channels = walk_ranks(
                compiled.program, nprocs, globals_, inputs
            )
            for walker in walkers:
                failure = walker.raised or walker.error
                if failure is not None:  # kept with the walk: raise it
                    raise failure.with_traceback(None)  # from here only
            run = clock_ranks(walkers, machine)
            if run.stuck:
                raise ModelError(
                    f"predicted deadlock: ranks {run.stuck} block on "
                    "receives no send will satisfy"
                )
            stats = run.stats(channels, machine.scalar_bytes)
            return Prediction(
                nprocs=nprocs,
                makespan_us=max(run.clock) if run.clock else 0.0,
                total_messages=stats.total_messages,
                total_bytes=stats.total_bytes,
                per_channel=dict(stats.per_channel),
                per_channel_bytes=dict(stats.per_channel_bytes),
                finish_times_us=run.clock,
                busy_times_us=run.busy,
                comm_times_us=run.comm,
            )

    key = (
        compiled.program,  # identity-hashed
        nprocs,
        machine,
        tuple(sorted(params.items())),
        tuple(sorted(extra_globals.items())),
        tuple(sorted(inputs.items())),
    )
    return perf.memo("tune_predict", key, build)
