"""Analytic cost model: predict a configuration's cost without simulation.

The prediction runs the compiled abstract walk (:mod:`repro.spmd.walk`,
which explains why it is sound: generated control flow never depends on
array data) once per rank, recording each rank's event skeleton

    [Compute(ops, mems), Send(dst, channel, plen), Recv(src, channel), ...]

with no scheduler in the loop; a data-dependent branch raises
:class:`ModelError` rather than guessing. Message counts and bytes are
**exact** — per (src, dst, channel), not just in total. The makespan
comes from replaying the skeletons through the simulator's own clock
arithmetic (a compute event costs ``ops * op_us + mems * mem_us``, the
compiled backend's flush formula over the same integer counters; send
start-up + bandwidth on the sender; ``max(clock, arrival) + overhead``
on the receiver; FIFO per channel), which reproduces the ``compiled``
backend's makespan bit for bit under any machine parameters.

One knowing approximation, documented in ``docs/INTERNALS.md``: the
model assumes the identity placement (one process per processor). The
§5.3/5.4 multi-process placements change both local-delivery costs and
the deferral schedule and are *not* predicted.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from repro import perf
from repro.errors import CompileError, ModelError
from repro.machine import MachineParams
from repro.machine.stats import ChannelKey
from repro.spmd.walk import ARRAY, KIND_COMPUTE, KIND_SEND, UNKNOWN, Walker


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
# Skeleton schedule: the simulator's clock arithmetic without the simulator
# ---------------------------------------------------------------------------


def _schedule(
    per_rank: list[list[tuple]],
    channels: list[str],
    nprocs: int,
    params: MachineParams,
) -> Prediction:
    """Clock the walkers' event rows; ``channels`` names channel ids."""
    clock = [0.0] * nprocs
    busy = [0.0] * nprocs
    comm = [0.0] * nprocs
    idx = [0] * nprocs
    queues: dict[ChannelKey, deque] = defaultdict(deque)
    blocked: dict[ChannelKey, int] = {}  # key -> the (unique) waiting rank
    per_channel: dict[ChannelKey, int] = defaultdict(int)
    per_channel_bytes: dict[ChannelKey, int] = defaultdict(int)
    total_messages = 0
    total_bytes = 0
    send_cost: dict[int, float] = {}
    op_us = params.op_us
    mem_us = params.mem_us
    latency_us = params.latency_us
    recv_overhead_us = params.message_cost_recv()
    scalar_bytes = params.scalar_bytes

    runnable = deque(range(nprocs))
    while runnable:
        p = runnable.popleft()
        events = per_rank[p]
        i = idx[p]
        n = len(events)
        while i < n:
            kind, peer, chan, plen, ops, mems = events[i]
            if kind == KIND_COMPUTE:
                cost = ops * op_us + mems * mem_us
                clock[p] += cost
                busy[p] += cost
            elif kind == KIND_SEND:
                cost = send_cost.get(plen)
                if cost is None:
                    cost = send_cost[plen] = params.message_cost_send(
                        plen * scalar_bytes
                    )
                clock[p] += cost
                busy[p] += cost
                comm[p] += cost
                key = ChannelKey(p, peer, channels[chan])
                queues[key].append(clock[p] + latency_us)
                nbytes = plen * scalar_bytes
                total_messages += 1
                total_bytes += nbytes
                per_channel[key] += 1
                per_channel_bytes[key] += nbytes
                waiter = blocked.pop(key, None)
                if waiter is not None:
                    runnable.append(waiter)
            else:  # KIND_RECV
                key = ChannelKey(peer, p, channels[chan])
                queue = queues.get(key)
                if not queue:
                    blocked[key] = p
                    break
                arrival = queue.popleft()
                if arrival > clock[p]:
                    clock[p] = arrival
                clock[p] += recv_overhead_us
                busy[p] += recv_overhead_us
                comm[p] += recv_overhead_us
            i += 1
        idx[p] = i

    unfinished = [p for p in range(nprocs) if idx[p] < len(per_rank[p])]
    if unfinished:
        raise ModelError(
            f"predicted deadlock: ranks {unfinished} block on receives "
            "no send will satisfy"
        )
    return Prediction(
        nprocs=nprocs,
        makespan_us=max(clock) if clock else 0.0,
        total_messages=total_messages,
        total_bytes=total_bytes,
        per_channel=dict(per_channel),
        per_channel_bytes=dict(per_channel_bytes),
        finish_times_us=clock,
        busy_times_us=busy,
        comm_times_us=comm,
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_predict_cache: dict = perf.register_cache("tune_predict", {})


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
    model and need no values). Results are memoized in the ``tune_predict``
    cache registered with :mod:`repro.perf`.

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

    use_cache = perf.caches_enabled()
    key = None
    if use_cache:
        try:
            key = (
                compiled.program,  # identity-hashed
                nprocs,
                machine,
                tuple(sorted(params.items())),
                tuple(sorted(extra_globals.items())),
                tuple(sorted(inputs.items())),
            )
            cached = _predict_cache.get(key)
        except TypeError:  # unhashable globals/inputs: skip memoization
            key, cached = None, None
        if cached is not None:
            perf.hit("tune_predict")
            return cached
        if key is not None:
            perf.miss("tune_predict")

    with perf.phase("predict"):
        globals_: dict[str, object] = dict(params)
        globals_.update(extra_globals)
        code = Walker.compile(compiled.program)
        entry_proc = compiled.program.entry_proc()
        args = [
            ARRAY if pname in entry_proc.array_params
            else inputs.get(pname, UNKNOWN)
            for pname in entry_proc.params
        ]
        chan_ids: dict[str, int] = {}
        per_rank = [
            Walker(code, rank, nprocs, globals_, chan_ids).run(args)
            for rank in range(nprocs)
        ]
        prediction = _schedule(per_rank, list(chan_ids), nprocs, machine)

    if key is not None:
        _predict_cache[key] = prediction
    return prediction
