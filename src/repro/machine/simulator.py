"""The discrete-event engine.

Scheduling: processes run until they block on an empty receive queue or
finish. Because message matching is FIFO per (src, dst, channel) and each
process is sequential, the *values* received are independent of the
scheduling order; only the virtual clocks encode timing. A receive
completes at

    max(receiver clock at the call, arrival time) + recv overhead

where the arrival time is the sender's clock when the send completed plus
the uniform network latency. This makes the simulation deterministic and
the timing faithful to the paper's machine model (§2.2): local work and
message start-up dominate, distance does not exist.

Deadlock (every unfinished process blocked on a receive) raises
:class:`DeadlockError` listing who waits on what — the condition generated
code must never reach.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from enum import Enum, auto

from repro.errors import DeadlockError, NodeRuntimeError, SimulationError
from repro.machine.costs import MachineParams
from repro.machine.process import Compute, Recv, Send
from repro.machine.stats import ChannelKey, MessageStats

ProcessFactory = Callable[[int], Generator]


class _Status(Enum):
    READY = auto()
    BLOCKED = auto()
    DONE = auto()
    FAILED = auto()


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured simulation event (``trace=True`` runs only).

    The same record is produced regardless of execution backend — the
    engine, not the node program, emits events — so the ``interp`` and
    ``compiled`` backends yield bit-identical traces for the same
    program. All times are simulated microseconds.

    Field meaning by ``kind``:

    ``"send"``
        ``time_us`` is the send *completion* time on the sender's clock;
        ``overhead_us`` the sender-side cost (start-up + bandwidth, or
        the memory-copy cost for a co-located destination);
        ``arrival_us`` when the message becomes receivable at ``dst``.
    ``"recv"``
        ``time_us`` is the receive completion; ``arrival_us`` when the
        consumed message arrived; ``wait_us`` how long the receiver's
        clock sat idle waiting for it (0 when it was already there);
        ``queue_us`` how long the message sat queued past its arrival;
        ``overhead_us`` the receiver-side consumption cost.
    ``"done"``
        ``time_us`` is the process's finish time; channel fields unused.
    """

    time_us: float
    proc: int
    kind: str  # "send" | "recv" | "done"
    cpu: int = 0
    src: int = -1
    dst: int = -1
    channel: str = ""
    plen: int = 0
    nbytes: int = 0
    arrival_us: float = 0.0
    wait_us: float = 0.0
    queue_us: float = 0.0
    overhead_us: float = 0.0
    local: bool = False


@dataclass
class SimResult:
    """Everything a simulation run produced.

    With a non-identity placement (several processes per physical
    processor, §5.3), ``finish_times_us``/``busy_times_us`` are indexed by
    *process* while ``cpu_finish_us``/``cpu_busy_us`` are indexed by
    physical processor.
    """

    nprocs: int
    finish_times_us: list[float]
    busy_times_us: list[float]
    returned: list[object]
    stats: MessageStats
    trace: list[TraceEvent] = field(default_factory=list)
    cpu_finish_us: list[float] = field(default_factory=list)
    cpu_busy_us: list[float] = field(default_factory=list)
    comm_times_us: list[float] = field(default_factory=list)
    """Per-process communication overhead (send costs + recv overheads),
    a subset of ``busy_times_us``; busy minus comm is pure compute."""
    undelivered: dict[ChannelKey, int] = field(default_factory=dict)
    """Messages still queued when the run completed — generated code must
    consume every message, so a non-empty dict means a codegen bug."""
    traced: bool = False
    """Whether the run recorded events (distinguishes an untraced run
    from a traced run of a program that never communicated)."""

    @property
    def makespan_us(self) -> float:
        """Total simulated execution time (the slowest processor)."""
        if self.cpu_finish_us:
            return max(self.cpu_finish_us)
        return max(self.finish_times_us) if self.finish_times_us else 0.0

    @property
    def total_messages(self) -> int:
        return self.stats.total_messages

    @property
    def undelivered_count(self) -> int:
        return sum(self.undelivered.values())


class _Proc:
    __slots__ = (
        "rank",
        "gen",
        "cpu",
        "busy",
        "comm",
        "finish",
        "status",
        "waiting_on",
        "returned",
        "resume_value",
        "pending_effect",
        "deferred",
        "steps",
    )

    def __init__(self, rank: int, gen: Generator, cpu: int):
        self.rank = rank
        self.gen = gen
        self.cpu = cpu
        self.busy = 0.0
        self.comm = 0.0
        self.finish = 0.0
        self.status = _Status.READY
        self.waiting_on: ChannelKey | None = None
        self.returned: object = None
        self.resume_value: object = None
        self.pending_effect: Recv | None = None
        self.deferred = False
        self.steps = 0


class Simulator:
    """Run ``nprocs`` generator processes under a cost model."""

    def __init__(
        self,
        nprocs: int,
        params: MachineParams | None = None,
        trace: bool = False,
        max_steps: int = 50_000_000,
        strict: bool = False,
    ):
        if nprocs < 1:
            raise SimulationError(f"need at least one processor, got {nprocs}")
        self.nprocs = nprocs
        self.params = params or MachineParams.ipsc2()
        self.trace_enabled = trace
        self.max_steps = max_steps
        self.strict = strict

    def run(
        self, factory: ProcessFactory, placement: list[int] | None = None
    ) -> SimResult:
        """Instantiate one process per rank via ``factory`` and run it.

        ``placement`` maps each process to a physical processor (default:
        one process per processor, the paper's base model §2.2). Processes
        sharing a processor share its clock — when one blocks on a
        receive, a co-located process keeps the processor busy (the
        latency-hiding of §5.4) — and messages between co-located
        processes skip the network (start-up-free local delivery).
        """
        if placement is None:
            placement = list(range(self.nprocs))
        if len(placement) != self.nprocs:
            raise SimulationError(
                f"placement has {len(placement)} entries for {self.nprocs} "
                "processes"
            )
        ncpus = max(placement) + 1 if placement else 1
        if any(not 0 <= cpu < ncpus for cpu in placement):
            raise SimulationError(f"bad placement {placement}")
        cpu_clock = self._cpu_clock = [0.0] * ncpus
        cpu_busy = self._cpu_busy = [0.0] * ncpus
        procs = [
            _Proc(rank, factory(rank), placement[rank])
            for rank in range(self.nprocs)
        ]
        self._placement = placement
        # READY processes per CPU, maintained on every status transition
        # so the §5.4 deferral test is O(1) instead of a scan over all
        # processes on every receive.
        ready_count = [0] * ncpus
        for cpu in placement:
            ready_count[cpu] += 1
        self._ready_count = ready_count
        # (src, dst, channel) -> deque of (arrival_time, payload)
        queues: dict[ChannelKey, deque] = defaultdict(deque)
        blocked_on: dict[ChannelKey, list[_Proc]] = defaultdict(list)
        stats = MessageStats()
        trace: list[TraceEvent] = []
        steps = 0
        send_cost: dict[int, float] = {}  # payload length -> sender cost

        ready = deque(procs)
        try:
            self._run_loop(
                procs, ready, queues, blocked_on, stats, trace, steps,
                cpu_clock, cpu_busy, ready_count, placement, send_cost,
            )
        finally:
            # Whatever ends the run — completion, a NodeRuntimeError on
            # one rank, deadlock — close the other ranks' generator
            # frames so their finally blocks and resource cleanup run
            # instead of leaking ResourceWarnings at GC time.
            for p in procs:
                if p.status is _Status.READY or p.status is _Status.BLOCKED:
                    try:
                        p.gen.close()
                    except Exception:
                        pass

        undelivered = {key: len(q) for key, q in queues.items() if q}
        if undelivered and self.strict:
            leaked = ", ".join(
                f"{key.src}->{key.dst} {key.channel!r} x{count}"
                for key, count in sorted(undelivered.items())
            )
            raise SimulationError(
                f"{sum(undelivered.values())} undelivered message(s) at "
                f"completion (strict mode): {leaked}"
            )

        return SimResult(
            nprocs=self.nprocs,
            finish_times_us=[p.finish for p in procs],
            busy_times_us=[p.busy for p in procs],
            returned=[p.returned for p in procs],
            stats=stats,
            trace=trace,
            cpu_finish_us=list(self._cpu_clock),
            cpu_busy_us=list(self._cpu_busy),
            comm_times_us=[p.comm for p in procs],
            undelivered=undelivered,
            traced=self.trace_enabled,
        )

    def _run_loop(
        self, procs, ready, queues, blocked_on, stats, trace, steps,
        cpu_clock, cpu_busy, ready_count, placement, send_cost,
    ):
        # Loop invariants, hoisted: the effect dispatch below runs once
        # per yielded effect and dominates simulation wall-clock.
        nprocs = self.nprocs
        max_steps = self.max_steps
        trace_enabled = self.trace_enabled
        params = self.params
        mem_us = params.mem_us
        latency_us = params.latency_us
        recv_overhead_us = params.message_cost_recv()
        scalar_bytes = params.scalar_bytes

        while ready:
            proc = ready.popleft()
            if proc.status is not _Status.READY:
                continue
            burst = steps
            while proc.status is _Status.READY:
                steps += 1
                if steps > max_steps:
                    proc.steps += steps - burst
                    hottest = max(procs, key=lambda p: p.steps)
                    raise SimulationError(
                        f"simulation exceeded {self.max_steps} steps "
                        "(livelock or runaway program?); hottest process: "
                        f"rank {hottest.rank} with {hottest.steps} steps"
                    )
                try:
                    if proc.pending_effect is not None:
                        effect = proc.pending_effect
                        proc.pending_effect = None
                    elif proc.resume_value is not None:
                        value, proc.resume_value = proc.resume_value, None
                        effect = proc.gen.send(value)
                    else:
                        effect = next(proc.gen)
                except StopIteration as stop:
                    proc.status = _Status.DONE
                    ready_count[proc.cpu] -= 1
                    proc.returned = stop.value
                    proc.finish = cpu_clock[proc.cpu]
                    if trace_enabled:
                        trace.append(
                            TraceEvent(
                                proc.finish, proc.rank, "done", cpu=proc.cpu
                            )
                        )
                    break
                except (DeadlockError, SimulationError):
                    raise
                except Exception as err:
                    proc.status = _Status.FAILED
                    raise NodeRuntimeError(str(err), proc=proc.rank) from err

                cls = type(effect)
                if cls is not Compute and cls is not Send and cls is not Recv:
                    # Subclassed effects are legal but rare; normalise so
                    # the hot dispatch below is pure identity checks.
                    if isinstance(effect, Compute):
                        cls = Compute
                    elif isinstance(effect, Send):
                        cls = Send
                    elif isinstance(effect, Recv):
                        cls = Recv
                if cls is Compute:
                    cost = effect.cost_us
                    cpu = proc.cpu
                    cpu_clock[cpu] += cost
                    cpu_busy[cpu] += cost
                    proc.busy += cost
                    proc.finish = cpu_clock[cpu]
                elif cls is Send:
                    dst = effect.dst
                    if not 0 <= dst < nprocs:
                        raise NodeRuntimeError(
                            f"send to invalid processor {dst}", proc=proc.rank
                        )
                    if dst == proc.rank:
                        raise NodeRuntimeError(
                            f"self-send on channel {effect.channel!r} "
                            "(a local access must not become a message)",
                            proc=proc.rank,
                        )
                    payload = effect.payload
                    plen = len(payload)
                    cpu = proc.cpu
                    local = placement[dst] == cpu
                    if local:
                        # Co-located processes exchange data through
                        # memory: only a copy cost, no message start-up
                        # and no network latency.
                        cost = mem_us * plen
                        arrival_delay = 0.0
                    else:
                        cost = send_cost.get(plen)
                        if cost is None:
                            cost = send_cost[plen] = params.message_cost_send(
                                plen * scalar_bytes
                            )
                        arrival_delay = latency_us
                    clock = cpu_clock[cpu] + cost
                    cpu_clock[cpu] = clock
                    cpu_busy[cpu] += cost
                    proc.busy += cost
                    proc.comm += cost
                    proc.finish = clock
                    key = ChannelKey(proc.rank, dst, effect.channel)
                    arrival = clock + arrival_delay
                    queues[key].append((arrival, payload))
                    if not local:
                        # Local deliveries are memory copies, not network
                        # messages.
                        stats.record(key, plen * scalar_bytes)
                    if trace_enabled:
                        trace.append(
                            TraceEvent(
                                clock,
                                proc.rank,
                                "send",
                                cpu=cpu,
                                src=proc.rank,
                                dst=dst,
                                channel=effect.channel,
                                plen=plen,
                                nbytes=plen * scalar_bytes,
                                arrival_us=arrival,
                                overhead_us=cost,
                                local=local,
                            )
                        )
                    waiters = blocked_on.get(key)
                    if waiters:
                        # Wake the waiter; it re-issues its receive from
                        # the main loop (which may then defer in favour
                        # of co-located ready work).
                        waiter = waiters.pop(0)
                        waiter.status = _Status.READY
                        ready_count[waiter.cpu] += 1
                        waiter.waiting_on = None
                        waiter.pending_effect = Recv(key.src, key.channel)
                        ready.append(waiter)
                elif cls is Recv:
                    src = effect.src
                    if not 0 <= src < nprocs:
                        raise NodeRuntimeError(
                            f"recv from invalid processor {src}",
                            proc=proc.rank,
                        )
                    if src == proc.rank:
                        raise NodeRuntimeError(
                            f"self-receive on channel {effect.channel!r}",
                            proc=proc.rank,
                        )
                    key = ChannelKey(src, proc.rank, effect.channel)
                    queue = queues.get(key)
                    cpu = proc.cpu
                    if not queue:
                        proc.deferred = False
                        proc.status = _Status.BLOCKED
                        ready_count[cpu] -= 1
                        proc.waiting_on = key
                        blocked_on[key].append(proc)
                    else:
                        arrival_time = queue[0][0]
                        if (
                            arrival_time > cpu_clock[cpu]
                            and not proc.deferred
                            # The receiver itself is READY, so a
                            # co-located ready process exists exactly
                            # when this CPU's ready count exceeds one.
                            and ready_count[cpu] > 1
                        ):
                            # Let a co-located ready process use the idle
                            # time before this receive's arrival (§5.4's
                            # latency hiding); re-attempt the receive
                            # afterwards.
                            proc.deferred = True
                            proc.pending_effect = effect
                            ready.append(proc)
                            break
                        arrival_time, payload = queue.popleft()
                        proc.deferred = False
                        local = placement[src] == cpu
                        overhead = (
                            mem_us * len(payload)
                            if local
                            else recv_overhead_us
                        )
                        before = cpu_clock[cpu]
                        clock = before
                        if arrival_time > clock:
                            clock = arrival_time
                        clock += overhead
                        cpu_clock[cpu] = clock
                        cpu_busy[cpu] += overhead
                        proc.busy += overhead
                        proc.comm += overhead
                        proc.finish = clock
                        proc.waiting_on = None
                        proc.resume_value = payload
                        if trace_enabled:
                            plen = len(payload)
                            trace.append(
                                TraceEvent(
                                    clock,
                                    proc.rank,
                                    "recv",
                                    cpu=cpu,
                                    src=src,
                                    dst=proc.rank,
                                    channel=key.channel,
                                    plen=plen,
                                    nbytes=plen * scalar_bytes,
                                    arrival_us=arrival_time,
                                    wait_us=max(0.0, arrival_time - before),
                                    queue_us=max(0.0, before - arrival_time),
                                    overhead_us=overhead,
                                    local=local,
                                )
                            )
                else:
                    raise SimulationError(
                        f"process {proc.rank} yielded unknown effect {effect!r}"
                    )

            proc.steps += steps - burst

            if not ready:
                blocked = [p for p in procs if p.status is _Status.BLOCKED]
                if blocked:
                    raise _deadlock_error(procs, blocked, queues)


def _deadlock_error(
    procs: list[_Proc],
    blocked: list[_Proc],
    queues: dict[ChannelKey, deque],
) -> DeadlockError:
    """Collect the live engine's state and build the forensics error."""
    waiting = {p.rank: p.waiting_on for p in blocked}
    statuses = {p.rank: p.status.name for p in procs}
    undelivered = {tuple(k): len(q) for k, q in queues.items() if q}
    return deadlock_forensics(waiting, statuses, undelivered)


def deadlock_forensics(
    waiting: dict[int, ChannelKey],
    statuses: dict[int, str],
    undelivered: dict[tuple, int],
) -> DeadlockError:
    """Build a DeadlockError carrying the full wait-for graph.

    For every blocked rank: the (src, dst, channel) key it is receiving
    on, the status of the process it waits for, and — if that sender is
    itself blocked — what *it* waits on. Messages sitting undelivered in
    queues are listed too: a deadlock with queued traffic usually means
    mismatched channel names rather than a missing send.

    Shared by the live engine and the replay backend so both surface
    byte-identical diagnostics for the same stuck configuration.
    ``waiting`` maps each blocked rank to the :class:`ChannelKey` it is
    receiving on; ``statuses`` maps every rank to its status name.
    """
    wait_for: dict[int, dict] = {}
    for rank, key in waiting.items():
        entry: dict = {"key": tuple(key)}
        status = statuses.get(key.src)
        if status is not None:
            entry["sender_status"] = status
            sender_key = waiting.get(key.src)
            entry["sender_waiting_on"] = (
                tuple(sender_key) if sender_key is not None else None
            )
        wait_for[rank] = entry
    lines = ["all live processes are blocked on receives"]
    for rank in sorted(wait_for):
        entry = wait_for[rank]
        src, _, channel = entry["key"]
        status = entry.get("sender_status", "?")
        suffix = ""
        if entry.get("sender_waiting_on") is not None:
            s_src, _, s_channel = entry["sender_waiting_on"]
            suffix = f", itself waiting on {s_src} {s_channel!r}"
        lines.append(
            f"  rank {rank} waits on {src} {channel!r} "
            f"(sender {status}{suffix})"
        )
    if undelivered:
        queued = ", ".join(
            f"{src}->{dst} {channel!r} x{count}"
            for (src, dst, channel), count in sorted(undelivered.items())
        )
        lines.append(f"  undelivered in queues: {queued}")
    return DeadlockError(
        "\n".join(lines),
        blocked={rank: str(key) for rank, key in waiting.items()},
        wait_for=wait_for,
        undelivered=undelivered,
    )
