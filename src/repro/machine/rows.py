"""The reference clock scheduler over walker rows.

An abstract walk (:mod:`repro.spmd.walk`) records each rank's program as
a list of rows

    (kind, peer, chan, plen, ops, mems)

— a compute burst of ``ops``/``mems`` integer counters, a send of
``plen`` scalars to ``peer``, or a receive from ``peer``, on channel
``chan`` (any hashable: an interned id or the channel name). A
:class:`~repro.spmd.walk.Walker` writes a replicated loop as one more
kind of row, the **repeat marker**

    (KIND_REPEAT, -1, -1, 0, span, count)

— "the ``span`` rows just before me occur ``count`` more times" — and
markers are flat: no marker sits inside another's span, so a stream is
literal rows and repeats of literal rows, never repeats of repeats.
:func:`expand` is the meaning of the marker, in list slicing and
multiplication; :func:`run_rows` steps through it instead, jumping back
over the span, and clocks the rows under the paper's machine model
(§2.2) with exactly the live :class:`~repro.machine.simulator.Simulator`'s
float operations in the simulator's order (identity placement):

    compute:  clock += ops * op_us + mems * mem_us
    send:     clock += startup + per_byte * nbytes;  arrival = clock + latency
    recv:     clock = max(clock, arrival) + recv_overhead

with messages matched FIFO per ``(src, dst, chan)``. Float addition is
not associative, so "the same operations in the same order" is what
makes the result bit-identical to a compiled run; the schedule itself
(which runnable rank goes next) cannot matter, because a rank's chain
depends only on its own prefix and on matched arrival values.

This is the one per-event scheduler outside the simulator (which also
moves values, places processes and traces) and :mod:`repro.replay.vector`
(which is fast): the ``compiled`` backend, the replay oracle and
:func:`repro.analysis.clock_ranks` (the tuner's prediction and the
verifier's deadlock pass) all read its result.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import NamedTuple

from repro.machine.costs import MachineParams
from repro.machine.stats import ChannelKey, MessageStats

#: Row kinds: column 0 of ``(kind, peer, chan, plen, ops, mems)``.
KIND_COMPUTE = 0
KIND_SEND = 1
KIND_RECV = 2
#: ``(KIND_REPEAT, -1, -1, 0, span, count)``: see :func:`expand`.
KIND_REPEAT = 3


def expand(rows) -> list[tuple]:
    """``rows`` with every repeat marker replaced by what it stands for:
    ``count`` more copies of the ``span`` rows before it. The reference
    meaning of the marker — :mod:`repro.replay.skeleton` expands the
    same streams in numpy and is checked against this."""
    out: list[tuple] = []
    for row in rows:
        if row[0] == KIND_REPEAT:
            out += out[-row[4]:] * row[5]
        else:
            out.append(row)
    return out


class RowsRun(NamedTuple):
    """Where :func:`run_rows` left every rank and every channel.

    ``clock``/``busy``/``comm`` are per-rank simulated microseconds
    (``comm`` ⊆ ``busy``, as in :class:`~repro.machine.SimResult`) and
    ``cursor`` the per-rank index of the row each rank stopped at (in a
    marker's span if it blocked mid-repeat). ``stuck`` lists the ranks
    whose cursor stopped short — each on a receive row no send will
    satisfy. ``messages``/``scalars`` count what was sent and
    ``queued`` what was sent but never received, per ``(src, dst,
    chan)`` with ``chan`` as the rows spelled it.
    """

    clock: list[float]
    busy: list[float]
    comm: list[float]
    cursor: list[int]
    stuck: list[int]
    messages: dict[tuple, int]
    scalars: dict[tuple, int]
    queued: dict[tuple, int]

    def stats(self, channels, scalar_bytes: int) -> MessageStats:
        """Message statistics, ``channels[chan]`` naming each channel."""
        stats = MessageStats()
        for (src, dst, chan), count in self.messages.items():
            key = ChannelKey(src, dst, channels[chan])
            nbytes = self.scalars[src, dst, chan] * scalar_bytes
            stats.per_channel[key] = count
            stats.per_channel_bytes[key] = nbytes
            stats.total_messages += count
            stats.total_bytes += nbytes
        return stats


def run_rows(per_rank_rows, nprocs: int, params: MachineParams) -> RowsRun:
    """Clock ``per_rank_rows[rank]`` for every rank until none can move.

    Never raises on a stuck rank: deadlock, like leftover messages, is
    the caller's to interpret (``stuck``, ``queued``).
    """
    clock = [0.0] * nprocs
    busy = [0.0] * nprocs
    comm = [0.0] * nprocs
    cursor = [0] * nprocs
    pending = [0] * nprocs  # 1 + jumps left at the current marker
    queues: dict[tuple, deque] = defaultdict(deque)  # key -> arrival times
    blocked: dict[tuple, int] = {}  # key -> the (unique) waiting rank
    messages: dict[tuple, int] = defaultdict(int)
    scalars: dict[tuple, int] = defaultdict(int)
    send_cost: dict[int, float] = {}  # payload length -> sender cost
    op_us = params.op_us
    mem_us = params.mem_us
    latency_us = params.latency_us
    recv_overhead_us = params.message_cost_recv()
    scalar_bytes = params.scalar_bytes

    # The loop runs once per row of every consumer: clocks stay in
    # locals, keys are plain tuples and dict hits are subscripts.
    runnable = deque(range(nprocs))
    while runnable:
        p = runnable.popleft()
        rows = per_rank_rows[p]
        n = len(rows)
        i = cursor[p]
        left = pending[p]
        c = clock[p]
        b = busy[p]
        cm = comm[p]
        while i < n:
            kind, peer, chan, plen, ops, mems = rows[i]
            if kind == KIND_COMPUTE:
                cost = ops * op_us + mems * mem_us
                c += cost
                b += cost
            elif kind == KIND_SEND:
                try:
                    cost = send_cost[plen]
                except KeyError:
                    cost = send_cost[plen] = params.message_cost_send(
                        plen * scalar_bytes
                    )
                c += cost
                b += cost
                cm += cost
                key = (p, peer, chan)
                queues[key].append(c + latency_us)
                messages[key] += 1
                scalars[key] += plen
                if key in blocked:
                    runnable.append(blocked.pop(key))
            elif kind == KIND_RECV:
                key = (peer, p, chan)
                queue = queues[key]
                if not queue:
                    blocked[key] = p
                    break
                arrival = queue.popleft()
                if arrival > c:
                    c = arrival
                c += recv_overhead_us
                b += recv_overhead_us
                cm += recv_overhead_us
            else:  # KIND_REPEAT: the ``ops`` rows before, ``mems`` more times
                if not left:
                    left = mems + 1
                left -= 1
                if left:
                    i -= ops
                    continue
            i += 1
        cursor[p] = i
        pending[p] = left
        clock[p] = c
        busy[p] = b
        comm[p] = cm

    return RowsRun(
        clock, busy, comm, cursor,
        stuck=[
            p for p in range(nprocs) if cursor[p] < len(per_rank_rows[p])
        ],
        messages=dict(messages),
        scalars=dict(scalars),
        queued={key: len(queue) for key, queue in queues.items() if queue},
    )
