"""Clock replay over columnar skeletons.

The replayer turns a :class:`~repro.replay.skeleton.ProgramSkeleton`
into a :class:`~repro.machine.SimResult` **bit-identical** to running
the same program on the compiled backend (identity placement). The
default engine's work splits cleanly into a vectorized part and exact
clock propagation:

Vectorized (numpy array expressions, no simulated-time semantics):

* **cost synthesis** — per-event charges from the iPSC/2 rules in
  :mod:`repro.machine.costs`: ``ops * op_us + mems * mem_us`` for
  compute events (the compiled backend's own flush expression, applied
  elementwise, so the float is identical bit for bit), ``startup +
  per_byte * nbytes`` for sends, the constant consumption overhead for
  receives;
* **FIFO matching** — all sends on a channel key ``(src, dst, channel)``
  originate from one rank in program order and all receives drain it
  from one rank in program order, so the k-th receive matches the k-th
  send *statically*. Group ordinals come from a stable argsort plus a
  cumulative group-start subtraction, and the (key, ordinal) join is a
  ``searchsorted`` — the columnar cumulative-sum formulation of the
  simulator's per-key deques;
* **statistics** — per-channel message/byte totals by grouped reduction
  over the send columns (integers: order never matters).

Exact clock propagation: each rank's virtual clock is a chain of float
additions and cross-rank ``max`` merges in program order. Float
addition is not associative — re-associating the chain into batched
cumulative sums or closed-form ``count * cost`` products changes the
last ulp on non-dyadic costs like the 351.44 µs message send, and the
acceptance bar here is *bit* equality with the compiled backend — so
every propagation engine performs exactly the simulator's operations in
exactly the simulator's order:

    send:  clock += cost;  arrival[i] = clock + latency
    recv:  clock = max(clock, arrival[match]) + recv_overhead

Two engines implement that contract:

* the **vectorized** level-synchronous engine
  (:mod:`repro.replay.vector`, the default) runs over a precomputed
  :class:`~repro.replay.plan.ReplayPlan` (matching, costs, presummed
  totals — built once per (skeleton, machine)) and advances each rank a
  whole run at a time with ``np.add.accumulate`` chains that replicate
  the scalar addition order addition for addition;
* the **scalar oracle** is the reference scheduler
  (:func:`repro.machine.rows.run_rows`) over the skeleton's compact
  rows expanded in plain Python (:func:`repro.machine.rows.expand`) —
  no plan, none of the vectorized matching or reductions above, not
  even the numpy expansion of repeat markers — selected per call
  (``engine="scalar"``) or process-wide with ``REPRO_REPLAY_SCALAR=1``
  (CI runs the whole differential matrix both ways).

The result is schedule-independent because each rank's chain depends
only on its own prefix and matched arrival values.

Deadlock surfaces the *same* forensics as the live engine: the shared
:func:`repro.machine.simulator.deadlock_forensics` builder receives the
blocked ranks' wait keys, every rank's status, and the queued-message
counts.
"""

from __future__ import annotations

from repro.machine.costs import MachineParams
from repro.machine.rows import expand, run_rows
from repro.machine.simulator import SimResult, deadlock_forensics
from repro.machine.stats import ChannelKey, MessageStats
from repro.replay.skeleton import (
    KIND_RECV,
    KIND_SEND,
    ProgramSkeleton,
    _require_numpy,
)

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None


def group_ordinals(keys: "np.ndarray") -> "np.ndarray":
    """Ordinal of each element within its key group, order-preserving.

    ``keys[i] == keys[j], i < j  =>  out[i] < out[j]`` and ordinals
    count 0,1,2,... per distinct key — the positions a FIFO queue would
    assign. Computed with a stable argsort and a group-start
    subtraction (the cumulative-count trick), no Python loop.
    """
    n = keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, n))
    ordinals_sorted = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
    out = np.empty(n, dtype=np.int64)
    out[order] = ordinals_sorted
    return out


def match_messages(
    skeleton: ProgramSkeleton,
) -> tuple[list["np.ndarray"], list["np.ndarray"]]:
    """Statically FIFO-match every receive to its send.

    Returns ``(match_rank, match_idx)``: per-rank int64 arrays, aligned
    with the event columns, holding the sender rank and the sender-side
    event index of the matched send at receive positions (``-1``
    elsewhere, and at receives no send will ever satisfy).
    """
    _require_numpy()
    nprocs = skeleton.nprocs
    nchan = max(1, len(skeleton.channels))

    s_key, s_rank, s_pos = [], [], []
    r_key, r_slice = [], []
    for rank, rs in enumerate(skeleton.ranks):
        sends = np.flatnonzero(rs.kind == KIND_SEND)
        recvs = np.flatnonzero(rs.kind == KIND_RECV)
        if sends.size:
            dst = rs.peer[sends].astype(np.int64)
            key = (rank * nprocs + dst) * nchan + rs.chan[sends]
            s_key.append(key)
            s_rank.append(np.full(sends.size, rank, dtype=np.int64))
            s_pos.append(sends.astype(np.int64))
        if recvs.size:
            src = rs.peer[recvs].astype(np.int64)
            key = (src * nprocs + rank) * nchan + rs.chan[recvs]
            r_key.append(key)
        r_slice.append(recvs)

    match_rank = [
        np.full(len(rs), -1, dtype=np.int64) for rs in skeleton.ranks
    ]
    match_idx = [
        np.full(len(rs), -1, dtype=np.int64) for rs in skeleton.ranks
    ]
    if not r_key or not s_key:
        return match_rank, match_idx

    send_key = np.concatenate(s_key) if s_key else np.empty(0, np.int64)
    send_rank = np.concatenate(s_rank) if s_rank else np.empty(0, np.int64)
    send_pos = np.concatenate(s_pos) if s_pos else np.empty(0, np.int64)
    recv_key = np.concatenate(r_key)

    # (key, ordinal) -> unique code; the ordinal stride only has to
    # exceed the deepest FIFO, for which total event count is a bound.
    stride = max(send_key.size, recv_key.size) + 1
    send_code = send_key * stride + group_ordinals(send_key)
    recv_code = recv_key * stride + group_ordinals(recv_key)

    order = np.argsort(send_code)
    sorted_code = send_code[order]
    pos = np.searchsorted(sorted_code, recv_code)
    safe = np.minimum(pos, max(0, sorted_code.size - 1))
    found = (
        (pos < sorted_code.size) & (sorted_code[safe] == recv_code)
        if sorted_code.size
        else np.zeros(recv_code.size, dtype=bool)
    )
    hit_rank = np.where(found, send_rank[order][safe], -1)
    hit_pos = np.where(found, send_pos[order][safe], -1)

    offset = 0
    for rank, recvs in enumerate(r_slice):
        if recvs.size:
            match_rank[rank][recvs] = hit_rank[offset:offset + recvs.size]
            match_idx[rank][recvs] = hit_pos[offset:offset + recvs.size]
            offset += recvs.size
    return match_rank, match_idx


def _event_costs(skeleton: ProgramSkeleton,
                 machine: MachineParams) -> list["np.ndarray"]:
    """Per-event charge arrays (vectorized iPSC/2 charging rules)."""
    recv_overhead = machine.message_cost_recv()
    costs = []
    for rs in skeleton.ranks:
        # The compiled backend's flush expression, elementwise: integer
        # counters promoted exactly to float64, one multiply each, one
        # add — bit-identical to ``ops * op_us + mems * mem_us``.
        cost = rs.ops * machine.op_us + rs.mems * machine.mem_us
        is_send = rs.kind == KIND_SEND
        if is_send.any():
            nbytes = rs.plen * machine.scalar_bytes
            send_cost = machine.send_startup_us + machine.per_byte_us * nbytes
            cost = np.where(is_send, send_cost, cost)
        is_recv = rs.kind == KIND_RECV
        if is_recv.any():
            cost = np.where(is_recv, recv_overhead, cost)
        costs.append(cost)
    return costs


def _queued_counts(skeleton: ProgramSkeleton,
                   cursor: list[int]) -> dict[ChannelKey, int]:
    """Messages sent but not consumed, per key, given per-rank progress.

    FIFO matching makes this pure integer arithmetic: per key,
    ``sends executed − receives executed`` (a receive only executes
    once its matched send has, so the difference is never negative).
    """
    nchan = max(1, len(skeleton.channels))
    channels = skeleton.channels
    pending: dict[ChannelKey, int] = {}
    for rank, rs in enumerate(skeleton.ranks):
        done = cursor[rank]
        kind = rs.kind[:done]
        for which, sign in ((KIND_SEND, 1), (KIND_RECV, -1)):
            idx = np.flatnonzero(kind == which)
            if not idx.size:
                continue
            other = rs.peer[idx].astype(np.int64)
            codes = other * nchan + rs.chan[idx]
            uniq, counts = np.unique(codes, return_counts=True)
            for code, count in zip(uniq.tolist(), counts.tolist()):
                peer, chan = divmod(code, nchan)
                key = (
                    ChannelKey(rank, peer, channels[chan])
                    if sign > 0
                    else ChannelKey(peer, rank, channels[chan])
                )
                pending[key] = pending.get(key, 0) + sign * count
    return {key: count for key, count in pending.items() if count > 0}


def _message_stats(skeleton: ProgramSkeleton,
                   machine: MachineParams) -> MessageStats:
    """Per-channel message/byte totals by grouped integer reduction."""
    nchan = max(1, len(skeleton.channels))
    channels = skeleton.channels
    stats = MessageStats()
    for rank, rs in enumerate(skeleton.ranks):
        sends = np.flatnonzero(rs.kind == KIND_SEND)
        if not sends.size:
            continue
        dst = rs.peer[sends].astype(np.int64)
        codes = dst * nchan + rs.chan[sends]
        nbytes = rs.plen[sends] * machine.scalar_bytes
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        boundary = np.empty(sorted_codes.size, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.append(starts, sorted_codes.size))
        byte_sums = np.add.reduceat(nbytes[order], starts)
        for code, count, total in zip(
            sorted_codes[starts].tolist(), counts.tolist(), byte_sums.tolist()
        ):
            peer, chan = divmod(code, nchan)
            key = ChannelKey(rank, peer, channels[chan])
            stats.per_channel[key] += count
            stats.per_channel_bytes[key] += total
        stats.total_messages += int(sends.size)
        stats.total_bytes += int(nbytes.sum())
    return stats


def _deadlock(skeleton: ProgramSkeleton, cursor: list[int],
              stuck: list[int], undelivered: dict[ChannelKey, int]):
    """The live engine's DeadlockError for ``stuck`` ranks, each
    blocked on the receive at its cursor."""
    channels = skeleton.channels
    waiting = {}
    for p in stuck:
        i = cursor[p]
        rs = skeleton.ranks[p]
        waiting[p] = ChannelKey(
            int(rs.peer[i]), p, channels[int(rs.chan[i])]
        )
    statuses = {
        p: ("BLOCKED" if p in waiting else "DONE")
        for p in range(skeleton.nprocs)
    }
    return deadlock_forensics(
        waiting, statuses,
        {tuple(key): count for key, count in undelivered.items()},
    )


def _vector_replay(skeleton: ProgramSkeleton, machine: MachineParams):
    """``engine="vector"``: run-at-a-time clocks over the cached plan."""
    from repro.replay.plan import get_plan
    from repro.replay.vector import hybrid_walk

    plan = get_plan(skeleton, machine)
    clock, cursor = hybrid_walk(plan)
    nevents = plan.n
    stuck = [p for p in range(plan.nprocs) if cursor[p] < nevents[p]]
    if stuck:
        raise _deadlock(
            skeleton, cursor, stuck, _queued_counts(skeleton, cursor)
        )
    # Every rank completed, so the undelivered census and the message
    # statistics are functions of (skeleton, machine) alone — memoized
    # on the plan, copied out so callers can't corrupt the memo.
    if plan.undelivered_memo is None:
        plan.undelivered_memo = _queued_counts(skeleton, cursor)
    if plan.stats_memo is None:
        plan.stats_memo = _message_stats(skeleton, machine)
    memo = plan.stats_memo
    stats = MessageStats(
        total_messages=memo.total_messages,
        total_bytes=memo.total_bytes,
    )
    stats.per_channel.update(memo.per_channel)
    stats.per_channel_bytes.update(memo.per_channel_bytes)
    return (clock, list(plan.busy_total), list(plan.comm_total),
            dict(plan.undelivered_memo), stats)


def _scalar_replay(skeleton: ProgramSkeleton, machine: MachineParams):
    """``engine="scalar"``: the reference scheduler over the skeleton's
    *compact* rows, expanded in plain Python (:func:`repro.machine.rows.
    expand`) — no plan, no static matching, no grouped reductions and no
    numpy expansion, so the oracle shares nothing with the numpy code it
    checks."""
    channels = skeleton.channels
    run = run_rows(
        [expand(rows) for rows in skeleton.compact_rows()],
        skeleton.nprocs, machine,
    )
    undelivered = {
        ChannelKey(src, dst, channels[chan]): count
        for (src, dst, chan), count in run.queued.items()
    }
    if run.stuck:
        raise _deadlock(skeleton, run.cursor, run.stuck, undelivered)
    return (run.clock, run.busy, run.comm, undelivered,
            run.stats(channels, machine.scalar_bytes))


def replay(skeleton: ProgramSkeleton,
           machine: MachineParams | None = None,
           engine: str | None = None,
           info: dict | None = None) -> SimResult:
    """Replay a skeleton's clocks; return a compiled-identical result.

    ``engine`` selects the clock scheduler: ``"vector"`` (the
    run-at-a-time level-synchronous engine in :mod:`repro.replay.
    vector`), ``"scalar"`` (the per-event reference scheduler
    :func:`repro.machine.rows.run_rows`, the differential oracle), or
    ``None`` — vector unless the ``REPRO_REPLAY_SCALAR=1`` environment
    variable forces the oracle. Both engines produce bit-identical
    results; ``info`` (an optional dict) receives ``{"engine": ...,
    "reason": ...}`` describing what actually ran.

    Raises :class:`~repro.errors.DeadlockError` with the live engine's
    forensics when every unfinished rank blocks on a receive.
    Messages left queued at completion are counted in ``undelivered``.
    ``returned`` is ``[None] * nprocs``: replay advances clocks, it
    never computes data values.
    """
    import os

    _require_numpy()
    machine = machine or MachineParams.ipsc2()
    nprocs = skeleton.nprocs

    reason = None
    if engine is None:
        if os.environ.get("REPRO_REPLAY_SCALAR", "") not in ("", "0"):
            engine, reason = "scalar", "REPRO_REPLAY_SCALAR=1"
        else:
            engine = "vector"
    if engine == "vector":
        run_engine = _vector_replay
    elif engine == "scalar":
        run_engine = _scalar_replay
    else:
        raise ValueError(f"unknown replay engine {engine!r}")
    if info is not None:
        info["engine"] = engine
        info["reason"] = reason
    clock, busy, comm, undelivered, stats = run_engine(skeleton, machine)
    return SimResult(
        nprocs=nprocs,
        finish_times_us=clock,
        busy_times_us=busy,
        returned=[None] * nprocs,
        stats=stats,
        trace=[],
        cpu_finish_us=list(clock),
        cpu_busy_us=list(busy),
        comm_times_us=comm,
        undelivered=undelivered,
        traced=False,
    )
