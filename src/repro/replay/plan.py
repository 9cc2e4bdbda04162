"""Precomputed replay plan: the skeleton, segmented and presummed.

The vectorized engine builds a :class:`ReplayPlan` — FIFO matching,
per-event costs, receive side tables — once per (skeleton, machine) and
caches it on the skeleton object itself, so a warm replay is nothing
but the clock propagation loop. (The scalar oracle takes no plan: it
must not share the matching it checks.)

The plan is where compute runs get coalesced: per-rank event costs are
synthesized once (`repro.replay.engine._event_costs`), and the whole-
rank ``busy``/``comm`` totals are presummed with
``np.add.accumulate`` — a strictly left-to-right float64 accumulation,
so the totals are bit-identical to a per-event loop's incremental
``b += cost`` / ``cm += cost`` chains (which are pure sequential
additions from 0.0 regardless of where the rank blocked). The engine's
per-run prefix sums reuse the same primitive: a run's clock row is
``[c0, cost, cost, ...]`` accumulated in place, which reproduces the
scalar chain ``((c0 + c1) + c2) + ...`` addition for addition.

Receive metadata is gathered into dense per-rank side tables
(positions, matched source, matched send index, matched send *global
flat* index) so the engine can test the satisfiability of a whole
receive tail with one gather+compare and fetch arrival values for a
whole run with one fancy index into the global arrivals array.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import perf
from repro.machine.costs import MachineParams
from repro.replay.skeleton import KIND_RECV, KIND_SEND, ProgramSkeleton

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None

#: Satisfaction sentinel for receives no send will ever match: larger
#: than any possible cursor, so ``cursor > _NEVER`` is always False.
_NEVER = 1 << 62


@dataclass
class ReplayPlan:
    """Everything the clock-propagation loop needs, prebuilt.

    Per-rank parallel structures (index ``p`` throughout):

    ``costs``/``kind``
        float64 cost and int8 kind columns (cost synthesis applied).
    ``mflat``
        int64 global flat index of the matched send per event (``-1``
        off receive positions) — one fancy index into the shared
        arrivals array resolves a whole run's receives.
    ``r_pos``/``r_src``/``r_mflat``
        dense receive tables: event position, matched sender rank,
        matched send global flat index (``off[src] + midx``; ``-1``
        when no send matches).
    ``s_pos``
        int64 send event positions per rank — a ``searchsorted`` pair
        bounds the sends inside any window, replacing a per-run
        ``flatnonzero`` scan over the kind column.
    ``off``
        int64 global flat offset of each rank's column — the indexing
        scheme of the shared arrivals array.
    ``busy_total``/``comm_total``
        whole-rank presummed totals, bit-identical to the scalar
        walk's incremental chains.
    """

    nprocs: int
    machine: MachineParams
    n: list[int]
    costs: list
    kind: list
    mflat: list
    match_rank: list
    match_idx: list
    r_pos: list
    r_src: list
    r_mflat: list
    r_gate: list
    s_pos: list
    off: "np.ndarray"
    total_events: int
    busy_total: list[float]
    comm_total: list[float]
    # Lazy per-plan memos, filled by the engine on first use: message
    # statistics and the completed-run undelivered census are functions
    # of (skeleton, machine) alone, not of any particular replay call.
    stats_memo: object = None
    undelivered_memo: dict | None = None


def build_plan(skeleton: ProgramSkeleton,
               machine: MachineParams) -> ReplayPlan:
    """Build (never cached here — see :func:`get_plan`)."""
    from repro.replay.engine import _event_costs, match_messages

    match_rank, match_idx = match_messages(skeleton)
    costs = _event_costs(skeleton, machine)

    n = [len(rs) for rs in skeleton.ranks]
    off = np.zeros(skeleton.nprocs + 1, dtype=np.int64)
    off[1:] = np.cumsum(np.asarray(n, dtype=np.int64))

    kind = [rs.kind for rs in skeleton.ranks]
    s_pos = [
        np.flatnonzero(rs.kind == KIND_SEND).astype(np.int64)
        for rs in skeleton.ranks
    ]
    r_pos, r_src, r_mflat, r_gate = [], [], [], []
    mflat_all = []
    busy_total, comm_total = [], []
    for p, rs in enumerate(skeleton.ranks):
        recvs = np.flatnonzero(rs.kind == KIND_RECV)
        mr = match_rank[p][recvs]
        mi = match_idx[p][recvs]
        ok = mi >= 0
        mflat = np.where(
            match_idx[p] >= 0,
            off[np.maximum(match_rank[p], 0)] + match_idx[p],
            -1,
        )
        mflat_all.append(mflat)
        r_pos.append(recvs.astype(np.int64))
        r_src.append(np.maximum(mr, 0))  # clipped; ``ok`` masks the -1s
        r_mflat.append(mflat[recvs])
        # Satisfaction gate: receive r is runnable iff
        # cursor[r_src[r]] > r_gate[r]. Unmatchable receives get a
        # sentinel no cursor can exceed, so one gather+compare decides
        # the whole tail — no separate validity mask.
        r_gate.append(np.where(ok, mi, _NEVER))

        cost = costs[p]
        if cost.size:
            acc = np.add.accumulate(cost)
            busy_total.append(float(acc[-1]))
            comm = cost[rs.kind != 0]
            comm_total.append(
                float(np.add.accumulate(comm)[-1]) if comm.size else 0.0
            )
        else:
            busy_total.append(0.0)
            comm_total.append(0.0)

    return ReplayPlan(
        nprocs=skeleton.nprocs,
        machine=machine,
        n=n,
        costs=costs,
        kind=kind,
        mflat=mflat_all,
        match_rank=match_rank,
        match_idx=match_idx,
        r_pos=r_pos,
        r_src=r_src,
        r_mflat=r_mflat,
        r_gate=r_gate,
        s_pos=s_pos,
        off=off,
        total_events=int(off[-1]),
        busy_total=busy_total,
        comm_total=comm_total,
    )


def get_plan(skeleton: ProgramSkeleton,
             machine: MachineParams) -> ReplayPlan:
    """The cached plan for (skeleton, machine).

    Plans hang off the skeleton object itself (``_replay_plans``), so
    their lifetime exactly tracks the skeleton's — when the skeleton
    cache drops an entry, its plans go with it, and there is no id-keyed
    registry to go stale.
    """
    plans = getattr(skeleton, "_replay_plans", None)
    if plans is None:
        plans = {}
        object.__setattr__(skeleton, "_replay_plans", plans)
    plan = plans.get(machine)
    if plan is None:
        perf.miss("replay_plan")
        with perf.phase("replay_plan"):
            plan = build_plan(skeleton, machine)
        plans[machine] = plan
    else:
        perf.hit("replay_plan")
    return plan
