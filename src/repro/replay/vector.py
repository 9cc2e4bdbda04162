"""Level-synchronous vectorized clock propagation.

The reference scheduler (:func:`repro.machine.rows.run_rows`) touches
every event in a Python loop. This engine keeps its runnable-queue
*discipline* — pop a rank, advance it until it blocks on an unexecuted
send, wake whoever was waiting on the sends it published — but advances
each rank a whole **run** at a time: the maximal prefix of its remaining
events whose receives are all already satisfiable. The inner Python loop
executes once per run (O(communication levels) activations — measured
~1.1k runs for the 1M-event N=512/S=128 wavefront, against 1M scalar
iterations), and each long run is replayed with array expressions.

Bit-identity with the reference scheduler is the hard constraint, and
float addition is not associative, so the vector path is built
exclusively from primitives that perform *the same additions in the same
order*:

``no-fire fast path``
    If no receive in the run has ``arrival > clock`` (the backlogged
    pipeline case — the ``max`` merge never fires), the whole run is
    one ``np.add.accumulate`` over ``[c0, cost, cost, ...]`` — a
    strictly sequential left-to-right chain, addition for addition the
    scalar loop's ``c += cost``.

``epoch path``
    Where the ``max`` does fire, the scalar chain *restarts*: ``c``
    is assigned the arrival value and history is irrelevant. Every
    fired receive therefore starts an independent **epoch**, and all
    epochs replay concurrently: stepped one event at a time while short
    ones are still finishing (ragged runs are thousands of 1-event
    epochs next to a 1000-event drain segment), then one 1-D accumulate
    per straggler. Which receives fire is first *guessed* in
    re-associated arithmetic (an exact-algebra ``max``-plus prefix:
    ``D = arrival − prefix``, fire iff ``D`` exceeds the running max of
    ``max(D, 0)``), then **verified** against the exact epoch values. A
    wrong guess —
    possible only when arrival and clock agree to within the guess's
    re-association error, i.e. an exact tie — is detected exactly; the
    run *commits* its exact prefix and restarts a fresh window at the
    tie, whose exact clock makes the next guess of that receive exact.
    Counters record how often each path ran (``replay.vector.*``).

Runs shorter than :data:`VEC_MIN` events aren't worth fixed numpy call
overhead and take the scalar sub-path directly. Every fallback is
per-run and exact — the engine never abstains wholesale.
"""

from __future__ import annotations

from collections import deque

from repro import perf
from repro.replay.plan import ReplayPlan

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None

#: Runs shorter than this take the scalar sub-path (numpy setup costs
#: more than walking a handful of events in Python).
VEC_MIN = 96


def hybrid_walk(plan: ReplayPlan) -> tuple[list[float], list[int]]:
    """Propagate clocks; returns (final clock, final cursor) per rank.

    Deadlock is *not* raised here — the caller inspects cursors (a rank
    short of its event count is blocked) and builds forensics, shared
    with the scalar engine.
    """
    nprocs = plan.nprocs
    latency = plan.machine.latency_us
    n = plan.n
    r_pos_l = plan.r_pos
    r_src_l = plan.r_src
    r_gate_l = plan.r_gate
    match_rank_l = plan.match_rank
    match_idx_l = plan.match_idx

    clock = [0.0] * nprocs
    cursor = [0] * nprocs
    cursor_np = np.zeros(nprocs, dtype=np.int64)
    r_ptr = [0] * nprocs
    arrivals = np.zeros(plan.total_events, dtype=np.float64)
    # Ranks blocked on a src's future send: watchers[src] = [(midx, rank)].
    watchers: list[list[tuple[int, int]]] = [[] for _ in range(nprocs)]

    runnable = deque(range(nprocs))
    while runnable:
        p = runnable.popleft()
        i0 = cursor[p]
        n_p = n[p]
        if i0 >= n_p:
            continue

        # --- run extent: how far can p go before an unexecuted send? ---
        r0 = r_ptr[p]
        src_t = r_src_l[p][r0:]
        if src_t.size:
            sat = cursor_np[src_t] > r_gate_l[p][r0:]
            k = int(np.argmin(sat))  # first unsatisfied receive ordinal
            if k == 0 and bool(sat[0]):
                k = int(sat.size)  # all satisfied
            stop = n_p if k == sat.size else int(r_pos_l[p][r0 + k])
        else:
            k = 0
            stop = n_p
        L = stop - i0

        if L >= VEC_MIN:
            c = _vector_run(plan, arrivals, p, i0, stop, r0, r0 + k,
                            clock[p], latency)
        else:
            c = _scalar_run(plan, arrivals, p, i0, stop, clock[p], latency)

        clock[p] = float(c)
        cursor[p] = stop
        cursor_np[p] = stop
        r_ptr[p] = r0 + k

        # --- wake ranks that were waiting on sends we just executed ---
        ws = watchers[p]
        if ws:
            still = [(mi, q) for mi, q in ws if mi >= stop]
            for mi, q in ws:
                if mi < stop:
                    runnable.append(q)
            watchers[p] = still

        # --- block, or requeue if our own progress satisfied the head ---
        if stop < n_p:
            src = int(match_rank_l[p][stop])
            mi = int(match_idx_l[p][stop])
            if mi >= 0:
                if cursor[src] > mi:
                    # Only possible when src == p (a self-send executed
                    # within this very run); other cursors cannot have
                    # moved since the extent check.
                    runnable.append(p)
                else:
                    watchers[src].append((mi, p))
            # mi < 0: no send will ever match — permanently blocked, the
            # caller reports it as deadlock.

    return clock, cursor


def _scalar_run(plan: ReplayPlan, arrivals: "np.ndarray", p: int,
                i0: int, stop: int, c: float, latency: float) -> float:
    """Per-event walk of one run (all receives known satisfiable)."""
    perf.incr("replay.vector.scalar_runs")
    kinds = plan.kind[p]
    pcosts = plan.costs[p]
    mflat = plan.mflat[p]
    g0 = int(plan.off[p])
    for i in range(i0, stop):
        kk = kinds[i]
        if kk == 2:  # recv: merge the matched send's arrival
            arrival = arrivals[mflat[i]]
            if arrival > c:
                c = float(arrival)
        c += pcosts[i]
        if kk == 1:  # send: publish arrival
            arrivals[g0 + i] = c + latency
    return c


#: Windows (of any flavor) per run before handing the tail to the
#: per-event sub-path (each window makes exact progress, so this
#: bounds work, not correctness).
_MAX_WINDOWS = 24

#: Epoch counts at or below this are finished with one 1-D accumulate
#: each instead of batched stepping.
_INDIV_MAX = 8

#: Stepped advance continues while the next epoch to finish is at most
#: this many events away; beyond it the survivors are finished with one
#: 1-D accumulate each.
_STEP_MAX = 16


def _vector_run(plan: ReplayPlan, arrivals: "np.ndarray", p: int,
                i0: int, stop: int, r0: int, r1: int,
                c0: float, latency: float) -> float:
    """Array replay of one run; falls back to per-event when it must.

    Runs in *windows*. Each window accumulates the no-fire hypothesis
    row (exact) and then takes the cheapest exact route:

    * no receive fires → the row is the true chain; done.
    * otherwise → guess the whole fire set, replay all epochs, verify
      exactly; a wrong guess (an arrival/clock tie) commits the exact
      prefix and restarts at the tie.
    """
    w = i0  # window start (absolute event index)
    rr = r0  # first unconsumed receive ordinal
    c = c0
    allcosts = plan.costs[p]
    spos = plan.s_pos[p]
    goff = int(plan.off[p])
    for _ in range(_MAX_WINDOWS):
        if w >= stop:
            return float(c)
        if stop - w < VEC_MIN:
            break  # not worth another array pass
        L = stop - w
        costs = allcosts[w:stop]

        # The no-fire hypothesis: one sequential accumulate — exact.
        row = np.empty(L + 1, dtype=np.float64)
        row[0] = c
        row[1:] = costs
        np.add.accumulate(row, out=row)

        ro = plan.r_pos[p][rr:r1] - w  # receive offsets within window
        a = arrivals[plan.r_mflat[p][rr:r1]]  # their matched arrivals
        cb = row[ro]  # clock just before each receive, if nothing fires
        fired = a > cb
        nf = int(np.count_nonzero(fired))
        if nf == 0:
            perf.incr("replay.vector.runs")
            sl, sr = np.searchsorted(spos, (w, stop))
            sw = spos[sl:sr]
            if sw.size:
                arrivals[goff + sw] = row[sw - w + 1] + latency
            return float(row[L])

        # --- guess the fire pattern in exact algebra ------------------
        # After a fire at receive m the chain restarts at a[m]; in
        # exact arithmetic clock-before-receive-k is prefix[k] +
        # max(0, max_{m<k}(a[m] - prefix[m])), so the fire set is where
        # D = a - prefix exceeds the running max of max(D, 0).
        # Re-associated floats make this a guess; the epoch values
        # below verify it exactly.
        D = a - cb
        E = np.maximum(D, 0.0)
        np.maximum.accumulate(E, out=E)
        guess = np.empty(D.shape, dtype=bool)
        guess[0] = D[0] > 0.0
        guess[1:] = D[1:] > E[:-1]

        gidx = np.flatnonzero(guess)
        starts = ro[gidx]  # event offsets where the chain restarts
        nep = starts.size + 1
        bounds = np.empty(nep + 1, dtype=np.int64)
        bounds[0] = 0
        bounds[1:-1] = starts
        bounds[-1] = L
        lens = np.diff(bounds)
        sv = np.empty(nep, dtype=np.float64)
        sv[0] = c
        sv[1:] = a[gidx]

        # --- replay every epoch: stepped advance ----------------------
        # Each epoch is an independent chain [start, +cost, +cost, ...].
        # Results land in one flat array laid out so the value after
        # the t-th window event (living in epoch e) is flat[t + e] — a
        # closed form for every downstream gather. The dominant shapes
        # are extreme (a thousand 1-2 event epochs beside one long
        # drain prefix, or a handful of epochs), so: advance ALL alive
        # epochs one event per step (one gather+add+scatter each) while
        # the shortest is about to finish, drop finished ones, and
        # finish stragglers with one 1-D accumulate each.
        eoff = bounds[:-1] + np.arange(nep, dtype=np.int64)
        flat = np.empty(L + nep, dtype=np.float64)
        flat[eoff] = sv
        cur, cbs, ce, cl = sv, bounds[:-1], eoff, lens
        s = 0
        while cur.size > _INDIV_MAX:
            lo = int(cl.min())
            if lo - s > _STEP_MAX:
                break  # finish the survivors individually below
            while s < lo:
                cur = cur + costs[cbs + s]
                s += 1
                flat[ce + s] = cur
            keep = cl > s
            cur, cbs, ce, cl = cur[keep], cbs[keep], ce[keep], cl[keep]
        for j in range(cur.size):
            lj = int(cl[j]) - s
            if lj <= 0:
                continue
            bj = int(cbs[j]) + s
            rowj = np.empty(lj + 1, dtype=np.float64)
            rowj[0] = cur[j]
            rowj[1:] = costs[bj:bj + lj]
            np.add.accumulate(rowj, out=rowj)
            ej = int(ce[j]) + s
            flat[ej:ej + lj + 1] = rowj

        # --- verify the guess against the exact epoch values ----------
        # eid = containing epoch; a fired receive heads its own epoch,
        # so its exact clock-before is the previous epoch's last value
        # flat[ro + eid - 1]; unfired ones read their in-epoch value
        # flat[ro + eid]. cb_exact is trustworthy up to (and at) the
        # first wrong guess — everything after it is recomputed anyway.
        # A guessed fire at an *exact tie* (a == cb_exact) is benign:
        # the epoch restarts at a, which IS the true clock, so every
        # downstream value is exact anyway (clocks are nonnegative, so
        # no +-0.0 aliasing). Only value-changing errors need a redo:
        # a guessed fire below the true clock, or a missed true fire.
        eid = np.searchsorted(starts, ro, side="right")
        cb_exact = flat[ro + eid - guess]
        mism = np.flatnonzero(
            np.where(guess, a < cb_exact, a > cb_exact)
        )
        if mism.size:
            # An arrival/clock tie the re-associated guess called
            # wrong. Commit the exact prefix, restart at the tie with
            # its exact clock (the next window classifies it exactly:
            # its D is computed from an exact prefix).
            perf.incr("replay.vector.guess_mismatch")
            k = int(mism[0])
            cut = int(ro[k])
            sl, sr = np.searchsorted(spos, (w, w + cut))
            sw = spos[sl:sr] - w
            if sw.size:
                eid_s = np.searchsorted(starts, sw, side="right")
                arrivals[goff + w + sw] = flat[sw + eid_s + 1] + latency
            c = float(cb_exact[k])
            w += cut
            rr += k
            continue

        perf.incr("replay.vector.fire_runs")
        sl, sr = np.searchsorted(spos, (w, stop))
        sw = spos[sl:sr] - w
        if sw.size:
            eid_s = np.searchsorted(starts, sw, side="right")
            arrivals[goff + w + sw] = flat[sw + eid_s + 1] + latency
        return float(flat[L + nep - 1])

    # Window budget exhausted or tail too short: finish per-event.
    return _scalar_run(plan, arrivals, p, w, stop, c, latency)
