"""Shared inspector/executor algorithms (gather and scatter).

Both simulation backends (:mod:`repro.spmd.interp` and
:mod:`repro.spmd.compile`) execute :class:`~repro.spmd.ir.NExchange`,
:class:`~repro.spmd.ir.NScatterFlush` and friends by delegating to the
generators in this module, parameterized by a small *adapter* giving the
backend's rank, ring size, cost meters, flush generator and name lookup.
Running literally the same code on both backends makes their virtual
time and message sequences identical by construction — the property the
interp-vs-compiled differential tests for irregular programs pin.

Schedules are plain JSON-safe dicts (lists of ints, no int-keyed maps)
so they can be persisted by :mod:`repro.store` and re-injected as
preplans (see :mod:`repro.inspector.context`).

Cost model (matching the affine code generator's conventions):

* build phase — ``op(1)`` per resolved index (dedup test), ``op(1)`` per
  element partitioned or converted to a local offset; the request round
  is an all-send-then-all-recv of ``S - 1`` packed index-list messages
  per rank (always sent, possibly empty — non-blocking sends make the
  round deadlock-free);
* gather data phase — serving reads cost ``mem(1)`` per element, own
  copies ``mem(2)`` (read + ghost write), each arriving message
  ``mem(len)``; one packed message per (server, needer) pair with a
  non-empty element list;
* scatter data phase — own contributions ``op(1) + mem(1)`` each in
  buffer order, remote outbox ``mem(1)`` per element, one values-only
  message per non-empty destination, arriving contributions applied via
  I-structure accumulation at ``op(1) + mem(1)`` each, receivers drained
  in rank order.
"""

from __future__ import annotations

import itertools

from repro.errors import NodeRuntimeError
from repro.lang.builtins import apply_builtin, is_builtin
from repro.machine import Recv, Send
from repro.spmd import ir

TEMPLATE_VAR = "__gidx"
"""Placeholder variable the owner/local templates range over."""


class ExchangeState:
    """Per-(rank, schedule) executor state.

    ``gather``/``scatter`` hold the built (or preplanned) schedule dicts;
    ``ghost`` is the gather landing table (global index → value), fully
    overwritten by every data phase and therefore never reset;
    ``buffer`` holds pending scatter contributions in issue order;
    ``collecting``/``seen`` are live only while this rank's inspector is
    enumerating.
    """

    __slots__ = ("gather", "ghost", "buffer", "scatter", "collecting", "seen")

    def __init__(self):
        self.gather: dict | None = None
        self.ghost: dict[int, object] = {}
        self.buffer: list[tuple[int, object]] = []
        self.scatter: dict | None = None
        self.collecting: list[int] | None = None
        self.seen: set[int] | None = None


def get_state(exchanges: dict[str, ExchangeState], sched: str) -> ExchangeState:
    state = exchanges.get(sched)
    if state is None:
        state = ExchangeState()
        exchanges[sched] = state
    return state


# ---------------------------------------------------------------------------
# Templates (owner/local over the __gidx placeholder), compiled
# ---------------------------------------------------------------------------


def _fail(ad, message, *operands):
    """Raise ``message`` once ``operands`` were evaluated."""
    raise NodeRuntimeError(message, ad.rank)


_NATIVE = {"+", "-", "*", "==", "!=", "<", "<=", ">", ">="}
_DIVIDE = {"div": ("//", "division by zero in template"),
           "mod": ("%", "modulo by zero in template")}


def compile_templates(*templates: ir.NExpr):
    """The distribution templates as functions ``f(ad, gidx)`` of
    ``__gidx`` (``g``), ``ad.rank``, ``ad.nprocs`` and in-scope scalars
    (``ad.lookup``), evaluated left to right: uncharged bookkeeping (the
    callers charge each element's partition flat). The text compiles once
    (``cg_code``); what it cannot evaluate raises when reached, so a
    template never evaluated never raises."""
    # Not at module level: that reorders other runs' imports, which moves
    # their ``host_mcalls`` (pstats folds same-label code objects).
    from repro.spmd.codegen import cg_code

    env = {"_fail": _fail, "_apply": apply_builtin}
    count = itertools.count()

    def src(e):
        kind = type(e)
        if kind is ir.NConst:  # bound, as inf and nan are no literals
            env[name := f"_c{next(count)}"] = e.value
            return name
        if kind is ir.NVar:
            return "g" if e.name == TEMPLATE_VAR else f"ad.lookup({e.name!r})"
        if kind is ir.NMyNode or kind is ir.NNProcs:
            return "ad.rank" if kind is ir.NMyNode else "ad.nprocs"
        if kind is ir.NBin:
            left, right = src(e.left), src(e.right)
            if e.op in _NATIVE:
                return f"({left} {e.op} {right})"
            if e.op not in _DIVIDE:
                message = f"unknown template operator {e.op!r}"
                return f"_fail(ad, {message!r}, {left}, {right})"
            sym, message = _DIVIDE[e.op]
            k = next(count)
            return (f"(_a{k} {sym} _b{k} if (_a{k} := {left}, _b{k} := "
                    f"{right})[1] else _fail(ad, {message!r}))")
        if kind is ir.NUn:
            return f"({'not ' if e.op == 'not' else '-'}{src(e.operand)})"
        if kind is ir.NCall and is_builtin(e.func):
            return f"_apply({e.func!r}, [{', '.join(map(src, e.args))}])"
        message = f"unsupported distribution template {e!r}"
        return f"_fail(ad, {message!r})"

    bodies = [src(e) for e in templates]
    text = "\n".join(f"def _t{k}(ad, g):\n    return {body}"
                     for k, body in enumerate(bodies))
    # Named by its templates, so no two texts' functions fold in pstats.
    exec(cg_code(text, f"<template {' / '.join(bodies)}>"), env)
    return [env[f"_t{k}"] for k in range(len(templates))]


# ---------------------------------------------------------------------------
# Non-generator leaves (charging included; callers do the evaluation)
# ---------------------------------------------------------------------------


def resolve(ad, state: ExchangeState, gidx: int) -> None:
    """Record one needed global index (first occurrence wins)."""
    ad.charge_op()  # the dedup membership test
    if state.collecting is None or state.seen is None:
        raise NodeRuntimeError(
            "resolve executed outside an exchange enumeration", ad.rank
        )
    if gidx not in state.seen:
        state.seen.add(gidx)
        state.collecting.append(gidx)


def indirect_read(ad, state: ExchangeState | None, e: ir.NIndirect, gidx: int):
    """Serve ``array[gidx]`` from the ghost table the exchange filled."""
    if state is None or state.gather is None:
        raise NodeRuntimeError(
            f"gather from {e.array!r} before exchange {e.sched!r} ran",
            ad.rank,
        )
    ad.charge_op()
    ad.charge_mem()
    try:
        return state.ghost[gidx]
    except KeyError:
        raise NodeRuntimeError(
            f"gather from {e.array!r}[{gidx}] was never fetched by "
            f"exchange {e.sched!r}",
            ad.rank,
        ) from None


def accum(ad, state: ExchangeState, gidx: int, value) -> None:
    """Buffer one scatter contribution ``array[gidx] += value``."""
    ad.charge_op()
    ad.charge_mem()
    state.buffer.append((gidx, value))


def accum_local(ad, array, indices: tuple[int, ...], value) -> None:
    """Owner-local accumulate — no routing, straight to the I-structure."""
    ad.charge_op()
    ad.charge_mem()
    array.accumulate(*indices, value)


# ---------------------------------------------------------------------------
# Gather: NExchange
# ---------------------------------------------------------------------------


def exec_exchange(ad, state: ExchangeState, stmt: ir.NExchange):
    """Inspector (first execution or preplan) + gather data phase."""
    if state.gather is None:
        plan = ad.preplan(stmt.sched)
        if plan is not None:
            state.gather = plan
        else:
            state.collecting, state.seen = [], set()
            try:
                yield from ad.run_enum(stmt.enum_body)
                needs = state.collecting
            finally:
                state.collecting = state.seen = None
            state.gather = yield from _build_gather(ad, stmt, needs)
            ad.record_built(stmt.sched, state.gather)
    yield from _gather_data_phase(ad, state, stmt)


def _build_gather(ad, stmt: ir.NExchange, needs: list[int]):
    per_peer: dict[int, list[int]] = {}
    own: list[list[int]] = []
    owner, local = compile_templates(stmt.owner, stmt.local)
    for g in needs:
        ad.charge_op()  # owner partition
        q = owner(ad, g)
        if q == ad.rank:
            own.append([g, local(ad, g)])
        else:
            per_peer.setdefault(q, []).append(g)
    channel = stmt.channel + ".req"
    for q in range(ad.nprocs):
        if q == ad.rank:
            continue
        yield from ad.flush()
        yield Send(q, channel, tuple(per_peer.get(q, ())))
    serve_to: list[list] = []
    for q in range(ad.nprocs):
        if q == ad.rank:
            continue
        yield from ad.flush()
        payload = yield Recv(q, channel)
        if payload:
            locs = []
            for g in payload:
                ad.charge_op()  # local-offset conversion
                locs.append(local(ad, g))
            serve_to.append([q, locs])
    need_from = [[q, gs] for q, gs in sorted(per_peer.items()) if gs]
    return {"need_from": need_from, "serve_to": serve_to, "own": own}


def _gather_data_phase(ad, state: ExchangeState, stmt: ir.NExchange):
    array = ad.get_array(stmt.array)
    plan = state.gather
    channel = stmt.channel + ".dat"
    ghost = state.ghost
    for q, locs in plan["serve_to"]:
        ad.charge_mem(len(locs))
        values = tuple(array.read(loc) for loc in locs)
        yield from ad.flush()
        yield Send(q, channel, values)
    for g, loc in plan["own"]:
        ad.charge_mem(2)  # local read + ghost store
        ghost[g] = array.read(loc)
    for q, gs in plan["need_from"]:
        yield from ad.flush()
        payload = yield Recv(q, channel)
        if len(payload) != len(gs):
            raise NodeRuntimeError(
                f"exchange {stmt.sched!r}: expected {len(gs)} values "
                f"from {q}, got {len(payload)}",
                ad.rank,
            )
        ad.charge_mem(len(payload))
        for g, value in zip(gs, payload):
            ghost[g] = value


# ---------------------------------------------------------------------------
# Scatter: NScatterFlush
# ---------------------------------------------------------------------------


def exec_scatter_flush(ad, state: ExchangeState, stmt: ir.NScatterFlush):
    """Inspector (first flush or preplan) + scatter data phase."""
    if state.scatter is None:
        plan = ad.preplan(stmt.sched)
        if plan is not None:
            state.scatter = plan
        else:
            state.scatter = yield from _build_scatter(ad, stmt, state.buffer)
            ad.record_built(stmt.sched, state.scatter)
    yield from _scatter_data_phase(ad, state, stmt)


def _build_scatter(ad, stmt: ir.NScatterFlush, buffer):
    own_pos: list[int] = []
    own_loc: list[int] = []
    peer_pos: dict[int, list[int]] = {}
    peer_g: dict[int, list[int]] = {}
    owner, local = compile_templates(stmt.owner, stmt.local)
    for pos, (g, _value) in enumerate(buffer):
        ad.charge_op()  # owner partition
        q = owner(ad, g)
        if q == ad.rank:
            own_pos.append(pos)
            own_loc.append(local(ad, g))
        else:
            peer_pos.setdefault(q, []).append(pos)
            peer_g.setdefault(q, []).append(g)
    channel = stmt.channel + ".req"
    for q in range(ad.nprocs):
        if q == ad.rank:
            continue
        yield from ad.flush()
        yield Send(q, channel, tuple(peer_g.get(q, ())))
    recv_loc: list[list] = []
    for q in range(ad.nprocs):
        if q == ad.rank:
            continue
        yield from ad.flush()
        payload = yield Recv(q, channel)
        if payload:
            locs = []
            for g in payload:
                ad.charge_op()  # local-offset conversion
                locs.append(local(ad, g))
            recv_loc.append([q, locs])
    send_pos = [[q, ps] for q, ps in sorted(peer_pos.items()) if ps]
    return {
        "n": len(buffer),
        "own_pos": own_pos,
        "own_loc": own_loc,
        "send_pos": send_pos,
        "recv_loc": recv_loc,
    }


def _scatter_data_phase(ad, state: ExchangeState, stmt: ir.NScatterFlush):
    array = ad.get_array(stmt.array)
    plan = state.scatter
    buffer = state.buffer
    if len(buffer) != plan["n"]:
        raise NodeRuntimeError(
            f"scatter {stmt.sched!r}: {len(buffer)} buffered contributions "
            f"do not match the schedule's {plan['n']}",
            ad.rank,
        )
    channel = stmt.channel + ".dat"
    for pos, loc in zip(plan["own_pos"], plan["own_loc"]):
        ad.charge_op()
        ad.charge_mem()
        array.accumulate(loc, buffer[pos][1])
    for q, positions in plan["send_pos"]:
        ad.charge_mem(len(positions))
        values = tuple(buffer[pos][1] for pos in positions)
        yield from ad.flush()
        yield Send(q, channel, values)
    for q, locs in plan["recv_loc"]:
        yield from ad.flush()
        payload = yield Recv(q, channel)
        if len(payload) != len(locs):
            raise NodeRuntimeError(
                f"scatter {stmt.sched!r}: expected {len(locs)} values "
                f"from {q}, got {len(payload)}",
                ad.rank,
            )
        for loc, value in zip(locs, payload):
            ad.charge_op()
            ad.charge_mem()
            array.accumulate(loc, value)
    state.buffer = []


def schedule_messages(plans: dict[int, dict]) -> int:
    """Steady-state data-phase message count of a set of per-rank plans.

    One message per (server, needer) pair for gathers (``serve_to``),
    one per non-empty destination for scatters (``send_pos``).
    """
    total = 0
    for plan in plans.values():
        total += len(plan.get("serve_to", ()))
        total += len(plan.get("send_pos", ()))
    return total
