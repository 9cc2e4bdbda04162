"""Source-generating execution backend for SPMD node programs.

The tree-walking interpreter (:mod:`repro.spmd.interp`) re-dispatches on
``isinstance`` for every IR node of every iteration, so host wall-clock
time is dominated by Python dispatch rather than by the simulation. This
backend translates a :class:`~repro.spmd.ir.NodeProgram` *once* per
program into **one generated Python function per node procedure**, as
the paper's compiler emits one C function per node procedure (§3.1–3.2,
Appendix A): guards become ``if``, loops ``for … in range``, ``return``
a native ``return``. The result runs many times, on every rank of every
ring: ``mynode()`` and ``nprocs()`` are run-time values read from the
per-run state, as the paper's one SPMD program reads them (§3.1) and as
:mod:`repro.spmd.walk` does:

* constant subexpressions are folded at compile time (value folding
  only — the interpreter's per-node cost charges are preserved exactly),
  and a constant guard keeps only its taken branch;
* scalar and array variables are resolved to integer slots of a flat
  frame list instead of per-access dict lookups;
* the ``charge_op``/``charge_mem`` bookkeeping of each straight-line
  run is pre-aggregated into one ``st.ops += k`` / ``st.mems += m``. A
  run ends at a statement that may record an effect and at one that
  contains a ``return``, so no charge crosses a flush and none is made
  for a statement a return skipped; a loop whose body never ends a run
  charges ``n·(1 + body)`` once.
* A procedure that can never block on a receive is a plain function,
  called without a generator frame; a body nested deeper than
  ``MAX_DEPTH`` is emitted as a function of its own, which keeps
  CPython's limits on statically nested blocks and on indentation out
  of reach.

One clock
---------

A run has no clock. In the paper's machine model (§2.2) a processor's
time depends only on its own operation counts and on the arrival times
of the messages it receives, and the values it computes only on the
messages, which blocking receives on FIFO channels deliver in an order
no schedule can change. So each rank *records* what it does, as the
rows of :mod:`repro.machine.rows` with channels spelled by name, and
moves the values itself:

* the in-line flush before a message appends a compute row ``(0, -1,
  -1, 0, ops, mems)`` of the pending counters;
* every send (point to point, vector, coerce, broadcast) is one call of
  :func:`_send`, which checks the peer, appends a send row, queues the
  payload on its ``(src, dst, chan)`` FIFO and wakes a rank blocked on
  that FIFO;
* a receive takes a queued payload in line and appends a receive row;
  only an empty FIFO leaves the generated code (:func:`_recv`), where
  the rank yields to the ring until a send fills it.

:class:`_Ring` resumes blocked ranks in the live simulator's ready-deque
order, so ranks fail, exhaust ``max_steps`` and deadlock as they would
there, and :func:`run_compiled` clocks the recorded rows with
:func:`repro.machine.rows.run_rows` — the scheduler the tuner's
prediction, the replay oracle and the verifier's deadlock pass already
share. A trace or a packing of several processes onto one processor
(§5.3/5.4) is the live simulator's alone: it schedules the ranks itself,
each running its generated code on demand and handing it the recorded
rows as effects (:func:`_driven`), so the steps a packing defers, the
budget and every error fall where the interpreter's do.

Cost model equivalence
----------------------

The interpreter accumulates pending cost as repeated float additions of
``op_us``/``mem_us``; this backend counts operations and memory accesses
as integers and multiplies once per flush. The two are bit-identical
whenever ``op_us`` and ``mem_us`` are exactly representable binary
fractions (the iPSC/2 preset's 1.0/0.5, and 0.0), which the differential
test suite verifies: same ``time_us``, message counts, byte counts, and
returned I-structure contents as the tree-walker. For machine parameters
that are not exact binary fractions the simulated times may differ in the
last ulp; use ``backend="interp"`` when that matters.

Compiled nodes are memoized on program identity (:class:`NodeProgram`
hashes by identity) in the ``spmd_compile`` table of :mod:`repro.perf`,
so repeated measurements of the same program pay for compilation once.
"""

from __future__ import annotations

import math
from collections import deque

from repro import perf
from repro.errors import NodeRuntimeError, SimulationError
from repro.inspector import executor as ixec
from repro.inspector.context import INSPECTOR_GLOBAL
from repro.lang.builtins import apply_builtin, is_builtin
from repro.machine import (
    ChannelKey, Compute, MachineParams, Recv, Send, SimResult, Simulator,
)
from repro.machine.rows import KIND_COMPUTE, KIND_RECV, KIND_SEND, run_rows
from repro.machine.simulator import deadlock_forensics
from repro.runtime import IStructure, LocalArray
from repro.runtime.istructure import UNDEFINED
from repro.spmd import ir
from repro.spmd.codegen import MAX_DEPTH, Emitter, charge_lines, ind

_NAMESPACE = globals()  # the one generated functions run in
_UNSET = object()  # empty frame slot (distinct from a stored None)
_NOTCONST = object()  # "no compile-time constant value" marker
_NORET = object()  # what a split-off body returns when it did not return


class _State:
    """One rank of a run: the per-run state its procedures share, its
    recorded rows, and the ring's channel tables."""

    __slots__ = ("rank", "nprocs", "globals", "ops", "mems", "op_us",
                 "mem_us", "depth", "exchanges", "rows", "fifo", "blocked",
                 "ready", "canon", "peers", "lim", "ring", "task", "waiting",
                 "done", "returned", "steps", "start")

    def __init__(self, rank, nprocs, op_us, mem_us, globals_, ring):
        self.rank = rank
        self.nprocs = nprocs
        self.globals = globals_
        self.ops = 0
        self.mems = 0
        self.op_us = op_us
        self.mem_us = mem_us
        self.depth = 0
        self.exchanges: dict[str, ixec.ExchangeState] = {}
        self.rows: list[tuple] = []
        self.fifo = ring.fifo
        self.blocked = ring.blocked
        self.ready = ring.ready
        self.canon = ring.canon
        self.peers = ring.size  # messages may name ranks below this
        self.lim = 0  # rows after which the step budget is spent
        self.ring = ring
        self.task = None  # the entry generator
        self.waiting = None  # the (src, dst, chan) key it blocked on
        self.done = False
        self.returned = None
        self.steps = 0  # steps of finished bursts
        self.start = 0  # row count when the current burst began

    # Minimal meter protocol for the shared inspector/executor leaves.
    def charge_op(self, count: int = 1) -> None:
        self.ops += count

    def charge_mem(self, count: int = 1) -> None:
        self.mems += count


# ---------------------------------------------------------------------------
# Recording: rows, messages and the step budget
# ---------------------------------------------------------------------------
#
# A rank records what the live simulator would have been handed as
# effects, as rows ``(kind, peer, chan, plen, ops, mems)`` of
# :mod:`repro.machine.rows` with channels spelled by name, and moves
# payloads itself through one FIFO per ``(src, dst, chan)``. A row is
# one simulator step, as are a receive that blocks and a rank's finish.
# ``st.lim`` is the row count after which the step budget allows no
# further step. Only what can repeat without end checks it — a send, a
# receive that blocks, the finish — and the ring checks it again when
# node code raises, so the run stops where the simulator's would.


class _Exceeded(Exception):
    """A rank has taken more steps than the budget allows."""


class _Canon(dict):
    """One tuple per distinct row, which every rank of a ring appends:
    a long run repeats a few rows many times, and keeping one copy of
    each holds its recording to a list of references."""

    def __missing__(self, row):
        self[row] = row
        return row


def _flush(st):
    """Record the pending cost as one compute row (mirrors
    interp.flush)."""
    ops = st.ops
    mems = st.mems
    if ops or mems:
        st.ops = 0
        st.mems = 0
        if ops * st.op_us + mems * st.mem_us > 0.0:
            st.rows.append(st.canon[KIND_COMPUTE, -1, -1, 0, ops, mems])


def _send(st, dst, chan, payload, plen):
    """Record a send of the ``plen`` scalars of ``payload`` and queue
    it, waking a blocked receiver."""
    rows = st.rows
    if len(rows) > st.lim:
        raise _Exceeded
    if not 0 <= dst < st.peers:
        raise NodeRuntimeError(f"send to invalid processor {dst}", st.rank)
    if dst == st.rank:
        raise NodeRuntimeError(
            f"self-send on channel {chan!r} "
            "(a local access must not become a message)",
            st.rank,
        )
    rows.append(st.canon[KIND_SEND, dst, chan, plen, 0, 0])
    key = (st.rank, dst, chan)
    queue = st.fifo.get(key)
    if queue is None:
        queue = st.fifo[key] = deque()
    queue.append(payload)
    if key in st.blocked:
        st.ready.append(st.blocked[key])
        del st.blocked[key]


def _broadcast(st, owner, chan, payload):
    """The owner's sends of a broadcast's one scalar, one to every other
    rank."""
    for dst in range(st.nprocs):
        if dst != owner:
            _send(st, dst, chan, payload, 1)


def _recv(st, src, chan):
    """Take the next payload on ``(src, rank, chan)``, blocking while its
    queue is empty. The generated code takes a queued payload in line and
    comes here for everything else: an empty queue or an invalid peer."""
    if not 0 <= src < st.peers:
        raise NodeRuntimeError(f"recv from invalid processor {src}", st.rank)
    if src == st.rank:
        raise NodeRuntimeError(f"self-receive on channel {chan!r}", st.rank)
    key = (src, st.rank, chan)
    queue = st.fifo.get(key)
    if not queue:
        if len(st.rows) > st.lim:
            raise _Exceeded
        st.waiting = key
        st.blocked[key] = st.rank
        yield  # resumed by the ring once a send fills the queue
        queue = st.fifo[key]
    st.rows.append(st.canon[KIND_RECV, src, chan, 0, 0, 0])
    return queue.popleft()


def _relay(st, effects):
    """Record the effects a shared inspector/executor generator yields;
    a ``None`` is a block inside a generated enumeration body."""
    reply = None
    while True:
        try:
            effect = effects.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = None
        if effect is None:
            yield
        elif isinstance(effect, Send):
            payload = effect.payload
            _send(st, effect.dst, effect.channel, payload, len(payload))
        else:
            reply = yield from _recv(st, effect.src, effect.channel)


class _CExpr:
    """A compiled expression: Python source over ``(st, fr)``.

    ``ops``/``mems`` are the expression's full static cost and ``src``
    charges nothing; or ``ops is None`` and ``src`` charges its own cost
    in-line (short-circuit operators make cost data-dependent). ``const``
    holds the folded compile-time value, or ``_NOTCONST``.
    """

    __slots__ = ("src", "ops", "mems", "const")

    def __init__(self, src, ops, mems, const=_NOTCONST):
        self.src = src
        self.ops = ops
        self.mems = mems
        self.const = const


def _static_cost(ces, ops=0, mems=0):
    """Summed cost of the static ``ces``; dynamic ones charge themselves."""
    for ce in ces:
        if ce.ops is not None:
            ops += ce.ops
            mems += ce.mems
    return ops, mems


def _fold_binop(op, left, right):
    """Fold a binary op over constants; _NOTCONST if it would raise."""
    try:
        f = ir.BINOPS.get(op)
        if f is not None:
            return f(left, right)
        if op in ir.DIVOPS and right != 0:
            return ir.DIVOPS[op][0](left, right)
    except Exception:
        pass
    return _NOTCONST


# ---------------------------------------------------------------------------
# Name resolution fallbacks (mirroring interp's scalars -> globals fallback)
# ---------------------------------------------------------------------------


def _global(st, name):
    """A scalar with no value in a frame slot: the global, else unbound."""
    value = st.globals.get(name, _UNSET)
    if value is _UNSET:
        raise NodeRuntimeError(f"unbound variable {name!r}", st.rank)
    return value


def _array(st, name):
    """An array with no frame binding: the global, else unknown."""
    arr = st.globals.get(name)
    if arr is None:
        raise NodeRuntimeError(f"unknown array {name!r}", st.rank)
    return arr


def _buffer(st, found, name):
    """``found`` (a frame slot's or global's value) as a buffer."""
    if found is _UNSET or found is None:
        found = _array(st, name)
    if not isinstance(found, LocalArray):
        raise NodeRuntimeError(f"{name!r} is not a buffer", st.rank)
    return found


# ---------------------------------------------------------------------------
# Array access fast paths
# ---------------------------------------------------------------------------
#
# Fixed-arity read/write helpers that inline the row-major offset of the
# two array ranks the language supports. Any deviation — out of bounds,
# undefined element, second write, unexpected object — falls back to the
# ``read``/``write`` methods, which reproduce the exact errors.


def _rd1(arr, i):
    if type(arr) is IStructure or type(arr) is LocalArray:
        shape = arr.shape
        if len(shape) == 1 and 1 <= i <= shape[0]:
            v = arr._cells[i - 1]
            if v is not UNDEFINED:
                return v
    return arr.read(i)


def _rd2(arr, i, j):
    if type(arr) is IStructure or type(arr) is LocalArray:
        shape = arr.shape
        if len(shape) == 2:
            d0, d1 = shape
            if 1 <= i <= d0 and 1 <= j <= d1:
                v = arr._cells[(i - 1) * d1 + (j - 1)]
                if v is not UNDEFINED:
                    return v
    return arr.read(i, j)


def _wr1(arr, i, value):
    t = type(arr)
    if t is IStructure:
        shape = arr.shape
        if len(shape) == 1:
            ii = int(i)
            if 1 <= ii <= shape[0]:
                cells = arr._cells
                if cells[ii - 1] is UNDEFINED:
                    cells[ii - 1] = value
                    arr._defined_count += 1
                    return
    elif t is LocalArray:
        shape = arr.shape
        if len(shape) == 1:
            ii = int(i)
            if 1 <= ii <= shape[0]:
                arr._cells[ii - 1] = value
                return
    arr.write(i, value)


def _wr2(arr, i, j, value):
    t = type(arr)
    if t is IStructure:
        shape = arr.shape
        if len(shape) == 2:
            ii = int(i)
            jj = int(j)
            d0, d1 = shape
            if 1 <= ii <= d0 and 1 <= jj <= d1:
                off = (ii - 1) * d1 + (jj - 1)
                cells = arr._cells
                if cells[off] is UNDEFINED:
                    cells[off] = value
                    arr._defined_count += 1
                    return
    elif t is LocalArray:
        shape = arr.shape
        if len(shape) == 2:
            ii = int(i)
            jj = int(j)
            d0, d1 = shape
            if 1 <= ii <= d0 and 1 <= jj <= d1:
                arr._cells[(ii - 1) * d1 + (jj - 1)] = value
                return
    arr.write(i, j, value)


# ---------------------------------------------------------------------------
# Run-time helpers of the generated code
# ---------------------------------------------------------------------------
#
# Expressions, assignments and l-value stores are in-line source: slot
# reads become ``fr[3]`` with a walrus-tested fallback, arithmetic becomes
# in-line operators, array reads become one `_rd2` call, a folded
# constant is its literal. `_SrcGen.expr` is the only expression
# compiler: one recursive pass that returns each node's source together
# with its static cost and folded constant, so classification, folding
# and emission cannot drift apart.
#
# A static node's source charges nothing — its statement adds the
# pre-aggregated cost to the run. A dynamic node (short-circuit
# operators, the inspector's indirect read, anything above them) charges
# in-line, and *where* a charge sits in the source is the interpreter's
# charge order: ``_chg(st, value, ops, mems)`` takes ``value`` as an
# argument, so it charges after ``value`` has been evaluated (the left
# operand of ``and``/``or``, an operator over a dynamic operand, the last
# index of a dynamic read or store), and ``(_pre(st, ops, mems) or x)``
# charges before ``x`` is (the right operand of a short-circuit, reached
# only when the left does not decide). Every fallback (unbound variable,
# unknown array, division by zero, IR the interpreter rejects) is a
# helper call raising the interpreter's error after its operands have
# been evaluated, so values, charges and errors are identical.


def _cg_div(left, right, st):
    if right == 0:
        raise NodeRuntimeError("division by zero", st.rank)
    return left // right


def _cg_mod(left, right, st):
    if right == 0:
        raise NodeRuntimeError("modulo by zero", st.rank)
    return left % right


def _chg(st, value, ops, mems):
    st.ops += ops
    st.mems += mems
    return value


def _pre(st, ops, mems):
    st.ops += ops
    st.mems += mems


def _fail(st, message, *operands):
    raise NodeRuntimeError(message, st.rank)


def _call(st, procs, name, args):
    """A call to a procedure not compiled before its caller (a forward or
    recursive reference): dispatched when it runs."""
    entry = procs.get(name)
    if entry is None:
        raise NodeRuntimeError(f"unknown node procedure {name!r}", st.rank)
    kind, fn = entry
    if kind == "gen":
        return (yield from fn(st, args))
    return fn(st, args)


def _sendvec(st, buf, lo, hi):
    """Charge and read buffer slots ``lo..hi``: bulk-sliced when the range
    is clean; any oddity (rank, bounds, never-written slot) re-reads per
    element for the exact error."""
    st.mems += max(0, hi - lo + 1)
    if (
        type(buf) is LocalArray
        and len(buf.shape) == 1
        and type(lo) is int
        and type(hi) is int
        and 1 <= lo <= hi <= buf.shape[0]
    ):
        payload = tuple(buf._cells[lo - 1 : hi])
        if UNDEFINED not in payload:
            return payload
    elif type(lo) is int and type(hi) is int and lo > hi:
        return ()
    read = buf.read
    return tuple(read(k) for k in range(lo, hi + 1))


def _recvvec(st, buf, lo, hi, payload, channel):
    """Check, charge and store a received vector into slots ``lo..``."""
    if len(payload) != hi - lo + 1:
        raise NodeRuntimeError(
            f"channel {channel!r}: vector length mismatch "
            f"(wanted {hi - lo + 1}, got {len(payload)})",
            st.rank,
        )
    st.mems += len(payload)
    if (
        type(buf) is LocalArray
        and len(buf.shape) == 1
        and type(lo) is int
        and 1 <= lo
        and lo - 1 + len(payload) <= buf.shape[0]
    ):
        buf._cells[lo - 1 : lo - 1 + len(payload)] = payload
    else:
        write = buf.write
        for k, value in enumerate(payload):
            write(lo + k, value)


def _accum_local(st, indices, value, arr):
    ixec.accum_local(st, arr, indices, value)


def _exchange(st, fr, gen, stmt, enum):
    state = ixec.get_state(st.exchanges, stmt.sched)
    return _relay(st, ixec.exec_exchange(
        _CompiledAdapter(st, fr, gen, enum), state, stmt))


def _scatter_flush(st, fr, gen, stmt):
    state = ixec.get_state(st.exchanges, stmt.sched)
    return _relay(st, ixec.exec_scatter_flush(
        _CompiledAdapter(st, fr, gen), state, stmt))


# op -> (Python spelling, helper that checks the divisor first).
_CG_DIVOPS = {"div": ("//", "_cg_div"), "mod": ("%", "_cg_mod")}

# (method, rank) -> the fixed-arity helper that inlines it.
_CG_ACCESS = {
    ("read", 1): "_rd1",
    ("read", 2): "_rd2",
    ("write", 1): "_wr1",
    ("write", 2): "_wr2",
}

# Record the pending cost as one compute row: interp.flush, in line.
# The test is left out where a static charge was just made. The
# temporaries are the flush's own: it runs between the binding and the
# use of a statement's operands (``_o``, ``_d``, ``_p``, ...).
_COMPUTE = (
    "_fo = st.ops",
    "_fm = st.mems",
    "st.ops = st.mems = 0",
    "if _fo * st.op_us + _fm * st.mem_us > 0.0:",
    f"    st.rows.append(st.canon[{KIND_COMPUTE}, -1, -1, 0, _fo, _fm])",
)
_FLUSH = ("if st.ops or st.mems:", *ind(_COMPUTE))


class _SrcGen(Emitter):
    """The generated source of one procedure: its frame slots, the
    helper bindings its functions see, and the statement being written.

    Statements are emitted into ``out`` one straight-line *run* at a
    time: ``ops``/``mems`` is the static cost of the run so far, written
    as one charge by :meth:`settle` where the run ends — before a
    statement that may record an effect (the flush must see it) or that
    contains a ``return`` (the statements after it must not be charged).
    ``effects``/``returns``/``blocks`` say whether the body written so
    far may record an effect, return, or block on a receive (which makes
    its function a generator).
    """

    __slots__ = ("procs", "scalar_slots", "array_slots", "nslots", "out",
                 "ops", "mems", "effects", "returns", "blocks", "depth")

    def __init__(self, procs, proc):
        self.procs = procs  # name -> (kind, fn), filled in program order
        scalars: dict[str, int] = {}
        arrays: dict[str, int] = {}
        for name, is_array in ir.proc_binders(proc):
            slots = arrays if is_array else scalars
            if name not in slots:
                slots[name] = len(scalars) + len(arrays)
        self.scalar_slots = scalars
        self.array_slots = arrays
        self.nslots = len(scalars) + len(arrays)
        # Generated functions run in this module's namespace, plus the
        # helpers they bind.
        super().__init__(_NAMESPACE, "<spmd-codegen>", _procs=procs)
        self.out: list[str] = []
        self.ops = self.mems = 0
        self.effects = self.returns = self.blocks = False
        self.depth = 0

    # -- helpers and names --------------------------------------------------
    def const(self, value, ops, mems):
        return _CExpr(self.literal(value), ops, mems, value)

    # -- expressions ----------------------------------------------------------
    # Names are bound as helpers, not written as literals: a compiler
    # mints some (buffers, channels, schedules) from parse order, and the
    # text must not change when the same program is parsed again.
    def scalar(self, name):
        slot = self.scalar_slots.get(name)
        n, t = self.fresh(name), self.tmp()
        src = f"st.globals.get({n}, _UNSET)" if slot is None else f"fr[{slot}]"
        return f"({t} if ({t} := {src}) is not _UNSET else _global(st, {n}))"

    def array(self, name):
        slot = self.array_slots.get(name)
        n, t = self.fresh(name), self.tmp()
        if slot is None:
            found = f"({t} := st.globals.get({n})) is not None"
        else:
            found = f"({t} := fr[{slot}]) is not _UNSET and {t} is not None"
        return f"({t} if {found} else _array(st, {n}))"

    def buffer(self, name):
        slot = self.array_slots.get(name)
        n, t = self.fresh(name), self.tmp()
        src = f"st.globals.get({n})" if slot is None else f"fr[{slot}]"
        return (f"({t} if type({t} := {src}) is LocalArray "
                f"else _buffer(st, {t}, {n}))")

    def charged(self, ce):
        """In-line source charging ``ce``'s cost before evaluating it."""
        if not ce.ops and not ce.mems:  # dynamic, or free
            return ce.src
        return f"(_pre(st, {ce.ops}, {ce.mems}) or {ce.src})"

    def fail(self, message, *operands):
        """Source raising the interpreter's ``message`` once ``operands``
        have been evaluated."""
        return f"_fail({', '.join(['st', repr(message), *operands])})"

    def access(self, method, arr_src, indices, *value):
        """``(src, ops, mems)`` of one element ``read``, or ``write`` of
        ``value``: the array lookup, the indices left to right, then the
        access's own memory charge."""
        idx = [self.expr(i) for i in indices]
        ops, mems = _static_cost(idx, 0, 1)
        args = [i.src for i in idx]
        if any(i.ops is None for i in idx):
            args[-1] = f"_chg(st, {args[-1]}, {ops}, {mems})"
            ops = mems = None
        args = ", ".join([*args, *value])
        fast = _CG_ACCESS.get((method, len(idx)))
        if fast is not None:
            return f"{fast}({arr_src}, {args})", ops, mems
        return f"{arr_src}.{method}({args})", ops, mems

    def expr(self, e) -> _CExpr:
        if isinstance(e, ir.NConst):
            return self.const(e.value, 0, 0)
        if isinstance(e, ir.NVar):
            return _CExpr(self.scalar(e.name), 0, 0)
        if isinstance(e, ir.NMyNode):
            return _CExpr("st.rank", 0, 0)
        if isinstance(e, ir.NNProcs):
            return _CExpr("st.nprocs", 0, 0)
        if isinstance(e, ir.NBin):
            if e.op in ("and", "or"):
                return self.short_circuit(e)
            return self.binary(e)
        if isinstance(e, ir.NUn):
            return self.unary(e)
        if isinstance(e, ir.NCall):
            return self.call(e)
        if isinstance(e, ir.NIsRead):
            return _CExpr(*self.access("read", self.array(e.array), e.indices))
        if isinstance(e, ir.NBufRead):
            return _CExpr(*self.access("read", self.buffer(e.buf), e.indices))
        if isinstance(e, ir.NIndirect):
            # The executor's read charges itself through the state's
            # meter protocol; the index is charged before it.
            gidx = self.charged(self.expr(e.index))
            return _CExpr(
                f"ixec.indirect_read(st, st.exchanges.get("
                f"{self.fresh(e.sched)}), {self.fresh(e)}, {gidx})",
                None, None,
            )
        return _CExpr(self.fail(f"unknown expression {e!r}"), 0, 0)

    def short_circuit(self, e):
        left = self.expr(e.left)
        right = self.expr(e.right)
        is_and = e.op == "and"
        if left.const is not _NOTCONST:
            lv = bool(left.const)
            if lv != is_and:  # and-with-False / or-with-True decides
                return self.const(lv, left.ops + 1, left.mems)
            if right.ops is not None:
                ops = left.ops + 1 + right.ops
                mems = left.mems + right.mems
                if right.const is not _NOTCONST:
                    return self.const(bool(right.const), ops, mems)
                return _CExpr(f"bool({right.src})", ops, mems)
        # The right operand must only charge when evaluated (the branch
        # is data-dependent), but the left operand's static cost can be
        # folded into the operator's own +1.
        ops, mems = _static_cost((left,), 1)
        return _CExpr(
            f"(bool(_chg(st, {left.src}, {ops}, {mems})) {e.op} "
            f"bool({self.charged(right)}))",
            None, None,
        )

    def binary(self, e):
        left = self.expr(e.left)
        right = self.expr(e.right)
        op = e.op
        if op in ir.BINOPS:  # spelled as in Python
            src = f"({left.src} {op} {right.src})"
        elif op in _CG_DIVOPS:
            sym, helper = _CG_DIVOPS[op]
            if (
                type(right.const) in (bool, int, float) and right.const != 0
            ) or isinstance(e.right, ir.NNProcs):
                # Divisor known non-zero: skip the runtime check.
                src = f"({left.src} {sym} {right.src})"
            else:
                src = f"{helper}({left.src}, {right.src}, st)"
        else:
            src = self.fail(f"unknown operator {op!r}", left.src, right.src)
        ops, mems = _static_cost((left, right), 1)
        if left.ops is None or right.ops is None:
            # Dynamic operands self-charge; the static one's cost merges
            # into this node's single post-charge.
            return _CExpr(f"_chg(st, {src}, {ops}, {mems})", None, None)
        if left.const is not _NOTCONST and right.const is not _NOTCONST:
            folded = _fold_binop(op, left.const, right.const)
            if folded is not _NOTCONST:
                return self.const(folded, ops, mems)
        return _CExpr(src, ops, mems)

    def unary(self, e):
        operand = self.expr(e.operand)
        is_not = e.op == "not"
        sym = "not " if is_not else "-"
        if operand.ops is None:
            return _CExpr(f"({sym}_chg(st, {operand.src}, 1, 0))", None, None)
        ops = operand.ops + 1
        if operand.const is not _NOTCONST:
            try:
                value = (not operand.const) if is_not else -operand.const
            except Exception:
                pass  # left to raise at run time
            else:
                return self.const(value, ops, operand.mems)
        return _CExpr(f"({sym}{operand.src})", ops, operand.mems)

    def call(self, e):
        args = [self.expr(a) for a in e.args]
        if not is_builtin(e.func):
            # The interpreter evaluates the arguments before rejecting
            # the call, so errors surface in the same order.
            message = f"unknown builtin {e.func!r} in expression"
            return _CExpr(self.fail(message, *(a.src for a in args)),
                          None, None)
        srcs = ", ".join(a.src for a in args)
        ops, mems = _static_cost(args, 1)
        if any(a.ops is None for a in args):
            return _CExpr(
                f"apply_builtin({e.func!r}, "
                f"_chg(st, [{srcs}], {ops}, {mems}))",
                None, None,
            )
        if all(a.const is not _NOTCONST for a in args):
            try:
                value = apply_builtin(e.func, [a.const for a in args])
            except Exception:
                pass  # left to raise at run time
            else:
                return self.const(value, ops, mems)
        return _CExpr(f"apply_builtin({e.func!r}, [{srcs}])", ops, mems)

    def store(self, lv, value):
        """``(statement, ops, mems)`` storing the source ``value``."""
        if isinstance(lv, ir.VarLV):
            return f"fr[{self.scalar_slots[lv.name]}] = {value}", 0, 0
        if isinstance(lv, ir.IsLV):
            return self.access("write", self.array(lv.array), lv.indices,
                               value)
        if isinstance(lv, ir.BufLV):
            return self.access("write", self.buffer(lv.buf), lv.indices,
                               value)
        return self.fail(f"unknown lvalue {lv!r}", value), 0, 0

    def put(self, lv, ce):
        """Lines storing ``ce`` into ``lv`` — the value first, as the
        interpreter evaluates it — and their static cost."""
        if type(lv) is ir.VarLV or ce.const is not _NOTCONST:
            lines, value = [], ce.src
        else:
            lines, value = [f"_v = {ce.src}"], "_v"
        store, ops, mems = self.store(lv, value)
        return [*lines, store], *_static_cost((ce,), ops or 0, mems or 0)

    # -- runs -----------------------------------------------------------------
    def cost(self, ops, mems):
        self.ops += ops
        self.mems += mems

    def settle(self):
        """End the run: write its pending cost. True if it wrote one."""
        lines = charge_lines(self.ops, self.mems)
        self.out += lines
        self.ops = self.mems = 0
        return bool(lines)

    def flush(self):
        """Settle the run, then the lines recording the pending cost."""
        self.effects = True
        return list(_COMPUTE if self.settle() else _FLUSH)

    def blocking(self):
        """Settle the run before a statement that may block."""
        self.settle()
        self.effects = self.blocks = True

    def receive(self, src, channel):
        """Lines binding ``_p`` to the next payload from ``src``: a queued
        one taken in line, else the blocking :func:`_recv`."""
        self.effects = self.blocks = True
        return [
            f"if _fq := st.fifo.get(({src}, st.rank, {channel})):",
            "    _p = _fq.popleft()",
            f"    st.rows.append("
            f"st.canon[{KIND_RECV}, {src}, {channel}, 0, 0, 0])",
            "else:",
            f"    _p = yield from _recv(st, {src}, {channel})",
        ]

    def bind(self, name, ce):
        """``ce`` evaluated here, in the interpreter's order: bound to
        ``name``, or its literal when it is a constant."""
        if ce.const is not _NOTCONST:
            return ce.src
        self.out.append(f"{name} = {ce.src}")
        return name

    def operands(self, **named):
        """Each expression bound in turn, its static cost in the run."""
        ces = {name: self.expr(e) for name, e in named.items()}
        self.cost(*_static_cost(ces.values()))
        return [self.bind(name, ce) for name, ce in ces.items()]

    # -- bodies ---------------------------------------------------------------
    def body(self, stmts, ops=0, mems=0):
        """``stmts`` as nested lines: ``(lines, ops, mems, effects,
        returns, blocks)``. ``ops``/``mems`` enter as a cost pending at
        the start and leave as the cost still pending at the end — the
        body's whole static cost when it neither records an effect nor
        returns, which the caller may then charge anywhere in its own
        run."""
        if self.depth >= MAX_DEPTH:
            name, *body = self.split(stmts, ops, mems)
            ops, mems, effects, returns, blocks = body
            call = f"{name}(st, fr)"
            if blocks:
                call = f"yield from {call}"
            if returns:
                lines = [f"_ret = {call}",
                         "if _ret is not _NORET:",
                         "    return _ret"]
            else:
                lines = [call]
            return lines, ops, mems, effects, returns, blocks
        saved = (self.out, self.ops, self.mems, self.effects, self.returns,
                 self.blocks)
        self.out, self.ops, self.mems = [], ops, mems
        self.effects = self.returns = self.blocks = False
        self.depth += 1
        for stmt in stmts:
            _EMIT.get(type(stmt), _SrcGen.unknown)(self, stmt)
        self.depth -= 1
        result = (self.out, self.ops, self.mems, self.effects, self.returns,
                  self.blocks)
        (self.out, self.ops, self.mems, self.effects, self.returns,
         self.blocks) = saved
        return result

    def split(self, stmts, ops=0, mems=0, generator=False):
        """``stmts`` as a generated function of their own over
        ``(st, fr)``: ``(helper name, ops, mems, effects, returns,
        blocks)``."""
        depth, self.depth = self.depth, 0
        lines, ops, mems, effects, returns, blocks = self.body(
            stmts, ops, mems)
        self.depth = depth
        if effects or returns or generator:
            lines += charge_lines(ops, mems)
            ops = mems = 0
        if returns:
            lines.append("return _NORET")
        if generator and not blocks:
            lines.append("yield from ()")
        name = self.fresh(self.function(lines, "st, fr", "_f"))
        return name, ops, mems, effects, returns, blocks

    def nested(self, lines, ops, mems, effects, returns, blocks):
        """Take a nested body's flags; its lines with the rest charged."""
        self.effects |= effects
        self.returns |= returns
        self.blocks |= blocks
        return (lines + charge_lines(ops, mems)) or ["pass"]

    # -- statements -----------------------------------------------------------
    def assign(self, s):
        lines, ops, mems = self.put(s.target, self.expr(s.value))
        self.out += lines
        self.cost(ops, mems)

    def alloc(self, s):
        dims = [self.expr(d) for d in s.shape]
        self.cost(*_static_cost(dims))
        cls = "IStructure" if type(s) is ir.NAllocIs else "LocalArray"
        shape = "".join(f"{d.src}, " for d in dims)
        self.out.append(
            f"fr[{self.array_slots[s.name]}] = {cls}(({shape}), "
            f"name={self.fresh(s.name + '@p')} + str(st.rank))"
        )

    def for_(self, s):
        bounds = [self.expr(e) for e in (s.lo, s.hi, s.step)]
        lo, hi, step = bounds
        self.cost(*_static_cost(bounds))
        body = self.body(s.body, 1, 0)  # + the increment and bound test
        lines, ops, mems, effects, returns, blocks = body
        if effects or returns:
            self.settle()
        if type(step.const) is int and step.const > 0:
            rng = f"range({lo.src}, {hi.src} + 1, {step.src})"
        else:
            self.out += [
                f"_lo = {lo.src}", f"_hi = {hi.src}", f"_by = {step.src}",
                "if _by <= 0:",
                "    raise NodeRuntimeError("
                "f'non-positive loop step {_by}', st.rank)",
            ]
            rng = "range(_lo, _hi + 1, _by)"
        target = f"fr[{self.scalar_slots[s.var]}]"
        if effects or returns:
            self.out.append(f"for {target} in {rng}:")
        else:
            # The body's cost is static: every iteration's, charged once.
            self.out.append(f"_r = {rng}")
            self.out += [f"st.ops += len(_r) * {ops}"] + (
                [f"st.mems += len(_r) * {mems}"] if mems else []
            )
            self.out.append(f"for {target} in _r:")
            body = lines, 0, 0, False, False, False
        self.out += ind(self.nested(*body))

    def if_(self, s):
        cond = self.expr(s.cond)
        self.cost(*_static_cost((cond,)))
        if cond.const is not _NOTCONST:
            # A constant guard (a rank-specialized program's, typically)
            # keeps only the taken branch, in this run.
            for stmt in s.then_body if cond.const else s.else_body:
                _EMIT.get(type(stmt), _SrcGen.unknown)(self, stmt)
            return
        then = self.body(s.then_body)
        other = self.body(s.else_body)
        if any(then[3:]) or any(other[3:]):
            self.settle()
        self.out += [f"if {cond.src}:", *ind(self.nested(*then))]
        other = self.nested(*other)
        if other != ["pass"]:
            self.out += ["else:", *ind(other)]

    def return_(self, s):
        if s.value is None:
            src = "None"
        elif isinstance(s.value, str):
            src = self.array(s.value)
        else:
            value = self.expr(s.value)
            self.cost(*_static_cost((value,)))
            src = value.src
        self.settle()
        self.returns = True
        self.out.append(f"return {src}")

    def send(self, s):
        values = [self.expr(v) for v in s.values]
        dst = self.expr(s.dst)
        self.cost(*_static_cost([*values, dst]))
        payload = f"({''.join(f'{v.src}, ' for v in values)})"
        if any(v.const is _NOTCONST for v in values):
            self.out.append(f"_p = {payload}")
            payload = "_p"
        dst = self.bind("_d", dst)  # after the values, as interp does
        self.out += self.flush()
        channel = self.fresh(s.channel)
        self.out.append(
            f"_send(st, {dst}, {channel}, {payload}, {len(values)})"
        )

    def recv(self, s):
        src, = self.operands(_s=s.src)
        self.out += self.flush()
        n = len(s.targets)
        channel = self.fresh(s.channel)
        self.out += [
            *self.receive(src, channel),
            f"if len(_p) != {n}:",
            f"    raise NodeRuntimeError(f'channel {{{channel}!r}}: "
            f"expected {n} scalars, got {{len(_p)}}', st.rank)",
        ]
        for k, target in enumerate(s.targets):
            lines, ops, mems = self.put(target, _CExpr(f"_p[{k}]", 0, 0))
            self.out += lines
            self.cost(ops, mems)

    def sendvec(self, s):
        self.out.append(f"_b = {self.buffer(s.buf)}")
        lo, hi, dst = self.operands(_lo=s.lo, _hi=s.hi, _d=s.dst)
        self.out.append(f"_p = _sendvec(st, _b, {lo}, {hi})")
        self.out += self.flush()
        self.out.append(
            f"_send(st, {dst}, {self.fresh(s.channel)}, _p, len(_p))"
        )

    def recvvec(self, s):
        src, = self.operands(_s=s.src)
        self.out.append(f"_b = {self.buffer(s.buf)}")
        lo, hi = self.operands(_lo=s.lo, _hi=s.hi)
        self.out += self.flush()
        channel = self.fresh(s.channel)
        self.out += [
            *self.receive(src, channel),
            f"_recvvec(st, _b, {lo}, {hi}, _p, {channel})",
        ]

    def coerce(self, s):
        o, d = self.operands(_o=s.owner, _d=s.dest)
        self.cost(2, 0)  # the two membership tests every processor makes
        value = self.expr(s.value)
        channel = self.fresh(s.channel)
        keep, ops, mems = self.put(s.target, value)
        keep = [*charge_lines(ops, mems), *keep]
        send = [
            *charge_lines(*_static_cost((value,))), f"_v = {value.src}",
            *_FLUSH, f"_send(st, {d}, {channel}, (_v,), 1)",
        ]
        got, ops, mems = self.put(s.target, _CExpr("_p[0]", 0, 0))
        recv = [*_FLUSH, *self.receive(o, channel), *got,
                *charge_lines(ops, mems)]
        self.blocking()
        self.out += [
            f"if {o} == {d}:", f"    if st.rank == {d}:", *ind(keep, 2),
            f"elif st.rank == {o}:", *ind(send),
            f"elif st.rank == {d}:", *ind(recv),
        ]

    def broadcast(self, s):
        o, = self.operands(_o=s.owner)
        self.cost(1, 0)
        value = self.expr(s.value)
        self.blocking()
        channel = self.fresh(s.channel)
        store, ops, mems = self.store(s.target, "_v")
        got, gops, gmems = self.put(s.target, _CExpr("_p[0]", 0, 0))
        self.out += [f"if st.rank == {o}:", *ind([
            *charge_lines(*_static_cost((value,), ops or 0, mems or 0)),
            f"_v = {value.src}", store, *_FLUSH,
            f"_broadcast(st, {o}, {channel}, (_v,))",
        ]), "else:", *ind([
            *_FLUSH, *self.receive(o, channel), *got,
            *charge_lines(gops, gmems),
        ])]

    def callproc(self, s):
        args = []
        for a in s.args:
            if isinstance(a, str):
                args.append(self.array(a))
            else:
                ce = self.expr(a)
                self.cost(*_static_cost((ce,)))
                args.append(ce.src)
        args = f"[{', '.join(args)}]"
        kind, fn = self.procs.get(s.proc, (None, None))
        if kind == "pure":
            # Compiled before this call site and effect-free: a plain call.
            call = f"{self.fresh(fn)}(st, {args})"
        elif kind == "sends":
            # It records effects but never blocks: a plain call that
            # ends the run.
            self.settle()
            self.effects = True
            call = f"{self.fresh(fn)}(st, {args})"
        else:
            self.blocking()
            if kind is None:  # a forward or recursive reference
                call = f"yield from _call(st, _procs, {s.proc!r}, {args})"
            else:
                call = f"yield from {self.fresh(fn)}(st, {args})"
        if s.array_result is not None:
            self.out.append(f"fr[{self.array_slots[s.array_result]}] = {call}")
        elif s.result is not None:
            lines, ops, mems = self.put(s.result, _CExpr(call, 0, 0))
            self.out += lines
            self.cost(ops, mems)
        else:
            self.out.append(call)

    def comment(self, s):
        pass

    def array_alias(self, s):
        self.out.append(
            f"fr[{self.array_slots[s.name]}] = {self.array(s.source)}"
        )

    def exchange(self, s):
        # The enumeration body the inspector runs on the first execution
        # is a generator of its own, sharing this procedure's frame.
        enum = self.split(s.enum_body, generator=True)[0]
        self.blocking()
        self.out.append(
            f"yield from _exchange(st, fr, {self.fresh(self)}, "
            f"{self.fresh(s)}, {enum})"
        )

    def scatter_flush(self, s):
        self.blocking()
        self.out.append(
            f"yield from _scatter_flush(st, fr, {self.fresh(self)}, "
            f"{self.fresh(s)})"
        )

    def resolve(self, s):
        index = self.expr(s.index)
        self.cost(*_static_cost((index,)))
        self.out.append(
            f"ixec.resolve(st, ixec.get_state(st.exchanges, "
            f"{self.fresh(s.sched)}), {index.src})"
        )

    def accum(self, s):
        index, value = self.expr(s.index), self.expr(s.value)
        self.cost(*_static_cost((index, value)))
        self.out.append(
            f"ixec.accum(st, ixec.get_state(st.exchanges, "
            f"{self.fresh(s.sched)}), {index.src}, {value.src})"
        )

    def accum_local(self, s):
        indices = [self.expr(i) for i in s.indices]
        value = self.expr(s.value)
        self.cost(*_static_cost([*indices, value]))
        self.out.append(
            f"_accum_local(st, ({''.join(f'{i.src}, ' for i in indices)}), "
            f"{value.src}, {self.array(s.array)})"
        )

    def unknown(self, s):
        self.out.append(self.fail(f"unknown statement {s!r}"))


_EMIT = {
    ir.NAssign: _SrcGen.assign,
    ir.NAllocIs: _SrcGen.alloc,
    ir.NAllocBuf: _SrcGen.alloc,
    ir.NFor: _SrcGen.for_,
    ir.NIf: _SrcGen.if_,
    ir.NReturn: _SrcGen.return_,
    ir.NSend: _SrcGen.send,
    ir.NRecv: _SrcGen.recv,
    ir.NSendVec: _SrcGen.sendvec,
    ir.NRecvVec: _SrcGen.recvvec,
    ir.NCoerce: _SrcGen.coerce,
    ir.NBroadcast: _SrcGen.broadcast,
    ir.NCallProc: _SrcGen.callproc,
    ir.NComment: _SrcGen.comment,
    ir.NArrayAlias: _SrcGen.array_alias,
    ir.NExchange: _SrcGen.exchange,
    ir.NScatterFlush: _SrcGen.scatter_flush,
    ir.NResolve: _SrcGen.resolve,
    ir.NAccum: _SrcGen.accum,
    ir.NAccumLocal: _SrcGen.accum_local,
}


class _CompiledAdapter:
    """Adapter handing this backend's meters/frame to the shared executor.

    Name lookups replicate the compiled name resolution (frame slot with
    globals fallback) dynamically — they only run during the build phase,
    never in the steady-state data phase.
    """

    __slots__ = ("st", "fr", "gen", "enumg", "rank", "nprocs")

    def __init__(self, st, fr, gen, enumg=None):
        self.st = st
        self.fr = fr
        self.gen = gen
        self.enumg = enumg
        self.rank = st.rank
        self.nprocs = st.nprocs

    def charge_op(self, count: int = 1) -> None:
        self.st.ops += count

    def charge_mem(self, count: int = 1) -> None:
        self.st.mems += count

    def flush(self):
        _flush(self.st)
        return ()

    def lookup(self, name: str):
        slot = self.gen.scalar_slots.get(name)
        value = _UNSET if slot is None else self.fr[slot]
        return _global(self.st, name) if value is _UNSET else value

    def get_array(self, name: str):
        slot = self.gen.array_slots.get(name)
        arr = None if slot is None else self.fr[slot]
        return _array(self.st, name) if arr is _UNSET or arr is None else arr

    def run_enum(self, body):
        # The enumeration body was compiled with the procedure; ``body``
        # (the IR) is ignored in favour of the generated generator.
        return self.enumg(self.st, self.fr)

    def preplan(self, sched: str):
        ctx = self.st.globals.get(INSPECTOR_GLOBAL)
        if ctx is None:
            return None
        return ctx.preplan_for(sched, self.st.rank)

    def record_built(self, sched: str, plan: dict) -> None:
        ctx = self.st.globals.get(INSPECTOR_GLOBAL)
        if ctx is not None:
            ctx.record(sched, self.st.rank, plan)


# ---------------------------------------------------------------------------
# Procedures, programs, and the compilation table
# ---------------------------------------------------------------------------


def _compile_proc(proc, procs):
    """Compile one procedure to ``(kind, fn)``: one generated function
    ``_p(st, args)``. ``kind`` is ``"gen"`` when its text may block on a
    receive (a generator, called with ``yield from``), else ``"sends"``
    when it may record an effect and ``"pure"`` when it records none
    (plain functions; only a ``"sends"`` call ends a straight-line run)."""
    gen = _SrcGen(procs, proc)
    lines, ops, mems, effects, _, blocks = gen.body(proc.body)
    n = len(proc.params)
    slots = [
        gen.array_slots[p] if p in proc.array_params else gen.scalar_slots[p]
        for p in proc.params
    ]
    if slots == list(range(n)):
        frame = [f"fr = [*args] + [_UNSET] * {gen.nslots - n}"]
    else:
        frame = [f"fr = [_UNSET] * {gen.nslots}"] + [
            f"fr[{slot}] = args[{k}]" for k, slot in enumerate(slots)
        ]
    fn = gen.function([
        f"if len(args) != {n}:",
        "    raise NodeRuntimeError("
        f"{f'{proc.name} expects {n} arguments, got '!r} + str(len(args)), "
        "st.rank)",
        "st.depth += 1",
        f"if st.depth > {ir.MAX_CALL_DEPTH}:",
        "    raise NodeRuntimeError("
        f"{f'call depth exceeded in {proc.name}'!r}, st.rank)",
        *frame,
        "try:",
        *ind(lines + charge_lines(ops, mems) or ["pass"]),
        "finally:",
        "    st.depth -= 1",
    ], "st, args", "_p")
    return ("gen" if blocks else "sends" if effects else "pure"), fn


class CompiledNode:
    """A NodeProgram compiled to generated functions, for any rank of
    any ring."""

    __slots__ = ("program", "_procs", "_entry")

    def __init__(self, program: ir.NodeProgram):
        self.program = program
        procs: dict[str, object] = {}
        for name, proc in program.procs.items():
            procs[name] = _compile_proc(proc, procs)
        self._procs = procs
        self._entry = program.entry

    def start(self, rank: int, nprocs: int, args, params: MachineParams,
              globals_: dict, ring: _Ring | None = None) -> _State:
        """One processor's execution as a rank of ``ring``, for
        :meth:`_Ring.resume` to run. By default it is started alone, on a
        ring of its own that bounds neither its peers nor its steps."""
        if ring is None:
            ring = _Ring(math.inf, math.inf)
        st = _State(rank, nprocs, params.op_us, params.mem_us,
                    dict(globals_), ring)
        entry = self._procs.get(self._entry)
        if entry is not None and entry[0] == "gen":
            st.task = entry[1](st, list(args))
        else:
            st.task = self._plain(st, entry, list(args))
        ring.ranks.append(st)
        return st

    def _plain(self, st, entry, args):
        """An entry procedure that never blocks (or a missing one) as a
        task the ring resumes once."""
        if entry is None:
            raise KeyError(self._entry)
        return entry[1](st, args)
        yield  # a generator, as every task is


def compiled_node(program: ir.NodeProgram) -> CompiledNode:
    """The (memoized) compilation of ``program``: one generated function
    per procedure, which every rank of every ring size runs.

    :class:`NodeProgram` hashes by identity, so the ``spmd_compile``
    table never confuses two structurally-similar programs, and holding
    the key alive in the table keeps the identity stable.
    """
    return perf.memo("spmd_compile", program, lambda: CompiledNode(program))


# ---------------------------------------------------------------------------
# The ring: running ranks without a clock
# ---------------------------------------------------------------------------


class _Ring:
    """The clock-free run of one ring of ranks.

    Ranks run in the live simulator's order: every rank once from a
    ready deque, each until it blocks on an empty queue or finishes, and
    a send that fills the queue a rank blocks on puts that rank back at
    the end of the deque. Values cannot depend on that order (blocking
    receives on FIFO channels); it is kept so that the ranks that fail,
    the step that exceeds ``max_steps`` and the state a deadlock leaves
    are the simulator's.
    """

    __slots__ = ("max_steps", "size", "steps", "fifo", "blocked", "ready",
                 "canon", "ranks")

    def __init__(self, max_steps: int, size: int):
        self.max_steps = max_steps
        self.size = size
        self.steps = 0  # simulator steps of every finished burst
        self.fifo: dict[tuple, deque] = {}  # (src, dst, chan) -> payloads
        self.blocked: dict[tuple, int] = {}  # key -> the rank waiting on it
        self.ready: deque[int] = deque()
        self.canon = _Canon()
        self.ranks: list[_State] = []

    def run(self) -> None:
        """Run every rank as far as it goes; raise the simulator's
        :class:`~repro.errors.DeadlockError` if some rank cannot finish."""
        ranks = self.ranks
        ready = self.ready
        ready.extend(range(len(ranks)))
        try:
            while ready:
                self.resume(ranks[ready.popleft()])
        finally:
            # Close what an error or a deadlock left unfinished, so the
            # generated frames' finally blocks run now, not at GC time.
            for st in ranks:
                if not st.done:
                    try:
                        st.task.close()
                    except Exception:
                        pass
        stuck = [st for st in ranks if not st.done]
        if stuck:
            raise deadlock_forensics(
                {st.rank: ChannelKey(*st.waiting) for st in stuck},
                {st.rank: "DONE" if st.done else "BLOCKED" for st in ranks},
                {key: len(queue) for key, queue in self.fifo.items() if queue},
            )

    def resume(self, st: _State) -> None:
        """Run ``st`` until it blocks on a receive or finishes (one burst
        of the simulator), counting the steps it takes."""
        steps = self.steps
        rows = st.rows
        st.start = start = len(rows)
        st.lim = start + self.max_steps - steps - 1
        if steps >= self.max_steps:
            raise self.exceeded(st)
        try:
            st.task.send(None)
            finished = False
        except StopIteration as stop:
            _flush(st)  # the entry's last compute burst
            st.returned = stop.value
            finished = True
        except Exception as err:
            if len(rows) > st.lim:  # raised in a step past the budget
                raise self.exceeded(st) from None
            if isinstance(err, SimulationError):
                raise
            raise NodeRuntimeError(str(err), proc=st.rank) from err
        n = len(rows)
        if finished:
            if n > st.lim:
                raise self.exceeded(st)
            st.done = True
        taken = n - start + 1  # its rows, and the block or finish
        st.steps += taken
        self.steps = steps + taken

    def exceeded(self, st: _State) -> SimulationError:
        """The simulator's error for the first step past the budget,
        which ``st`` took after its ``st.lim + 1``-th row."""
        current = st.steps + (st.lim + 1 - st.start) + 1
        hottest = max(
            self.ranks, key=lambda r: current if r is st else r.steps
        )
        return SimulationError(
            f"simulation exceeded {self.max_steps} steps "
            "(livelock or runaway program?); hottest process: "
            f"rank {hottest.rank} with "
            f"{current if hottest is st else hottest.steps} steps"
        )


def _driven(st, params: MachineParams, max_steps):
    """Rank ``st`` as a process of the live simulator, which schedules
    it: its generated code runs a burst — until it blocks on an empty
    queue or finishes — whenever the rows it recorded are all handed
    over as effects (payload values are placeholders: only their
    lengths are simulated). An error a burst raises is raised once the
    simulator has taken every row before it."""
    op_us, mem_us = params.op_us, params.mem_us
    # More rows than the simulator can take within its budget: a burst
    # stops there, at a step the simulator never reaches.
    st.lim = max_steps
    rows = st.rows
    i = 0
    try:
        while True:
            error = None
            try:
                st.task.send(None)
            except StopIteration as stop:
                _flush(st)  # the entry's last compute burst
                st.done, st.returned = True, stop.value
            except Exception as err:
                error = err
            for kind, peer, chan, plen, ops, mems in rows[i:]:
                if kind == KIND_COMPUTE:
                    yield Compute(ops * op_us + mems * mem_us)
                elif kind == KIND_SEND:
                    yield Send(peer, chan, (0,) * plen)
                else:
                    yield Recv(peer, chan)
            i = len(rows)
            if error is not None:
                raise error
            if st.done:
                return st.returned
            src, _, chan = st.waiting
            yield Recv(src, chan)  # taken, and recorded, by the next burst
            i += 1
    finally:
        st.task.close()  # its frames' finally blocks run now, not at GC


def run_compiled(program, nprocs: int, make_args, machine: MachineParams,
                 globals_: dict, trace: bool, max_steps: int,
                 placement: list[int] | None, strict: bool) -> SimResult:
    """Run ``program`` (or ``program(rank)``) on ``nprocs`` ranks and
    clock what they recorded: :func:`repro.machine.rows.run_rows` for the
    base machine, the live :class:`~repro.machine.Simulator` scheduling
    the ranks (:func:`_driven`) when a trace or a packing onto fewer
    processors (§5.3/5.4) is asked for. ``run_spmd`` takes the options
    from its caller."""
    # Built first: its constructor rejects an empty ring.
    simulator = Simulator(nprocs, machine, trace=trace, max_steps=max_steps,
                          strict=strict)
    ring = _Ring(max_steps, nprocs)
    for rank in range(nprocs):
        node_program = program(rank) if callable(program) else program
        compiled_node(node_program).start(
            rank, nprocs, make_args(rank), machine, globals_, ring
        )
    if trace or placement not in (None, list(range(nprocs))):
        ranks, ring.ranks = ring.ranks, []
        try:
            return simulator.run(
                lambda rank: _driven(ranks[rank], machine, max_steps),
                placement,
            )
        finally:
            ranks.clear()  # each rank refers to its ring: free them now
    ring.run()
    rows = [st.rows for st in ring.ranks]
    returned = [st.returned for st in ring.ranks]
    ring.ranks.clear()  # each rank refers to its ring: free them now
    undelivered = {
        ChannelKey(*key): len(queue)
        for key, queue in ring.fifo.items() if queue
    }
    if undelivered and strict:
        leaked = ", ".join(
            f"{key.src}->{key.dst} {key.channel!r} x{count}"
            for key, count in sorted(undelivered.items())
        )
        raise SimulationError(
            f"{sum(undelivered.values())} undelivered message(s) at "
            f"completion (strict mode): {leaked}"
        )
    run = run_rows(rows, nprocs, machine)
    channels = {chan: chan for _, _, chan in run.messages}
    return SimResult(
        nprocs=nprocs,
        finish_times_us=run.clock,
        busy_times_us=run.busy,
        returned=returned,
        stats=run.stats(channels, machine.scalar_bytes),
        cpu_finish_us=list(run.clock),
        cpu_busy_us=list(run.busy),
        comm_times_us=run.comm,
        undelivered=undelivered,
    )
