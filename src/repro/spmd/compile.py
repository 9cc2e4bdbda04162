"""Source-generating execution backend for SPMD node programs.

The tree-walking interpreter (:mod:`repro.spmd.interp`) re-dispatches on
``isinstance`` for every IR node of every iteration, so host wall-clock
time is dominated by Python dispatch rather than by the simulation. This
backend translates a :class:`~repro.spmd.ir.NodeProgram` *once* per
program into **one generated Python function per node procedure**, as
the paper's compiler emits one C function per node procedure (§3.1–3.2,
Appendix A): guards become ``if``, loops ``for … in range``, ``return``
a native ``return``. :mod:`repro.spmd.codegen` writes it, in the value
domain of the one statement emitter it shares with :mod:`repro.spmd.walk`
(constant folding, frame slots, static charges summed per straight-line
run, bodies nested past ``MAX_DEPTH`` split off); this module holds the
run-time helpers the generated code calls and the ring that runs it. The
result runs many times, on every rank of every ring: ``mynode()`` and
``nprocs()`` are run-time values read from the per-run state, as the
paper's one SPMD program reads them (§3.1). A procedure that can never
block on a receive is a plain function, called without a generator
frame.

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
from repro.lang.builtins import apply_builtin
from repro.machine import (
    ChannelKey, Compute, MachineParams, Recv, Send, SimResult, Simulator,
)
from repro.machine.rows import KIND_COMPUTE, KIND_RECV, KIND_SEND, run_rows
from repro.machine.simulator import deadlock_forensics
from repro.runtime import IStructure, LocalArray
from repro.runtime.istructure import UNDEFINED
from repro.spmd import ir
from repro.spmd.codegen import (  # noqa: F401 (the generated code's)
    _NORET, _UNSET, Globals, ValueDomain, _array, _fail, _pre,
    compile_procedure,
)


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
        self.globals = Globals(globals_)
        self.globals.rank = rank
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


# ---------------------------------------------------------------------------
# Name resolution fallbacks and array access fast paths
# ---------------------------------------------------------------------------


def _buffer(st, found, name):
    """``found`` (a frame slot's or global's value) as a buffer."""
    if found is _UNSET or found is None:
        found = _array(st, name)
    if not isinstance(found, LocalArray):
        raise NodeRuntimeError(f"{name!r} is not a buffer", st.rank)
    return found


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
# Expressions and stores are in-line source (:mod:`repro.spmd.codegen`):
# slot reads ``fr[3]``, arithmetic in-line operators, an array read one
# `_rd2` call, a folded constant its literal, a ``div``/``mod`` a floor
# division behind a test of its divisor, and an invariant such as the
# block size a local computed before the outermost loop. Static charges
# are summed per straight-line run; what is not static charges in line.
# Every fallback (unknown array, IR the interpreter rejects) is a helper
# call raising the interpreter's error after its operands have been
# evaluated, and so is a division's other branch: ``_div``/``_mod`` run
# only for a zero divisor. Values, charges and errors are identical.

_apply = apply_builtin


def _div(st, left, right):
    if right == 0:
        raise NodeRuntimeError("division by zero", st.rank)
    return left // right


def _mod(st, left, right):
    if right == 0:
        raise NodeRuntimeError("modulo by zero", st.rank)
    return left % right


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
        slot = self.gen.scalars.get(name)
        value = _UNSET if slot is None else self.fr[slot]
        return self.st.globals[name] if value is _UNSET else value

    def get_array(self, name: str):
        slot = self.gen.arrays.get(name)
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


_DOMAIN = ValueDomain(globals())  # generated functions run in this module


class CompiledNode:
    """A NodeProgram compiled to generated functions, for any rank of
    any ring."""

    __slots__ = ("program", "_procs", "_entry")

    def __init__(self, program: ir.NodeProgram):
        self.program = program
        # name -> (kind, fn), filled in program order: a call to a
        # procedure written before its caller knows whether it may block
        # (``"gen"``, called with ``yield from``), record an effect
        # (``"sends"``, a plain call that ends the run) or neither.
        procs: dict[str, tuple] = {}
        for name, proc in program.procs.items():
            kind, fn, _ = compile_procedure(proc, _DOMAIN, procs)
            procs[name] = kind, fn
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
                 placement: list[int] | None) -> SimResult:
    """Run ``program`` (or ``program(rank)``) on ``nprocs`` ranks and
    clock what they recorded: :func:`repro.machine.rows.run_rows` for the
    base machine, the live :class:`~repro.machine.Simulator` scheduling
    the ranks (:func:`_driven`) when a trace or a packing onto fewer
    processors (§5.3/5.4) is asked for. ``run_spmd`` takes the options
    from its caller."""
    # Built first: its constructor rejects an empty ring.
    simulator = Simulator(nprocs, machine, trace=trace, max_steps=max_steps)
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
