"""The abstract walk over SPMD IR, compiled once per program.

Generated control flow is pure index arithmetic: loop bounds, guards and
communication partners depend on ``mynode()``, ``nprocs()``, params and
loop variables, never on array *data*. A walk that tracks scalars
concretely and treats every array element as :data:`UNKNOWN` therefore
reconstructs each rank's exact event sequence — compute bursts, sends,
receives — without a scheduler. The cost model (:func:`repro.tune.
predict`), skeleton extraction (:func:`repro.replay.extract_skeletons`)
and the verifier (:func:`repro.analysis.verify_compiled`) all run it.

The statement emitter of :mod:`repro.spmd.codegen` writes each
procedure of a program **once**, in its abstract domain, as one
generated Python function ``_w(walker, frame)`` plus one per loop body
the loop policy runs, shared by all ranks and consumers; :func:`walk_code`
caches it. Consumers are :class:`Walker` subclasses, reached through
hooks: the ``ops``/``mems`` charge sink with ``flush``, ``emit_send`` /
``emit_recv``, ``span``, ``call``, the loop policy ``loop`` and the
access observers ``on_read`` / ``on_write`` / ``on_alloc``. Static
charges fold per straight-line run as they do for the value backend,
and a discarded or statically :data:`UNKNOWN` value is evaluated only
when it may raise, so the walk abstains on exactly the programs a plain
tree-walk abstains on. Walkers with observers (the verifier) get the
code that evaluates every access index, tests every operand for UNKNOWN
and runs every loop through the policy.
"""

from __future__ import annotations

from collections import namedtuple

from repro import perf
from repro.errors import ModelError, NodeRuntimeError
from repro.lang.builtins import apply_builtin
from repro.machine.rows import KIND_COMPUTE, KIND_RECV, KIND_REPEAT, KIND_SEND
from repro.spmd import ir
from repro.spmd.codegen import (  # noqa: F401 (the generated code's)
    _UNSET, Globals, Loop, WalkDomain, _array, _fail, _pre,
    compile_procedure,
)


class _Unknown:
    """Opaque stand-in for array-element values. Arithmetic on it yields
    itself; its truth value means a branch depends on data."""

    __slots__ = ()

    def _same(self, *_operands):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _same
    __truediv__ = __rtruediv__ = __floordiv__ = __rfloordiv__ = _same
    __mod__ = __rmod__ = __neg__ = _same

    def __bool__(self) -> bool:
        raise ModelError(
            "control flow depends on array data; the analytic model only "
            "handles data-independent control"
        )

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _Unknown()


class _Array:
    """Marker bound to an array or buffer whose contents the walk ignores."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ARRAY"


ARRAY = _Array()


def abstract_args(proc: ir.NodeProc, scalar) -> list[object]:
    """Entry arguments for a walk of ``proc``: :data:`ARRAY` for every
    array parameter (array *values* cannot influence a walk), and
    ``scalar(name)`` for the rest."""
    return [
        ARRAY if pname in proc.array_params else scalar(pname)
        for pname in proc.params
    ]


class ProcReturn(Exception):
    """Unwinds a node procedure on ``NReturn``."""


def _bad_peer(w, peer, channel, send):
    """The error of a send (``send``) or receive with a bad ``peer``."""
    if peer is UNKNOWN:
        side = "send destination" if send else "receive source"
        return ModelError(f"{side} depends on array data")
    if not 0 <= peer < w.nprocs:
        side = "send to" if send else "recv from"
        return NodeRuntimeError(f"{side} invalid processor {peer}", w.rank)
    side = "send" if send else "receive"
    return NodeRuntimeError(f"self-{side} on channel {channel!r}", w.rank)


# ---------------------------------------------------------------------------
# What compiled code hands to walkers
# ---------------------------------------------------------------------------

#: One procedure: the frame slot of each parameter, the frame size, and
#: the generated function.
Proc = namedtuple("Proc", "params nslots body")

#: A program's compiled walk: entry procedure name and ``name -> Proc``.
WalkCode = namedtuple("WalkCode", "entry procs")


class Walker:
    """One rank's walk state and the default hooks.

    Records integer event rows ``(kind, peer, channel id, plen, ops,
    mems)`` exactly where the compiled backend records them: a compute
    row per flush — before every communication and at the end of the
    entry procedure — carrying the integer counters its flush formula
    ``ops * op_us + mems * mem_us`` prices. ``chan_ids`` interns channel
    names and is shared by all ranks of one program. The default loop
    policy summarizes what is provably repetitive and stays exact: a
    ``uniform`` loop is one sampled iteration times its trip count
    (:meth:`loop`), a ``replicable`` one is walked twice and followed by
    one repeat marker (:meth:`replicate`).
    """

    #: Access observers. A subclass defining them is compiled code that
    #: evaluates access indices and calls ``on_read(array, dims)``,
    #: ``on_write(name, array, dims)`` and ``on_alloc(name, shape)``
    #: (whose result is bound to the name); it must also keep ``path``,
    #: the stack of enclosing guard labels.
    on_read = on_write = on_alloc = None

    def __init__(self, code: WalkCode, rank: int, nprocs: int, globals_,
                 chan_ids: dict[str, int] | None = None):
        self.code = code
        self.rank = rank
        self.nprocs = nprocs
        self.globals = Globals(globals_)
        self.globals.rank = rank
        self.chan_ids = {} if chan_ids is None else chan_ids
        self.events: list[tuple] = []
        self.ops = self.mems = 0
        self.repeats = 0  # markers written: how a loop sees one inside it
        self.depth = 0

    @classmethod
    def compile(cls, program: ir.NodeProgram) -> WalkCode:
        """The (cached) walk code this walker class runs."""
        return walk_code(program, cls.on_read is not None)

    def run(self, args: list[object]) -> list[tuple]:
        self.call(self.code.entry, args)
        self.flush()
        return self.events

    def call(self, name: str, args: list[object]) -> None:
        proc = self.code.procs.get(name)
        if proc is None:
            raise NodeRuntimeError(f"unknown node procedure {name!r}", self.rank)
        if len(args) != len(proc.params):
            raise NodeRuntimeError(
                f"{name} expects {len(proc.params)} arguments, got {len(args)}",
                self.rank,
            )
        self.depth += 1
        if self.depth > ir.MAX_CALL_DEPTH:
            raise NodeRuntimeError(f"call depth exceeded in {name}", self.rank)
        frame = [_UNSET] * proc.nslots
        for slot, arg in zip(proc.params, args):
            frame[slot] = arg
        try:
            proc.body(self, frame)
        except ProcReturn:
            pass
        finally:
            self.depth -= 1

    # -- charge sink and events --------------------------------------------
    def flush(self) -> None:
        if self.ops or self.mems:
            self.events.append((KIND_COMPUTE, -1, -1, 0, self.ops, self.mems))
            self.ops = self.mems = 0

    def _channel(self, name: str) -> int:
        try:  # once per event: a subscript, not a call
            return self.chan_ids[name]
        except KeyError:  # first use: the next id
            chan = self.chan_ids[name] = len(self.chan_ids)
            return chan

    def emit_send(self, dst, channel: str, plen: int) -> None:
        if dst is UNKNOWN or not 0 <= dst < self.nprocs or dst == self.rank:
            raise _bad_peer(self, dst, channel, True)
        self.flush()
        self.events.append(
            (KIND_SEND, dst, self._channel(channel), plen, 0, 0)
        )

    def emit_recv(self, src, channel: str) -> None:
        if src is UNKNOWN or not 0 <= src < self.nprocs or src == self.rank:
            raise _bad_peer(self, src, channel, False)
        self.flush()
        self.events.append((KIND_RECV, src, self._channel(channel), 0, 0, 0))

    @staticmethod
    def span(lo, hi) -> int:
        if lo is UNKNOWN or hi is UNKNOWN:
            raise ModelError("vector bounds depend on array data")
        return max(0, hi - lo + 1)

    # -- loop policy -------------------------------------------------------
    def trips(self, lo, hi, step) -> int:
        if lo is UNKNOWN or hi is UNKNOWN or step is UNKNOWN:
            raise ModelError("loop bound depends on array data")
        if step <= 0:
            raise NodeRuntimeError(f"non-positive loop step {step}", self.rank)
        return 0 if hi < lo else (hi - lo) // step + 1

    def loop(self, loop: Loop, frame, lo, hi, step) -> None:
        trips = self.trips(lo, hi, step)
        if trips < 2 or not loop.replicable:
            for v in range(lo, lo + trips * step, step):
                frame[loop.var] = v
                loop.body(self, frame)
        elif loop.uniform:
            # Closed form over the integer counters: one sampled
            # iteration (which records no events) times the trip count.
            ops, mems = self.ops, self.mems
            frame[loop.var] = lo
            loop.body(self, frame)
            self.ops = ops + (self.ops - ops) * trips
            self.mems = mems + (self.mems - mems) * trips
            self.leave(loop, frame, lo, step, trips, loop.assigned)
        else:
            self.replicate(loop, frame, lo, step, trips, loop.body)
            self.leave(loop, frame, lo, step, trips, loop.event_assigned)

    def replicate(self, loop: Loop, frame, lo, step, trips, body) -> None:
        """Write ``trips >= 2`` iterations whose rows repeat from the
        second on, ``body(self, frame)`` writing one: the first for real
        (its leading flush merges compute pending from *before* the
        loop), the second (its leading flush merges the first's trailing
        compute — the steady state), then the remaining ``trips - 2`` as
        one row, ``(KIND_REPEAT, -1, -1, 0, span, count)``: the ``span``
        rows before it occur ``count`` more times. Flush boundaries stay
        where the compiled backend puts them, and markers are flat —
        none inside another's span (:func:`repro.machine.rows.expand`)."""
        events = self.events
        frame[loop.var] = lo
        body(self, frame)
        tail_ops, tail_mems = self.ops, self.mems
        mark = len(events)
        repeats = self.repeats
        frame[loop.var] = lo + step
        body(self, frame)
        more = trips - 2
        if len(events) == mark:
            # Every send/receive was guarded off (guards are
            # iteration-invariant): pending grows linearly instead.
            self.ops += (self.ops - tail_ops) * more
            self.mems += (self.mems - tail_mems) * more
        elif self.repeats > repeats:
            # A loop inside the steady state already wrote a marker, and
            # markers are flat: copy the iteration's compact rows.
            self.copy(mark, more)
        elif more:
            # The steady state communicated, so its trailing compute is
            # iteration-invariant already: one marker row stands for it.
            events.append((KIND_REPEAT, -1, -1, 0, len(events) - mark, more))
            self.repeats += 1

    def copy(self, mark: int, more: int) -> None:
        """Write the rows from ``mark`` on ``more`` more times."""
        self.events += self.events[mark:] * more

    @staticmethod
    def leave(loop: Loop, frame, lo, step, trips, forget) -> None:
        """The loop-exit rule: the loop variable's final value, then the
        ``forget`` slots (scalars the body may assign — the loop
        variable too, if it does) forgotten, so no value of one
        iteration leaks into later control flow."""
        frame[loop.var] = lo + (trips - 1) * step
        for slot in forget:
            frame[slot] = UNKNOWN


# ---------------------------------------------------------------------------
# Run-time helpers of the generated code
# ---------------------------------------------------------------------------


def _div(w, left, right):
    """``div`` by a divisor that may be zero."""
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    if right == 0:
        raise NodeRuntimeError("division by zero", w.rank)
    return left // right


def _mod(w, left, right):
    """``mod`` by a divisor that may be zero."""
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    if right == 0:
        raise NodeRuntimeError("modulo by zero", w.rank)
    return left % right


def _op(f, left, right):
    """An operator of the observed walk: UNKNOWN if an operand is."""
    return UNKNOWN if left is UNKNOWN or right is UNKNOWN else f(left, right)


def _op1(f, operand):
    return UNKNOWN if operand is UNKNOWN else f(operand)


def _apply(func, values):
    if any(v is UNKNOWN for v in values):
        return UNKNOWN
    return apply_builtin(func, values)


perf.register_cache("walk_code", {})


def walk_code(program: ir.NodeProgram, observe: bool = False) -> WalkCode:
    """Compile ``program``'s abstract walk (memoized on program identity:
    the ``walk_code`` table of :mod:`repro.perf`): per procedure, its
    function ``_w(w, fr)`` and the ones it calls, compiled as one text.

    ``observe`` selects the code for walkers with access observers; use
    :meth:`Walker.compile`, which derives it from the walker class."""

    def build():
        domain = _DOMAINS[observe]
        kinds: dict[str, tuple] = {}  # how a call to each ends a run
        procs = {}
        for name, proc in program.procs.items():
            kind, fn, gen = compile_procedure(proc, domain, kinds)
            kinds[name] = kind, fn
            slots = {**gen.scalars, **gen.arrays}
            procs[name] = Proc(tuple(slots[p] for p in proc.params),
                               len(slots), fn)
        return WalkCode(program.entry_proc().name, procs)

    return perf.memo("walk_code", (program, observe), build)


# Generated functions run in this module; ``observe`` selects the flavour.
_DOMAINS = {flag: WalkDomain(globals(), flag) for flag in (False, True)}
