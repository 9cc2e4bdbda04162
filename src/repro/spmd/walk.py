"""The abstract walk over SPMD IR, compiled once per program.

Generated control flow is pure index arithmetic: loop bounds, guards and
communication partners depend on ``mynode()``, ``nprocs()``, params and
loop variables, never on array *data*. A walk that tracks scalars
concretely and treats every array element as :data:`UNKNOWN` therefore
reconstructs each rank's exact event sequence — compute bursts, sends,
receives — without a scheduler. The cost model (:func:`repro.tune.
predict`), skeleton extraction (:func:`repro.replay.extract_skeletons`)
and the verifier (:func:`repro.analysis.verify_compiled`) all run it.

As :mod:`repro.spmd.compile` does for values, :func:`walk_code` writes
each procedure of a program **once** as one generated Python function
``_w(walker, frame)``, plus one per loop body the loop policy runs,
shared by all ranks and consumers. Consumers are :class:`Walker`
subclasses, reached through hooks: the ``ops``/``mems`` charge sink with
``flush``, ``emit_send`` / ``emit_recv``, ``span``, ``call``, the loop
policy ``loop`` and the access observers ``on_read`` / ``on_write`` /
``on_alloc``. Two static facts do most of the work:

* **Charge folding.** The charges of a run of statements no flush or
  return can separate fold into one ``w.ops += k; w.mems += m``; only a
  short-circuit's right operand charges in line.
* **Elision.** A discarded (store values and indices, send payloads,
  read indices) or statically :data:`UNKNOWN` value is not evaluated
  when it provably cannot raise: every divisor is a non-zero constant or
  ``nprocs()``, every callee a builtin of the right arity, and every
  name bound on all paths or looked up anyway (the residual "unbound
  variable" / "unknown array" check). So the walk abstains on exactly
  the programs a plain tree-walk abstains on.

Walkers with observers (the verifier) get code that evaluates every
access index, tests every operand for UNKNOWN (their loop variables may
be symbolic values whose arithmetic can raise) and runs every loop
through the policy. The plain walk spells arithmetic natively (UNKNOWN's
yields itself) and runs a loop the policy would iterate one by one in
line.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from repro import perf
from repro.errors import ModelError, NodeRuntimeError
from repro.lang.builtins import apply_builtin, builtin_arity, is_builtin
from repro.machine.rows import KIND_COMPUTE, KIND_RECV, KIND_REPEAT, KIND_SEND
from repro.spmd import ir
from repro.spmd.codegen import MAX_DEPTH, Emitter, charge_lines, ind
from repro.spmd.pretty import pretty_expr


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


class _Globals(dict):
    """A rank's globals: reading a missing one as a scalar is an error."""

    __slots__ = ("rank",)

    def __missing__(self, name):
        raise NodeRuntimeError(f"unbound variable {name!r}", self.rank)


_NAMESPACE = globals()  # the one generated functions run in
_UNSET = object()  # empty frame slot
_NOTCONST = object()  # "no compile-time constant value" marker
_NO_NAMES: frozenset = frozenset()


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


class Loop:
    """One ``NFor``, as the loop policy sees it.

    ``body(walker, frame)`` runs one iteration (its increment-and-test
    op included) with the variable in frame slot ``var``. ``uniform``:
    communication-free and no branch, inner bound or short-circuit
    operand mentions the loop variable, a body-assigned scalar or array
    data — one sampled iteration prices all. ``replicable``: the same
    with communication allowed and partners and vector bounds invariant
    too — the event stream repeats from the second iteration on.
    ``assigned`` / ``event_assigned``: slots of the scalars the body may
    assign, without / with receive, coerce and broadcast targets, for a
    summarizing policy to forget. Frame slots ``[0, nscalars)`` hold
    scalars, the rest arrays.
    """

    __slots__ = ("name", "var", "body", "uniform", "replicable",
                 "assigned", "event_assigned", "nscalars")


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
    one repeat marker (:meth:`iterate`).
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
        self.globals = _Globals(globals_)
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
        return self.chan_ids.setdefault(name, len(self.chan_ids))

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
        if trips > 1 and loop.uniform:
            # Closed form over the integer counters: one sampled
            # iteration (which records no events) times the trip count.
            ops, mems = self.ops, self.mems
            frame[loop.var] = lo
            loop.body(self, frame)
            self.ops = ops + (self.ops - ops) * trips
            self.mems = mems + (self.mems - mems) * trips
            # Body-assigned scalars are iteration-dependent: forget them
            # so a stale first-iteration value can never leak into later
            # control flow. The loop variable's final value is known.
            for slot in loop.assigned:
                frame[slot] = UNKNOWN
            frame[loop.var] = lo + (trips - 1) * step
        elif trips:
            self.iterate(loop, frame, lo, step, trips)

    def iterate(self, loop: Loop, frame, lo, step, trips) -> None:
        """Walk a loop that may communicate. A ``replicable`` loop is
        walked twice and its remaining ``trips - 2`` iterations written
        as one row, ``(KIND_REPEAT, -1, -1, 0, span, count)``: the
        ``span`` rows before it occur ``count`` more times. Markers are
        flat — none inside another's span — so consumers expand one
        level (:func:`repro.machine.rows.expand`)."""
        var, body = loop.var, loop.body
        if trips < 2 or not loop.replicable:
            for v in range(lo, lo + trips * step, step):
                frame[var] = v
                body(self, frame)
            return
        # Walk the first iteration for real (its leading flush merges
        # compute pending from *before* the loop) and the second (its
        # leading flush merges the first's trailing compute — the steady
        # state), then say how often the second's rows repeat. Flush
        # boundaries stay exactly where the compiled backend puts them.
        events = self.events
        frame[var] = lo
        body(self, frame)
        tail_ops, tail_mems = self.ops, self.mems
        mark = len(events)
        repeats = self.repeats
        frame[var] = lo + step
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
            events += events[mark:] * more
        elif more:
            # The steady state communicated, so its trailing compute is
            # iteration-invariant already: one marker row stands for it.
            events.append((KIND_REPEAT, -1, -1, 0, len(events) - mark, more))
            self.repeats += 1
        for slot in loop.event_assigned:
            frame[slot] = UNKNOWN
        frame[var] = lo + (trips - 1) * step


# ---------------------------------------------------------------------------
# Run-time helpers of the generated code
# ---------------------------------------------------------------------------


def _array(w, name):
    """An array with no frame binding: the global, else unknown."""
    found = w.globals.get(name)
    if found is None:
        raise NodeRuntimeError(f"unknown array {name!r}", w.rank)
    return found


def _divide(w, op, left, right):
    """``div``/``mod`` whose divisor may be zero."""
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    f, what = ir.DIVOPS[op]
    if right == 0:
        raise NodeRuntimeError(f"{what} by zero", w.rank)
    return f(left, right)


def _op(f, left, right):
    """An operator of the observed walk: UNKNOWN if an operand is."""
    return UNKNOWN if left is UNKNOWN or right is UNKNOWN else f(left, right)


def _op1(f, operand):
    return UNKNOWN if operand is UNKNOWN else f(operand)


def _apply(func, values):
    if any(v is UNKNOWN for v in values):
        return UNKNOWN
    return apply_builtin(func, values)


def _pre(w, ops, mems):
    w.ops += ops
    w.mems += mems


def _fail(w, message, *operands):
    """Raise ``message``: the interpreter's error once ``operands`` were
    evaluated, or (no message) the inspector's abstention."""
    if message is None:
        raise ModelError(
            "indirect access: communication schedule depends on array data"
        )
    raise NodeRuntimeError(message, w.rank)


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------


class _CExpr:
    """A compiled expression: ``src`` evaluates it, raising whatever a
    tree-walk would, and charges only what is not static (a
    short-circuit's right operand); ``ops``/``mems`` are the static
    charge, owed whenever it is reached. ``unknown``: the value is
    statically :data:`UNKNOWN`; ``known``: it never is and evaluating it
    cannot raise (integer arithmetic on constants, ``mynode()`` and
    ``nprocs()``). ``elidable``: when the value is not needed, its
    residual ``checks`` (lookups of names no dominating statement binds)
    can replace ``src``. ``const``: the folded value. ``names``/``reads``
    (variables mentioned; any array read) and their ``sc_`` counterparts
    in short-circuit subtrees feed the loop scan."""

    __slots__ = ("src", "ops", "mems", "unknown", "known", "elidable",
                 "checks", "const", "names", "reads", "sc_names", "sc_reads")

    def __init__(self, src, ops=0, mems=0, kids=(), unknown=False,
                 elidable=True, checks=(), const=_NOTCONST,
                 names=_NO_NAMES, known=False):
        self.src, self.ops, self.mems, self.unknown = src, ops, mems, unknown
        self.known = known or const is not _NOTCONST
        self.elidable, self.checks, self.const = elidable, checks, const
        self.names, self.reads = names, False
        self.sc_names, self.sc_reads = _NO_NAMES, False
        for kid in kids:
            self.ops += kid.ops
            self.mems += kid.mems
            self.elidable = self.elidable and kid.elidable
            self.checks += kid.checks
            self.names |= kid.names
            self.reads |= kid.reads
            self.sc_names |= kid.sc_names
            self.sc_reads |= kid.sc_reads


class _Facts:
    """What a statement list can do to a loop that encloses it: whether
    it communicates (``comm``) or calls, returns or meets inspector nodes
    (``impure``); the scalars it stores by assignment or loop
    (``assigned``) and by receive, coerce or broadcast (``received``);
    the variables (``names``) and whether array data (``reads``) can
    change which events it emits or what they cost."""

    __slots__ = ("comm", "impure", "assigned", "received", "names", "reads")

    def __init__(self):
        self.comm = self.impure = self.reads = False
        self.assigned, self.received, self.names = set(), set(), set()

    def sensitive(self, *ces: _CExpr, sc=False) -> None:
        for ce in ces:
            self.names |= ce.sc_names if sc else ce.names
            self.reads |= ce.sc_reads if sc else ce.reads

    def merge(self, other: "_Facts") -> None:
        for name in _Facts.__slots__:
            setattr(self, name, getattr(self, name) | getattr(other, name))


def _static(ces, ops=0, mems=0):
    """Summed static charge of ``ces`` (plus the caller's own)."""
    for ce in ces:
        ops += ce.ops
        mems += ce.mems
    return ops, mems


def _returning(effects, value):
    """Source evaluating ``effects`` in order, then yielding ``value``."""
    return f"({', '.join(effects)}, {value})[-1]" if effects else value


def _charge(ops, mems):
    return charge_lines(ops, mems, "w")


# The binary operators UNKNOWN's arithmetic spells as in Python.
_PY_OPS = {"+": "+", "-": "-", "*": "*", "/": "/", "div": "//", "mod": "%"}
_INSPECTOR_NODES = (
    ir.NExchange, ir.NResolve, ir.NAccum, ir.NScatterFlush, ir.NAccumLocal,
)


class _WalkGen(Emitter):
    """The generated source of one procedure's walk.

    Expressions become a :class:`_CExpr` of source over ``(w, fr)``;
    statements ``(ops, mems, lines, transparent)``: the static charge
    owed on entry (before any flush), the lines doing the rest, and
    whether charges may be hoisted across it (no flush, no early exit).
    ``defs`` collects the functions the procedure's own one calls: loop
    bodies the policy runs and bodies nested past ``MAX_DEPTH``. In the
    procedure's own function (``top``) a ``return`` is native; elsewhere
    it raises :class:`ProcReturn`. Names are bound as helpers, not
    literals: a compiler mints some (buffers, channels) from parse
    order, and re-parsing a program must not change its text.
    """

    __slots__ = ("observe", "scalars", "arrays", "bound_s", "bound_a",
                 "names", "defs", "loops", "depth", "top")

    def __init__(self, proc: ir.NodeProc, observe: bool):
        super().__init__(_NAMESPACE, "<spmd-walk>")
        self.observe = observe
        # Names bound on every path to the statement being compiled.
        self.bound_s = set(proc.params) - proc.array_params
        self.bound_a = set(proc.params) & proc.array_params
        scalars: dict[str, None] = {}
        arrays: dict[str, None] = {}
        for name, is_array in ir.proc_binders(proc):
            (arrays if is_array else scalars)[name] = None
        self.scalars = {name: slot for slot, name in enumerate(scalars)}
        self.arrays = {n: len(scalars) + k for k, n in enumerate(arrays)}
        self.names: dict = {}  # object -> its helper
        self.defs: list[str] = []
        self.loops: list[tuple[Loop, str]] = []  # (loop, its body's name)
        self.depth = 0
        self.top = True

    def name(self, obj) -> str:
        """The helper bound to ``obj`` (a name, message or operator)."""
        if obj not in self.names:
            self.names[obj] = self.fresh(obj)
        return self.names[obj]

    def fail(self, message, *operands):
        """Source raising ``message`` once ``operands`` are evaluated."""
        return f"_fail({', '.join(['w', self.name(message), *operands])})"

    def nested(self, lines, prefix) -> str:
        """A function ``prefix<n>(w, fr)`` over ``lines`` among ``defs``;
        its name."""
        name = f"{prefix}{self.n}"
        self.n += 1
        self.defs += [f"def {name}(w, fr):", *ind(lines or ["pass"])]
        return name

    # -- expressions ----------------------------------------------------------
    def expr(self, e) -> _CExpr:
        kind = type(e)
        if kind is ir.NConst:
            return _CExpr(self.literal(e.value), const=e.value)
        if kind is ir.NVar:
            return self.lookup(e.name, False)
        if kind is ir.NMyNode or kind is ir.NNProcs:
            return _CExpr("w.rank" if kind is ir.NMyNode else "w.nprocs",
                          known=True)
        if kind is ir.NBin:
            if e.op in ("and", "or"):
                return self.short_circuit(e)
            return self.binary(e)
        if kind is ir.NUn:
            return self.unary(e)
        if kind is ir.NCall:
            return self.call(e)
        if kind is ir.NIsRead or kind is ir.NBufRead:
            return self.read(e)
        if kind is ir.NIndirect:
            return _CExpr("_fail(w, None)", kids=(self.expr(e.index),),
                          elidable=False)
        return _CExpr(self.fail(f"unknown expression {e!r}"), elidable=False)

    def effects(self, ces):
        """What evaluating-and-discarding ``ces`` can still do: the
        residual checks of the elidable ones, the source of the rest."""
        return [src for ce in ces
                for src in (ce.checks if ce.elidable else (ce.src,))]

    def guarded(self, ces, apply):
        """``apply`` over the values of ``ces``, or UNKNOWN when one is:
        every operand is evaluated before any is tested."""
        args, tests = [], []
        for ce in ces:
            args.append(ce.src if ce.known else self.tmp())
            if not ce.known:
                tests.append(f"(({args[-1]} := {ce.src}) is UNKNOWN)")
        if not tests:
            return apply(*args)
        return f"(UNKNOWN if {' | '.join(tests)} else {apply(*args)})"

    def lookup(self, name, array) -> _CExpr:
        """The scalar — or the array or buffer, as a charge-free expr —
        bound to ``name``: its frame slot, else the global."""
        slot = (self.arrays if array else self.scalars).get(name)
        names = _NO_NAMES if array else frozenset((name,))
        if name in (self.bound_a if array else self.bound_s):
            return _CExpr(f"fr[{slot}]", names=names)
        n, t = self.name(name), self.tmp()
        src = f"_array(w, {n})" if array else f"w.globals[{n}]"
        if slot is not None:
            found = f"({t} := fr[{slot}]) is not _UNSET"
            if array:
                found += f" and {t} is not None"
            src = f"({t} if {found} else {src})"
        return _CExpr(src, checks=(src,), names=names)

    def short_circuit(self, e):
        # The right operand is reached — and charged — only when the
        # left does not decide; bool(UNKNOWN) raises ModelError exactly
        # when the interpreter's short-circuit would depend on data.
        left = self.expr(e.left)
        right = self.expr(e.right)
        rhs = f"bool({right.src})"
        if right.ops or right.mems:
            rhs = f"(_pre(w, {right.ops}, {right.mems}) or {rhs})"
        ce = _CExpr(f"(bool({left.src}) {e.op} {rhs})", 1, kids=(left,),
                    elidable=False)
        ce.names |= right.names
        ce.reads |= right.reads
        ce.sc_names, ce.sc_reads = ce.names, ce.reads
        return ce

    def binary(self, e):
        op = e.op
        left, right = self.expr(e.left), self.expr(e.right)
        ce = _CExpr(None, 1, kids=(left, right))
        ce.unknown = left.unknown or right.unknown
        if ce.unknown:  # the operator is never applied
            ce.src = _returning(self.effects((left, right)), "UNKNOWN")
            return ce
        f, what = ir.BINOPS.get(op), None
        if f is None and op in ir.DIVOPS:
            f, what = ir.DIVOPS[op]
        # Can applying the operator be proven not to raise? Not under
        # observers (operands may be symbolic, their operators partial),
        # and a divisor must be a non-zero constant or nprocs().
        nonzero = type(e.right) is ir.NNProcs
        if self.observe or f is None or (
            (what or op == "/") and right.const in (_NOTCONST, 0)
            and not nonzero
        ):
            ce.elidable = False
        safe = nonzero or type(right.const) is int and right.const
        ce.known = (left.known and right.known and f is not None
                    and (safe or not (what or op == "/")))
        sym = _PY_OPS.get(op, op)
        if ce.elidable and _NOTCONST not in (left.const, right.const):
            ce.const = f(left.const, right.const)
            ce.src = self.literal(ce.const)
        elif f is None:  # the left operand is tested first
            tests = [f"{x.src} is UNKNOWN" for x in (left, right)
                     if not x.known]
            ce.src = self.fail(f"unknown operator {op!r}")
            if tests:
                ce.src = f"(UNKNOWN if {' or '.join(tests)} else {ce.src})"
        elif what and not safe:
            ce.src = f"_divide(w, {op!r}, {left.src}, {right.src})"
        elif ce.known or not self.observe and op in _PY_OPS:
            # UNKNOWN's arithmetic yields itself
            ce.src = f"({left.src} {sym} {right.src})"
        elif self.observe:
            ce.src = f"_op({self.name(f)}, {left.src}, {right.src})"
        else:  # a comparison
            ce.src = self.guarded((left, right),
                                  lambda a, b: f"({a} {sym} {b})")
        return ce

    def unary(self, e):
        operand = self.expr(e.operand)
        ce = _CExpr(None, 1, kids=(operand,), unknown=operand.unknown,
                    known=operand.known)
        if ce.unknown:
            ce.src = _returning(self.effects((operand,)), "UNKNOWN")
            return ce
        f = operator.not_ if e.op == "not" else operator.neg
        if self.observe and not ce.known:
            ce.src = f"_op1({self.name(f)}, {operand.src})"
        elif e.op == "not":
            ce.src = self.guarded((operand,), lambda a: f"(not {a})")
        else:
            ce.src = f"(-{operand.src})"
        ce.elidable = ce.elidable and not self.observe
        return ce

    def call(self, e):
        args = [self.expr(a) for a in e.args]
        func = e.func
        ce = _CExpr(None, 1, kids=args, unknown=any(a.unknown for a in args))
        if not is_builtin(func):
            ce.src = self.fail(f"unknown builtin {func!r} in expression",
                               *self.effects(args))
            ce.elidable = False
        elif ce.unknown:
            ce.src = _returning(self.effects(args), "UNKNOWN")
        else:
            values = ", ".join(a.src for a in args)
            ce.src = f"_apply({self.name(func)}, [{values}])"
            if self.observe or len(args) != builtin_arity(func):
                ce.elidable = False
        return ce

    def read(self, e):
        is_read = type(e) is ir.NIsRead
        array = self.lookup(e.array if is_read else e.buf, True)
        indices = [self.expr(i) for i in e.indices]
        ce = _CExpr(None, 0, 1, kids=(array, *indices), unknown=True)
        ce.reads = True
        if self.observe and is_read:
            dims = ", ".join(i.src for i in indices)
            ce.src = f"(w.on_read({array.src}, [{dims}]), UNKNOWN)[1]"
            ce.elidable = False
        else:
            ce.src = _returning(self.effects((array, *indices)), "UNKNOWN")
        return ce

    # -- statements -----------------------------------------------------------
    def stmt(self, s, facts):
        kind = type(s)
        if kind is ir.NAssign:
            value = self.expr(s.value)
            facts.sensitive(value, sc=True)
            slot, lines, ops, mems = self.store(s.target, facts, False)
            if slot is None:
                lines = self.effects((value,)) + lines
            else:
                lines = [f"fr[{slot}] = {value.src}"]
                self.bound_s.add(s.target.name)
            return value.ops + ops, value.mems + mems, lines, True
        if kind is ir.NAllocIs or kind is ir.NAllocBuf:
            shape = [self.expr(d) for d in s.shape]
            facts.sensitive(*shape, sc=True)
            slot = self.arrays[s.name]
            if self.observe and kind is ir.NAllocIs:
                dims = ", ".join(d.src for d in shape)
                alloc = f"w.on_alloc({self.name(s.name)}, [{dims}])"
                lines = [f"fr[{slot}] = {alloc}"]
            else:
                lines = [*self.effects(shape), f"fr[{slot}] = ARRAY"]
            self.bound_a.add(s.name)
            return (*_static(shape), lines, True)
        if kind is ir.NFor:
            return self.for_(s, facts)
        if kind is ir.NIf:
            return self.if_(s, facts)
        if kind in (ir.NSend, ir.NRecv, ir.NSendVec, ir.NRecvVec):
            facts.comm = True
            return self.message(s, facts)
        if kind is ir.NCoerce or kind is ir.NBroadcast:
            facts.comm = True
            return self.owned(s, facts)
        if kind is ir.NComment:
            return 0, 0, None, True
        facts.impure = True  # as the loop scans always classed an alias
        if kind is ir.NArrayAlias:
            self.bound_a.add(s.name)
            return 0, 0, [f"fr[{self.arrays[s.name]}] = ARRAY"], True
        if kind is ir.NCallProc:
            return self.callproc(s, facts)
        if kind is ir.NReturn:
            lines = ["return" if self.top else "raise ProcReturn()"]
            if s.value is None or isinstance(s.value, str):
                return 0, 0, lines, False
            value = self.expr(s.value)
            return value.ops, value.mems, self.effects((value,)) + lines, False
        # Inspector/executor nodes (who talks to whom is decided by
        # index-array *contents* at run time) and unknown statements.
        if kind in _INSPECTOR_NODES:
            return 0, 0, ["_fail(w, None)"], False
        return 0, 0, [self.fail(f"unknown statement {s!r}")], False

    def store(self, target, facts, received):
        """The target of a store whose value the caller supplies:
        ``(slot, lines, ops, mems)``. A scalar target is just its frame
        ``slot``; an array or buffer target never needs the value, only
        ``lines`` for the effects of its index evaluation."""
        kind = type(target)
        if kind is ir.VarLV:
            (facts.received if received else facts.assigned).add(target.name)
            return self.scalars[target.name], [], 0, 0
        if kind not in (ir.IsLV, ir.BufLV):
            return None, [self.fail(f"unknown lvalue {target!r}")], 0, 0
        name = target.array if kind is ir.IsLV else target.buf
        array = self.lookup(name, True)
        indices = [self.expr(i) for i in target.indices]
        facts.sensitive(*indices, sc=True)
        if self.observe and kind is ir.IsLV:
            dims = ", ".join(i.src for i in indices)
            lines = [f"w.on_write({self.name(name)}, {array.src}, [{dims}])"]
        else:
            lines = self.effects((array, *indices))
        return (None, lines, *_static(indices, 0, 1))

    def stores_unknown(self, targets, facts):
        """Lines storing UNKNOWN into received ``targets``, then the
        charges of their index evaluation (after the flush)."""
        lines, ops, mems = [], 0, 0
        for target in targets:
            slot, t_lines, t_ops, t_mems = self.store(target, facts, True)
            lines += t_lines if slot is None else [f"fr[{slot}] = UNKNOWN"]
            ops, mems = ops + t_ops, mems + t_mems
        return lines + _charge(ops, mems)

    def for_(self, s, facts):
        bounds = [self.expr(x) for x in (s.lo, s.hi, s.step)]
        inner = _Facts()
        top, depth = self.top, self.depth
        if self.observe:  # the body runs under the loop policy
            self.top, self.depth = False, 0
        body = self.body(s.body, inner, loop_var=s.var)
        self.top, self.depth = top, depth
        loop = Loop()
        loop.name = s.var
        loop.var = slot = self.scalars[s.var]
        state = inner.assigned | inner.received | {s.var}
        loop.replicable = not (
            inner.impure or inner.reads or inner.names & state
        )
        loop.uniform = loop.replicable and not inner.comm
        loop.assigned = tuple(self.scalars[n] for n in sorted(inner.assigned))
        loop.event_assigned = tuple(
            self.scalars[n] for n in sorted(inner.assigned | inner.received)
        )
        loop.nscalars = len(self.scalars)
        facts.assigned.add(s.var)
        facts.sensitive(*bounds)
        facts.merge(inner)
        transparent = not (inner.comm or inner.impure)
        if self.observe or loop.replicable:
            # A replicable body has no return, so the lines written for
            # this function serve the policy's body function as they are.
            self.loops.append((loop, self.nested(body, "_b")))
            lo, hi, step = (ce.src for ce in bounds)
            line = f"w.loop({self.fresh(loop)}, fr, {lo}, {hi}, {step})"
            return (*_static(bounds), [line], transparent)
        # Any other loop of the plain walk runs every iteration, as
        # Walker.iterate would: in line.
        lines, (lo, hi, step) = [], ("_lo", "_hi", "_by")
        for name, ce in zip((lo, hi, step), bounds):
            lines.append(f"{name} = {ce.src}")
        trips = f"w.trips({lo}, {hi}, {step})"
        lines += [f"for fr[{slot}] in range({lo}, {lo} + {trips} * {step}, "
                  f"{step}):", *ind(body or ["pass"])]
        return (*_static(bounds), lines, transparent)

    def if_(self, s, facts):
        cond = self.expr(s.cond)
        facts.sensitive(cond)
        inner = _Facts()
        levels = 2 if self.observe else 1  # under ``try:`` and ``if``
        then = self.body(s.then_body, inner, levels=levels) or ["pass"]
        other = self.body(s.else_body, inner, levels=levels)
        facts.merge(inner)
        if self.observe:
            taken = self.tmp()
            label = self.name(f"if {pretty_expr(s.cond)}")
            lines = [
                f"{taken} = True if {cond.src} else False",
                f"w.path.append({label})", "try:", f"    if {taken}:",
                *ind(then, 2), *(["    else:", *ind(other, 2)] * bool(other)),
                "finally:", "    w.path.pop()",
            ]
        else:
            lines = [f"if {cond.src}:", *ind(then),
                     *(["else:", *ind(other)] * bool(other))]
        return cond.ops, cond.mems, lines, not (inner.comm or inner.impure)

    def message(self, s, facts):
        """A send or a receive, of scalars or of a buffer's vector."""
        kind = type(s)
        channel = self.name(s.channel)
        if kind is ir.NSend:
            values = [self.expr(v) for v in s.values]
            dst = self.expr(s.dst)
            facts.sensitive(dst)
            facts.sensitive(*values, sc=True)
            lines = [*self.effects(values),
                     f"w.emit_send({dst.src}, {channel}, {len(values)})"]
            return (*_static((*values, dst)), lines, False)
        if kind is ir.NRecv:
            src = self.expr(s.src)
            facts.sensitive(src)
            post = self.stores_unknown(s.targets, facts)
            self.bound_s.update(
                t.name for t in s.targets if type(t) is ir.VarLV
            )
            lines = [f"w.emit_recv({src.src}, {channel})", *post]
            return src.ops, src.mems, lines, False
        sending = kind is ir.NSendVec
        peer = self.expr(s.dst if sending else s.src)
        lo, hi = self.expr(s.lo), self.expr(s.hi)
        facts.sensitive(peer, lo, hi)
        check = self.effects((self.lookup(s.buf, True),))
        bounds = [f"_lo = {lo.src}", f"_hi = {hi.src}"]
        if sending:
            lines = [*check, *bounds, f"_p = {peer.src}",
                     "_n = w.span(_lo, _hi)", "w.mems += _n",
                     f"w.emit_send(_p, {channel}, _n)"]
        else:  # unpacking is charged after the flush
            lines = [f"_p = {peer.src}", *check, *bounds,
                     f"w.emit_recv(_p, {channel})",
                     "w.mems += w.span(_lo, _hi)"]
        return (*_static((peer, lo, hi)), lines, False)

    def owned(self, s, facts):
        """A coerce or broadcast: the owner evaluates the value into the
        target (``keep``, paying the value's charges), a receiver stores
        a received UNKNOWN there (``take``)."""
        coerce = type(s) is ir.NCoerce
        owner = self.expr(s.owner)
        dest = self.expr(s.dest) if coerce else owner
        facts.sensitive(owner, dest)
        value = self.expr(s.value)
        facts.sensitive(value, sc=True)
        slot, lines, t_ops, t_mems = self.store(s.target, facts, True)
        if slot is None:
            keep, take = self.effects((value,)) + lines, lines
        else:
            keep = [f"fr[{slot}] = {value.src}"]
            take = [f"fr[{slot}] = UNKNOWN"]
        keep = _charge(value.ops + t_ops, value.mems + t_mems) + keep
        channel = self.name(s.channel)
        recv = [f"w.emit_recv(_o, {channel})", *take, *_charge(t_ops, t_mems)]
        if not coerce:
            if type(s.target) is ir.VarLV:
                self.bound_s.add(s.target.name)
            lines = [
                f"_o = {owner.src}", "if _o is UNKNOWN:",
                "    raise ModelError("
                "'broadcast owner depends on array data')",
                "if w.rank == _o:", *ind(keep), "    w.flush()",
                "    for _q in range(w.nprocs):", "        if _q != _o:",
                f"            w.emit_send(_q, {channel}, 1)",
                "else:", *ind(recv),
            ]
            return owner.ops + 1, owner.mems, lines, False
        ship = _charge(value.ops, value.mems) + self.effects((value,))
        lines = [
            f"_o = {owner.src}", f"_d = {dest.src}",
            "if _o is UNKNOWN or _d is UNKNOWN:",
            "    raise ModelError('coerce partner depends on array data')",
            "if _o == _d:", "    if w.rank == _d:", *ind(keep or ["pass"], 2),
            "elif w.rank == _o:",
            *ind([*ship, f"w.emit_send(_d, {channel}, 1)"]),
            "elif w.rank == _d:", *ind(recv),
        ]
        # + the two membership tests every processor makes
        return owner.ops + dest.ops + 2, owner.mems + dest.mems, lines, False

    def callproc(self, s, facts):
        args = [self.lookup(a, True) if isinstance(a, str) else self.expr(a)
                for a in s.args]
        post = []
        if s.array_result is not None:
            post = [f"fr[{self.arrays[s.array_result]}] = ARRAY"]
            self.bound_a.add(s.array_result)
        elif s.result is not None:
            post = self.stores_unknown((s.result,), facts)
            if type(s.result) is ir.VarLV:
                self.bound_s.add(s.result.name)
        values = ", ".join(a.src for a in args)
        call = f"w.call({self.name(s.proc)}, [{values}])"
        return (*_static(args), [call, *post], False)

    # -- bodies ---------------------------------------------------------------
    def body(self, stmts, facts, loop_var=None, levels=1):
        """``stmts`` as lines, ``levels`` deeper than the statement
        being written. Static charges are pooled: each run of statements
        that no flush or early exit can separate pays with one addition
        at the head of the run. A loop body (``loop_var`` given) starts
        its pool with the iteration's increment-and-test op."""
        if self.depth + levels > MAX_DEPTH:
            top, depth = self.top, self.depth
            self.top, self.depth = False, 0
            lines = self.body(stmts, facts, loop_var)
            self.top, self.depth = top, depth
            return [f"{self.nested(lines, '_s')}(w, fr)"]
        # Bindings made inside a nested list do not dominate what
        # follows it.
        outer = self.bound_s, self.bound_a
        self.bound_s, self.bound_a = set(self.bound_s), set(self.bound_a)
        self.depth += levels
        ops = mems = 0
        if loop_var is not None:
            self.bound_s.add(loop_var)
            ops = 1
        steps: list = []
        at = None  # index in ``steps`` of the open charge pool
        for stmt in stmts:
            s_ops, s_mems, lines, transparent = self.stmt(stmt, facts)
            ops, mems = ops + s_ops, mems + s_mems
            if at is None and (ops or mems):
                at = len(steps)
                steps.append(None)
            if lines:
                steps.append(lines)
                if not transparent and at is not None:
                    steps[at] = _charge(ops, mems)
                    at, ops, mems = None, 0, 0
        if ops or mems:
            if at is None:
                at = len(steps)
                steps.append(None)
            steps[at] = _charge(ops, mems)
        self.depth -= levels
        self.bound_s, self.bound_a = outer
        return [line for step in steps for line in step]


perf.register_cache("walk_code", {})


def walk_code(program: ir.NodeProgram, observe: bool = False) -> WalkCode:
    """Compile ``program``'s abstract walk (memoized on program identity:
    the ``walk_code`` table of :mod:`repro.perf`): per procedure, its
    function ``_w(w, fr)`` and the ones it calls, compiled as one text.

    ``observe`` selects the code for walkers with access observers; use
    :meth:`Walker.compile`, which derives it from the walker class."""

    def compile_proc(proc):
        gen = _WalkGen(proc, observe)
        body = gen.body(proc.body, _Facts())
        gen.define([*gen.defs, "def _w(w, fr):", *ind(body or ["pass"])])
        for loop, name in gen.loops:
            loop.body = gen.env[name]
        slots = {**gen.scalars, **gen.arrays}
        params = tuple(slots[p] for p in proc.params)
        return Proc(params, len(slots), gen.env["_w"])

    def build():
        procs = {name: compile_proc(p) for name, p in program.procs.items()}
        return WalkCode(program.entry_proc().name, procs)

    return perf.memo("walk_code", (program, observe), build)
