"""The abstract walk over SPMD IR, compiled once per program.

Generated control flow is pure index arithmetic: loop bounds, guards and
communication partners depend on ``mynode()``, ``nprocs()``, params and
loop variables, never on array *data*. A walk that tracks scalars
concretely and treats every array element as :data:`UNKNOWN` therefore
reconstructs each rank's exact event sequence — compute bursts, sends,
receives — without a scheduler. The cost model (:func:`repro.tune.
predict`), skeleton extraction (:func:`repro.replay.extract_skeletons`)
and the verifier (:func:`repro.analysis.verify_compiled`) all run it.

The walk is itself data-independent, so — as :mod:`repro.spmd.compile`
does for the value backend — :func:`walk_code` translates a
:class:`~repro.spmd.ir.NodeProgram` **once** into rank-generic closures
``fn(walker, frame)`` shared by all ranks and consumers. Consumers are
:class:`Walker` subclasses, reached through a small hook set: the
``ops``/``mems`` charge sink with :meth:`Walker.flush`,
:meth:`Walker.emit_send` / :meth:`Walker.emit_recv`, the loop policy
:meth:`Walker.loop`, and the access observers ``on_read`` /
``on_write`` / ``on_alloc``. Two static facts do most of the work:

* **Charge folding.** An expression's op/mem charge is a compile-time
  constant except under short-circuit ``and``/``or``, so the charges of
  a statement — and of a run of statements no flush or return can
  separate — fold into one ``ops += k; mems += m``.
* **Elision.** A value that is discarded (array-store values and
  indices, send payloads, read indices) or statically :data:`UNKNOWN`
  (an array read reaches its root) is not *evaluated* when it provably
  cannot raise: every divisor is a non-zero constant or ``nprocs()``,
  every callee a builtin of the right arity, and every name is bound on
  all paths to the statement or looked up there anyway (the residual
  "unbound variable" / "unknown array" check). Anything else is
  evaluated, so the walk abstains on exactly the programs a plain
  tree-walk abstains on.

Walkers that define the access observers (the verifier) get code that
evaluates every access index and assumes no operator is total (their
loop variables may be symbolic values whose arithmetic can raise).
"""

from __future__ import annotations

import operator
from collections import namedtuple

from repro import perf
from repro.errors import ModelError, NodeRuntimeError
from repro.lang.builtins import apply_builtin, builtin_arity, is_builtin
from repro.machine.rows import (
    KIND_COMPUTE,
    KIND_RECV,
    KIND_REPEAT,
    KIND_SEND,
)
from repro.spmd import ir
from repro.spmd.pretty import pretty_expr


class _Unknown:
    """Opaque stand-in for array-element values.

    Arithmetic on it yields itself; asking for its truth value means a
    branch depends on data, which the walk cannot follow."""

    __slots__ = ()

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


_UNSET = object()  # empty frame slot
_NOTCONST = object()  # "no compile-time constant value" marker
_NO_NAMES: frozenset = frozenset()


class ProcReturn(Exception):
    """Unwinds a node procedure on ``NReturn``."""


def _inspector_error() -> ModelError:
    return ModelError(
        "indirect access: communication schedule depends on array data"
    )


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
#: the body closure.
Proc = namedtuple("Proc", "params nslots body")

#: A program's compiled walk: entry procedure name and ``name -> Proc``.
WalkCode = namedtuple("WalkCode", "entry procs")


class Walker:
    """One rank's walk state and the default hooks.

    Records integer event rows ``(kind, peer, channel id, plen, ops,
    mems)`` exactly where the compiled backend yields effects: a compute
    row per flush — before every communication and at the end of the
    entry procedure — carrying the integer counters its flush formula
    ``ops * op_us + mems * mem_us`` prices. ``chan_ids`` interns channel
    names and is shared by all ranks of one program. The default loop
    policy summarizes what is provably repetitive and stays exact: a
    ``uniform`` loop is one sampled iteration times its trip count
    (:meth:`loop`), a ``replicable`` one is walked twice and followed by
    one repeat marker ``(KIND_REPEAT, -1, -1, 0, span, count)`` for the
    rest (:meth:`iterate`; :func:`repro.machine.rows.expand` gives the
    rows the marker stands for).
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
        self.globals = globals_
        self.chan_ids = {} if chan_ids is None else chan_ids
        self.events: list[tuple] = []
        self.ops = 0
        self.mems = 0
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
            self.events.append(
                (KIND_COMPUTE, -1, -1, 0, self.ops, self.mems)
            )
            self.ops = 0
            self.mems = 0

    def _channel(self, name: str) -> int:
        cid = self.chan_ids.get(name)
        if cid is None:
            cid = self.chan_ids[name] = len(self.chan_ids)
        return cid

    def emit_send(self, dst, channel: str, plen: int) -> None:
        if dst is UNKNOWN:
            raise ModelError("send destination depends on array data")
        if not 0 <= dst < self.nprocs:
            raise NodeRuntimeError(
                f"send to invalid processor {dst}", self.rank
            )
        if dst == self.rank:
            raise NodeRuntimeError(
                f"self-send on channel {channel!r}", self.rank
            )
        self.flush()
        self.events.append(
            (KIND_SEND, dst, self._channel(channel), plen, 0, 0)
        )

    def emit_recv(self, src, channel: str) -> None:
        if src is UNKNOWN:
            raise ModelError("receive source depends on array data")
        if not 0 <= src < self.nprocs:
            raise NodeRuntimeError(
                f"recv from invalid processor {src}", self.rank
            )
        if src == self.rank:
            raise NodeRuntimeError(
                f"self-receive on channel {channel!r}", self.rank
            )
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
        # Communicating loop with an iteration-invariant event stream:
        # walk the first iteration for real (its leading flush merges
        # compute pending from *before* the loop), walk the second for
        # real (its leading flush merges the first iteration's trailing
        # compute — the steady state), then say how often the second
        # iteration's rows repeat. Flush boundaries stay exactly where
        # the compiled backend puts them, which bit-identity of the
        # clock chain depends on.
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
            # iteration-invariant): the loop degenerated to pure
            # compute and pending grows linearly instead.
            self.ops += (self.ops - tail_ops) * more
            self.mems += (self.mems - tail_mems) * more
        elif self.repeats > repeats:
            # A loop inside the steady state already wrote a marker, and
            # markers are flat (no marker inside a span): copy the
            # iteration's compact rows, markers included.
            events += events[mark:] * more
        elif more:
            # The steady-state iteration communicated, so its trailing
            # compute pending is iteration-invariant already: one marker
            # row stands for the remaining iterations' events.
            events.append(
                (KIND_REPEAT, -1, -1, 0, len(events) - mark, more)
            )
            self.repeats += 1
        for slot in loop.event_assigned:
            frame[slot] = UNKNOWN
        frame[var] = lo + (trips - 1) * step


# ---------------------------------------------------------------------------
# Compile-time records
# ---------------------------------------------------------------------------


class _CExpr:
    """A compiled expression.

    ``fn(w, fr)`` evaluates it, raising whatever a tree-walk would, and
    charges only what is not static (the right operand of a
    short-circuit). ``ops``/``mems`` are the static charge, owed
    whenever the expression is reached. ``unknown``: the value is
    statically :data:`UNKNOWN`. ``elidable``: when the value is not
    needed, running the residual ``checks`` — the lookups of names no
    dominating statement binds — can replace ``fn``.
    ``const`` is the folded value. ``names``/``reads`` (variables
    mentioned; any array read) and their ``sc_`` counterparts restricted
    to short-circuit subtrees feed the loop scan.
    """

    __slots__ = ("fn", "ops", "mems", "unknown", "elidable", "checks",
                 "const", "names", "reads", "sc_names", "sc_reads")

    def __init__(self, fn, ops=0, mems=0, kids=(), unknown=False,
                 elidable=True, checks=(), const=_NOTCONST,
                 names=_NO_NAMES):
        self.fn = fn
        self.ops = ops
        self.mems = mems
        self.unknown = unknown
        self.elidable = elidable
        self.checks = checks
        self.const = const
        self.names = names
        self.reads = False
        self.sc_names = _NO_NAMES
        self.sc_reads = False
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
    """What a statement list can do to a loop that encloses it."""

    __slots__ = ("comm", "impure", "assigned", "received", "names", "reads")

    def __init__(self):
        self.comm = False  # communicates
        self.impure = False  # calls, returns, inspector nodes
        self.assigned: set[str] = set()  # scalars stored by assignment/loops
        self.received: set[str] = set()  # ... by recv/coerce/broadcast
        # Variables (and whether array data) that can change which
        # events the statements emit or what they cost.
        self.names: set[str] = set()
        self.reads = False

    def sensitive(self, *ces: _CExpr) -> None:
        for ce in ces:
            self.names |= ce.names
            self.reads |= ce.reads

    def shortcircuit(self, ces) -> None:
        for ce in ces:
            self.names |= ce.sc_names
            self.reads |= ce.sc_reads

    def merge(self, other: "_Facts") -> None:
        self.comm |= other.comm
        self.impure |= other.impure
        self.assigned |= other.assigned
        self.received |= other.received
        self.names |= other.names
        self.reads |= other.reads

    @property
    def transparent(self) -> bool:
        """No flush and no early exit: charges may move across."""
        return not (self.comm or self.impure)


class _Scope:
    """Compile-time context of one procedure."""

    __slots__ = ("observe", "scalars", "arrays", "bound_s", "bound_a")

    def __init__(self, proc: ir.NodeProc, observe: bool):
        self.observe = observe
        # Names bound on every path to the statement being compiled.
        self.bound_s = set(proc.params) - proc.array_params
        self.bound_a = set(proc.params) & proc.array_params
        scalars: dict[str, None] = {}
        arrays: dict[str, None] = {}
        for name, is_array in ir.proc_binders(proc):
            (arrays if is_array else scalars)[name] = None
        self.scalars = {name: slot for slot, name in enumerate(scalars)}
        self.arrays = {
            name: len(scalars) + slot for slot, name in enumerate(arrays)
        }


# ---------------------------------------------------------------------------
# Closure plumbing
# ---------------------------------------------------------------------------


def _noop(w, fr):
    pass


def _seq(fns):
    """One closure running ``fns`` in order; None when there are none."""
    fns = tuple(fn for fn in fns if fn is not None)
    if not fns:
        return None
    if len(fns) == 1:
        return fns[0]
    if len(fns) == 2:
        first, second = fns

        def run(w, fr):
            first(w, fr)
            second(w, fr)
        return run

    def run(w, fr):
        for fn in fns:
            fn(w, fr)
    return run


def _charger(ops, mems):
    """Closure paying a static charge; None when there is none."""
    if not (ops or mems):
        return None

    def charge(w, fr):
        w.ops += ops
        w.mems += mems
    return charge


def _effects(ces):
    """What evaluating-and-discarding ``ces`` can still do: the residual
    name lookups of the elidable ones, ``fn`` of the rest — in order."""
    fns: list = []
    for ce in ces:
        fns.extend(ce.checks if ce.elidable else (ce.fn,))
    return _seq(fns)


def _returning(effects, value):
    if effects is None:
        def fn(w, fr):
            return value
    else:
        def fn(w, fr):
            effects(w, fr)
            return value
    return fn


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _expr(e: ir.NExpr, sc: _Scope) -> _CExpr:
    compile_fn = _EXPR_COMPILERS.get(type(e))
    if compile_fn is not None:
        return compile_fn(e, sc)

    def fn(w, fr):
        raise NodeRuntimeError(f"unknown expression {e!r}", w.rank)
    return _CExpr(fn, elidable=False)


def _var(e, sc):
    name = e.name
    slot = sc.scalars.get(name)
    names = frozenset((name,))
    if name in sc.bound_s:
        def fn(w, fr):
            return fr[slot]
        return _CExpr(fn, names=names)

    def fn(w, fr):
        found = _UNSET if slot is None else fr[slot]
        if found is _UNSET:
            found = w.globals.get(name, _UNSET)
            if found is _UNSET:
                raise NodeRuntimeError(f"unbound variable {name!r}", w.rank)
        return found
    return _CExpr(fn, checks=(fn,), names=names)


def _static(ces, ops=0, mems=0):
    """Summed static charge of ``ces`` (plus the caller's own)."""
    for ce in ces:
        ops += ce.ops
        mems += ce.mems
    return ops, mems


def _bin(e, sc):
    op = e.op
    left = _expr(e.left, sc)
    right = _expr(e.right, sc)
    lf, rf = left.fn, right.fn
    if op in ("and", "or"):
        # The right operand is reached — and charged — only when the
        # left does not decide; bool(UNKNOWN) raises ModelError exactly
        # when the interpreter's short-circuit would depend on data.
        r_ops, r_mems = right.ops, right.mems
        decided = op == "or"

        def fn(w, fr):
            if bool(lf(w, fr)) is decided:
                return decided
            w.ops += r_ops
            w.mems += r_mems
            return bool(rf(w, fr))
        ce = _CExpr(fn, 1, kids=(left,), elidable=False)
        ce.names |= right.names
        ce.reads |= right.reads
        ce.sc_names, ce.sc_reads = ce.names, ce.reads
        return ce

    ce = _CExpr(None, 1, kids=(left, right))
    ce.unknown = left.unknown or right.unknown
    if ce.unknown:  # the operator is never applied
        ce.fn = _returning(_effects((left, right)), UNKNOWN)
        return ce
    f = ir.BINOPS.get(op)
    what = None
    if f is None and op in ir.DIVOPS:
        f, what = ir.DIVOPS[op]
    # Can applying the operator be proven not to raise? Not under
    # observers (operands may be symbolic, their operators partial),
    # and a divisor must be a non-zero constant or nprocs().
    if sc.observe or f is None or (
        (what or op == "/") and right.const in (_NOTCONST, 0)
        and type(e.right) is not ir.NNProcs
    ):
        ce.elidable = False
    if ce.elidable and _NOTCONST not in (left.const, right.const):
        ce.const = f(left.const, right.const)
        ce.fn = _returning(None, ce.const)
    elif f is None:
        def fn(w, fr):
            if lf(w, fr) is UNKNOWN or rf(w, fr) is UNKNOWN:
                return UNKNOWN
            raise NodeRuntimeError(f"unknown operator {op!r}", w.rank)
        ce.fn = fn
    elif what:
        def fn(w, fr):
            lv = lf(w, fr)
            rv = rf(w, fr)
            if lv is UNKNOWN or rv is UNKNOWN:
                return UNKNOWN
            if rv == 0:
                raise NodeRuntimeError(f"{what} by zero", w.rank)
            return f(lv, rv)
        ce.fn = fn
    elif right.const is not _NOTCONST:
        const = right.const

        def fn(w, fr):
            lv = lf(w, fr)
            return UNKNOWN if lv is UNKNOWN else f(lv, const)
        ce.fn = fn
    else:
        def fn(w, fr):
            lv = lf(w, fr)
            rv = rf(w, fr)
            if lv is UNKNOWN or rv is UNKNOWN:
                return UNKNOWN
            return f(lv, rv)
        ce.fn = fn
    return ce


def _un(e, sc):
    operand = _expr(e.operand, sc)
    of = operand.fn
    f = operator.not_ if e.op == "not" else operator.neg
    ce = _CExpr(None, 1, kids=(operand,), unknown=operand.unknown)
    if ce.unknown:
        ce.fn = _returning(_effects((operand,)), UNKNOWN)
        return ce

    def fn(w, fr):
        value = of(w, fr)
        return UNKNOWN if value is UNKNOWN else f(value)
    ce.fn = fn
    if sc.observe:
        ce.elidable = False
    return ce


def _call(e, sc):
    args = tuple(_expr(a, sc) for a in e.args)
    func = e.func
    ce = _CExpr(None, 1, kids=args, unknown=any(a.unknown for a in args))
    if not is_builtin(func):
        pre = _effects(args) or _noop

        def fn(w, fr):
            pre(w, fr)
            raise NodeRuntimeError(
                f"unknown builtin {func!r} in expression", w.rank
            )
        ce.fn = fn
        ce.elidable = False
    elif ce.unknown:
        ce.fn = _returning(_effects(args), UNKNOWN)
    else:
        fns = tuple(a.fn for a in args)

        def fn(w, fr):
            values = [f(w, fr) for f in fns]
            if any(v is UNKNOWN for v in values):
                return UNKNOWN
            return apply_builtin(func, values)
        ce.fn = fn
        if sc.observe or len(args) != builtin_arity(func):
            ce.elidable = False
    return ce


def _array(name: str, sc: _Scope) -> _CExpr:
    """The array (or buffer) bound to ``name``, as a charge-free expr."""
    slot = sc.arrays.get(name)
    if name in sc.bound_a:
        def fn(w, fr):
            return fr[slot]
        return _CExpr(fn)

    def fn(w, fr):
        found = _UNSET if slot is None else fr[slot]
        if found is _UNSET or found is None:
            found = w.globals.get(name)
            if found is None:
                raise NodeRuntimeError(f"unknown array {name!r}", w.rank)
        return found
    return _CExpr(fn, checks=(fn,))


def _read(e, sc):
    observed = sc.observe and type(e) is ir.NIsRead
    name = e.array if type(e) is ir.NIsRead else e.buf
    array = _array(name, sc)
    indices = tuple(_expr(i, sc) for i in e.indices)
    ce = _CExpr(None, 0, 1, kids=(array,) + indices, unknown=True)
    ce.reads = True
    if observed:
        get = array.fn
        fns = tuple(i.fn for i in indices)

        def fn(w, fr):
            w.on_read(get(w, fr), [f(w, fr) for f in fns])
            return UNKNOWN
        ce.fn = fn
        ce.elidable = False
    else:
        ce.fn = _returning(_effects((array,) + indices), UNKNOWN)
    return ce


def _indirect(e, sc):
    def fn(w, fr):
        raise _inspector_error()
    ce = _CExpr(fn, kids=(_expr(e.index, sc),))
    ce.elidable = False
    return ce


_EXPR_COMPILERS = {
    ir.NConst: lambda e, sc: _CExpr(_returning(None, e.value), const=e.value),
    ir.NVar: _var,
    ir.NMyNode: lambda e, sc: _CExpr(lambda w, fr: w.rank),
    ir.NNProcs: lambda e, sc: _CExpr(lambda w, fr: w.nprocs),
    ir.NBin: _bin,
    ir.NUn: _un,
    ir.NCall: _call,
    ir.NIsRead: _read,
    ir.NBufRead: _read,
    ir.NIndirect: _indirect,
}


# ---------------------------------------------------------------------------
# Statements: each compiler returns (ops, mems, fn | None, transparent) —
# the static charge owed on entry (before any flush), the closure doing
# the rest, and whether charges may be hoisted across it.
# ---------------------------------------------------------------------------


def _store(target, sc: _Scope, facts: _Facts, received: bool):
    """Compile the target of a store whose value the caller supplies.

    Returns ``(slot, fn, ops, mems)``: a scalar target is just its frame
    ``slot``; an array or buffer target never needs the value, only
    ``fn`` (or nothing) for the effects of its index evaluation."""
    kind = type(target)
    if kind is ir.VarLV:
        (facts.received if received else facts.assigned).add(target.name)
        return sc.scalars[target.name], None, 0, 0
    if kind not in (ir.IsLV, ir.BufLV):
        def fn(w, fr):
            raise NodeRuntimeError(f"unknown lvalue {target!r}", w.rank)
        return None, fn, 0, 0
    name = target.array if kind is ir.IsLV else target.buf
    array = _array(name, sc)
    indices = tuple(_expr(i, sc) for i in target.indices)
    facts.shortcircuit(indices)
    if sc.observe and kind is ir.IsLV:
        get = array.fn
        fns = tuple(i.fn for i in indices)

        def fn(w, fr):
            w.on_write(name, get(w, fr), [f(w, fr) for f in fns])
    else:
        fn = _effects((array,) + indices)
    return (None, fn) + _static(indices, 0, 1)


def _set(slot, value):
    def fn(w, fr):
        fr[slot] = value
    return fn


def _assign(stmt, sc, facts):
    value = _expr(stmt.value, sc)
    facts.shortcircuit((value,))
    slot, tfn, ops, mems = _store(stmt.target, sc, facts, False)
    if slot is None:
        fn = _seq((_effects((value,)), tfn))
    else:
        vf = value.fn

        def fn(w, fr):
            fr[slot] = vf(w, fr)
        sc.bound_s.add(stmt.target.name)
    return value.ops + ops, value.mems + mems, fn, True


def _alloc(stmt, sc, facts):
    shape = tuple(_expr(d, sc) for d in stmt.shape)
    facts.shortcircuit(shape)
    name = stmt.name
    slot = sc.arrays[name]
    if sc.observe and type(stmt) is ir.NAllocIs:
        fns = tuple(d.fn for d in shape)

        def fn(w, fr):
            fr[slot] = w.on_alloc(name, [f(w, fr) for f in fns])
    else:
        fn = _seq((_effects(shape), _set(slot, ARRAY)))
    sc.bound_a.add(name)
    return _static(shape) + (fn, True)


def _for(stmt, sc, facts):
    lo = _expr(stmt.lo, sc)
    hi = _expr(stmt.hi, sc)
    step = _expr(stmt.step, sc)
    inner = _Facts()
    body = _body(stmt.body, sc, inner, loop_var=stmt.var)

    loop = Loop()
    loop.name = stmt.var
    loop.var = sc.scalars[stmt.var]
    loop.body = body
    state = inner.assigned | inner.received | {stmt.var}
    loop.replicable = not (
        inner.impure or inner.reads or inner.names & state
    )
    loop.uniform = loop.replicable and not inner.comm
    loop.assigned = tuple(sc.scalars[n] for n in sorted(inner.assigned))
    loop.event_assigned = tuple(
        sc.scalars[n] for n in sorted(inner.assigned | inner.received)
    )
    loop.nscalars = len(sc.scalars)

    facts.assigned.add(stmt.var)
    facts.sensitive(lo, hi, step)
    facts.merge(inner)
    lof, hif, stepf = lo.fn, hi.fn, step.fn

    def fn(w, fr):
        w.loop(loop, fr, lof(w, fr), hif(w, fr), stepf(w, fr))
    return _static((lo, hi, step)) + (fn, inner.transparent)


def _if(stmt, sc, facts):
    cond = _expr(stmt.cond, sc)
    facts.sensitive(cond)
    inner = _Facts()
    then = _body(stmt.then_body, sc, inner)
    other = _body(stmt.else_body, sc, inner)
    facts.merge(inner)
    condf = cond.fn
    if sc.observe:
        label = f"if {pretty_expr(stmt.cond)}"

        def fn(w, fr):
            taken = then if condf(w, fr) else other
            w.path.append(label)
            try:
                taken(w, fr)
            finally:
                w.path.pop()
    elif other is _noop:
        def fn(w, fr):
            if condf(w, fr):
                then(w, fr)
    else:
        def fn(w, fr):
            if condf(w, fr):
                then(w, fr)
            else:
                other(w, fr)
    return cond.ops, cond.mems, fn, inner.transparent


def _send(stmt, sc, facts):
    values = tuple(_expr(v, sc) for v in stmt.values)
    dst = _expr(stmt.dst, sc)
    facts.comm = True
    facts.sensitive(dst)
    facts.shortcircuit(values)
    dstf, channel, plen = dst.fn, stmt.channel, len(values)

    def fn(w, fr):
        w.emit_send(dstf(w, fr), channel, plen)
    fn = _seq((_effects(values), fn))
    return _static(values + (dst,)) + (fn, False)


def _stores_unknown(targets, sc, facts):
    """Closure storing UNKNOWN into received ``targets`` (with the
    charges of their index evaluation, which land *after* the flush)."""
    fns = []
    ops = mems = 0
    for target in targets:
        slot, tfn, t_ops, t_mems = _store(target, sc, facts, True)
        fns.append(tfn if slot is None else _set(slot, UNKNOWN))
        ops += t_ops
        mems += t_mems
    fns.append(_charger(ops, mems))
    return _seq(fns) or _noop


def _recv(stmt, sc, facts):
    src = _expr(stmt.src, sc)
    facts.comm = True
    facts.sensitive(src)
    post = _stores_unknown(stmt.targets, sc, facts)
    sc.bound_s.update(
        t.name for t in stmt.targets if type(t) is ir.VarLV
    )
    srcf, channel = src.fn, stmt.channel

    def fn(w, fr):
        w.emit_recv(srcf(w, fr), channel)
        post(w, fr)
    return src.ops, src.mems, fn, False


def _vector(stmt, sc, facts):
    sending = type(stmt) is ir.NSendVec
    peer = _expr(stmt.dst if sending else stmt.src, sc)
    lo = _expr(stmt.lo, sc)
    hi = _expr(stmt.hi, sc)
    facts.comm = True
    facts.sensitive(peer, lo, hi)
    check = _effects((_array(stmt.buf, sc),)) or _noop
    peerf, lof, hif, channel = peer.fn, lo.fn, hi.fn, stmt.channel

    if sending:
        def fn(w, fr):
            check(w, fr)
            lo_v = lof(w, fr)
            hi_v = hif(w, fr)
            dst = peerf(w, fr)
            plen = w.span(lo_v, hi_v)
            w.mems += plen
            w.emit_send(dst, channel, plen)
    else:
        def fn(w, fr):
            src = peerf(w, fr)
            check(w, fr)
            lo_v = lof(w, fr)
            hi_v = hif(w, fr)
            w.emit_recv(src, channel)
            w.mems += w.span(lo_v, hi_v)  # unpacking: after the flush
    return _static((peer, lo, hi)) + (fn, False)


def _owned_value(stmt, sc, facts):
    """The stores of a coerce/broadcast: ``(value, keep, take)``.

    ``keep`` evaluates ``stmt.value`` into ``stmt.target`` and pays the
    value's charges, owed only on the rank that evaluates it; ``take``
    stores a received UNKNOWN there."""
    value = _expr(stmt.value, sc)
    facts.shortcircuit((value,))
    slot, tfn, t_ops, t_mems = _store(stmt.target, sc, facts, True)
    if slot is None:
        keep = _seq((_effects((value,)), tfn))
        take = tfn
    else:
        vf = value.fn

        def keep(w, fr):
            fr[slot] = vf(w, fr)
        take = _set(slot, UNKNOWN)
    pay = _charger(value.ops + t_ops, value.mems + t_mems)
    return (
        value,
        _seq((pay, keep)) or _noop,
        _seq((take, _charger(t_ops, t_mems))) or _noop,
    )


def _coerce(stmt, sc, facts):
    owner = _expr(stmt.owner, sc)
    dest = _expr(stmt.dest, sc)
    facts.comm = True
    facts.sensitive(owner, dest)
    value, keep, take = _owned_value(stmt, sc, facts)
    ship = _seq(
        (_charger(value.ops, value.mems), _effects((value,)))
    ) or _noop
    ownerf, destf, channel = owner.fn, dest.fn, stmt.channel

    def fn(w, fr):
        o = ownerf(w, fr)
        d = destf(w, fr)
        if o is UNKNOWN or d is UNKNOWN:
            raise ModelError("coerce partner depends on array data")
        if o == d:
            if w.rank == d:
                keep(w, fr)
        elif w.rank == o:
            ship(w, fr)
            w.emit_send(d, channel, 1)
        elif w.rank == d:
            w.emit_recv(o, channel)
            take(w, fr)
    # + the two membership tests every processor makes
    return owner.ops + dest.ops + 2, owner.mems + dest.mems, fn, False


def _broadcast(stmt, sc, facts):
    owner = _expr(stmt.owner, sc)
    facts.comm = True
    facts.sensitive(owner)
    _, keep, take = _owned_value(stmt, sc, facts)
    if type(stmt.target) is ir.VarLV:
        sc.bound_s.add(stmt.target.name)
    ownerf, channel = owner.fn, stmt.channel

    def fn(w, fr):
        o = ownerf(w, fr)
        if o is UNKNOWN:
            raise ModelError("broadcast owner depends on array data")
        if w.rank == o:
            keep(w, fr)
            w.flush()
            for q in range(w.nprocs):
                if q != o:
                    w.emit_send(q, channel, 1)
        else:
            w.emit_recv(o, channel)
            take(w, fr)
    return owner.ops + 1, owner.mems, fn, False


def _callproc(stmt, sc, facts):
    facts.impure = True
    args = tuple(
        _array(a, sc) if isinstance(a, str) else _expr(a, sc)
        for a in stmt.args
    )
    fns = tuple(a.fn for a in args)
    if stmt.array_result is not None:
        post = _set(sc.arrays[stmt.array_result], ARRAY)
        sc.bound_a.add(stmt.array_result)
    elif stmt.result is not None:
        post = _stores_unknown((stmt.result,), sc, facts)
        if type(stmt.result) is ir.VarLV:
            sc.bound_s.add(stmt.result.name)
    else:
        post = _noop
    proc = stmt.proc

    def fn(w, fr):
        w.call(proc, [f(w, fr) for f in fns])
        post(w, fr)
    return _static(args) + (fn, False)


def _return(stmt, sc, facts):
    facts.impure = True
    ops = mems = 0
    pre = _noop
    if stmt.value is not None and not isinstance(stmt.value, str):
        value = _expr(stmt.value, sc)
        ops, mems = value.ops, value.mems
        pre = _effects((value,)) or _noop

    def fn(w, fr):
        pre(w, fr)
        raise ProcReturn()
    return ops, mems, fn, False


def _alias(stmt, sc, facts):
    facts.impure = True  # as the loop scans always classed it
    sc.bound_a.add(stmt.name)
    return 0, 0, _set(sc.arrays[stmt.name], ARRAY), True


_STMT_COMPILERS = {
    ir.NAssign: _assign,
    ir.NAllocIs: _alloc,
    ir.NAllocBuf: _alloc,
    ir.NFor: _for,
    ir.NIf: _if,
    ir.NSend: _send,
    ir.NRecv: _recv,
    ir.NSendVec: _vector,
    ir.NRecvVec: _vector,
    ir.NCoerce: _coerce,
    ir.NBroadcast: _broadcast,
    ir.NCallProc: _callproc,
    ir.NReturn: _return,
    ir.NComment: lambda stmt, sc, facts: (0, 0, None, True),
    ir.NArrayAlias: _alias,
}
_INSPECTOR_NODES = (
    ir.NExchange, ir.NResolve, ir.NAccum, ir.NScatterFlush, ir.NAccumLocal,
)


def _unwalkable(stmt, sc, facts):
    """Inspector/executor nodes (who talks to whom is decided by
    index-array *contents* at run time) and unknown statements."""
    facts.impure = True
    inspector = type(stmt) in _INSPECTOR_NODES

    def fn(w, fr):
        if inspector:
            raise _inspector_error()
        raise NodeRuntimeError(f"unknown statement {stmt!r}", w.rank)
    return 0, 0, fn, False


def _body(stmts, sc: _Scope, facts: _Facts, loop_var: str | None = None):
    """Compile a statement list into one closure.

    Static charges are pooled: each run of statements that no flush or
    early exit can separate pays with a single addition placed at the
    head of the run. A loop body (``loop_var`` given) starts its pool
    with the iteration's increment-and-test op."""
    # Bindings made inside a nested list do not dominate what follows it.
    outer = sc.bound_s, sc.bound_a
    sc.bound_s, sc.bound_a = set(sc.bound_s), set(sc.bound_a)
    ops = mems = 0
    if loop_var is not None:
        sc.bound_s.add(loop_var)
        ops = 1
    steps: list = []
    at = None  # index in ``steps`` of the open charge pool
    for stmt in stmts:
        compile_fn = _STMT_COMPILERS.get(type(stmt), _unwalkable)
        s_ops, s_mems, fn, transparent = compile_fn(stmt, sc, facts)
        ops += s_ops
        mems += s_mems
        if at is None and (ops or mems):
            at = len(steps)
            steps.append(None)
        if fn is not None:
            steps.append(fn)
            if not transparent and at is not None:
                steps[at] = _charger(ops, mems)
                at, ops, mems = None, 0, 0
    if ops or mems:
        if at is None:
            at = len(steps)
            steps.append(None)
        steps[at] = _charger(ops, mems)
    sc.bound_s, sc.bound_a = outer
    return _seq(steps) or _noop


perf.register_cache("walk_code", {})


def walk_code(program: ir.NodeProgram, observe: bool = False) -> WalkCode:
    """Compile ``program``'s abstract walk (memoized on program identity:
    the ``walk_code`` table of :mod:`repro.perf`).

    ``observe`` selects the code for walkers with access observers; use
    :meth:`Walker.compile`, which derives it from the walker class."""

    def build():
        procs = {}
        for name, proc in program.procs.items():
            sc = _Scope(proc, observe)
            body = _body(proc.body, sc, _Facts())
            slots = {**sc.scalars, **sc.arrays}
            procs[name] = Proc(
                tuple(slots[p] for p in proc.params), len(slots), body
            )
        return WalkCode(program.entry_proc().name, procs)

    return perf.memo("walk_code", (program, observe), build)
