"""The one statement emitter: a node procedure as Python source, in two
domains.

The paper's compiler writes one node program per processor (§3.1–3.2,
Appendix A) and prices it with the iPSC/2's per-operation, per-memory-
access and per-message costs (§2.2, §4). This repository runs that
program two ways, and :class:`Gen` writes both, once per procedure:

* the *value* domain (:data:`ValueDomain`, run by
  :mod:`repro.spmd.compile`, the ``compiled`` backend) computes every
  value and records the rows a run clocks;
* the *abstract* domain (:data:`WalkDomain`, run by
  :mod:`repro.spmd.walk`: ``predict``, replay skeletons, the verifier)
  tracks scalars concretely and treats array elements as ``UNKNOWN``,
  recording the same rows without the data.

:class:`Gen` owns what the two share. One expression compiler returns a
:class:`_CExpr` per node: its source, its static charge from
:mod:`repro.spmd.charges`, its folded constant and what the walk's
elision and loop scan need. Statements are written one straight-line
*run* at a time: the static charges of a run are summed and written as
one ``st.ops += k`` / ``st.mems += m`` where the run ends — before a
statement that sits behind a flush, calls a procedure that may flush, or
may return — so no charge crosses a flush and none is made for a
statement a return skipped. Bodies nested deeper than ``MAX_DEPTH``
become functions of their own. Names a compiler mints from parse order
(buffers, channels, schedules) are bound as helpers, never written as
literals, so a program parsed again prints the same text and compiles
once (:func:`cg_code`).

A domain supplies the rest, through its methods (called with the
emitter): how an operand is spelled (concrete, or ``UNKNOWN``-aware),
what an effect emits (a row and a FIFO push, or ``st.emit_*``), the loop
policy (a native ``for``, or ``st.loop`` with the :class:`Loop` facts)
and, in the verifier's flavour (``observe``), the access observers.
Generated functions run in the namespace of the module that runs them,
over ``st`` (the rank's state or walker) and ``fr`` (the frame); the
run-time helpers both namespaces need are defined here.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from repro.errors import ModelError, NodeRuntimeError
from repro.lang.builtins import apply_builtin, builtin_arity, is_builtin
from repro.machine.rows import KIND_COMPUTE, KIND_RECV
from repro.spmd import ir
from repro.spmd.charges import CHARGES
from repro.spmd.pretty import pretty_expr

# Bodies nested deeper than this become functions of their own: CPython
# rejects more than 20 statically nested blocks and 100 indentation
# levels, and a statement adds a few of its own under its body's level.
MAX_DEPTH = 16


@lru_cache(maxsize=4096)
def cg_code(src: str, filename: str):
    """The code object of ``src``. Helper and temporary names are
    counter-based, so structurally identical procedures (the same one at
    every optimization level, in every rank's specialized program, or
    parsed again) produce byte-identical text and compile once."""
    return compile(src, filename, "exec")


def ind(lines, levels=1):
    pad = "    " * levels
    return [pad + line for line in lines]


def charge_lines(ops, mems):
    """Statements adding a static cost to the rank's counters."""
    return ([f"st.ops += {ops}"] if ops else []) + (
        [f"st.mems += {mems}"] if mems else []
    )


# ---------------------------------------------------------------------------
# Run-time helpers both domains' generated code calls
# ---------------------------------------------------------------------------

_UNSET = object()  # an empty frame slot (distinct from a stored None)
_NORET = object()  # what a split-off body returns when it did not return


class Globals(dict):
    """A rank's globals: reading a missing one as a scalar is an error."""

    __slots__ = ("rank",)

    def __missing__(self, name):
        raise NodeRuntimeError(f"unbound variable {name!r}", self.rank)


def _array(st, name):
    """An array with no frame binding: the global, else unknown."""
    found = st.globals.get(name)
    if found is None:
        raise NodeRuntimeError(f"unknown array {name!r}", st.rank)
    return found


def _pre(st, ops, mems):
    st.ops += ops
    st.mems += mems


def _fail(st, message, *operands):
    """Raise ``message``: the interpreter's error once ``operands`` were
    evaluated, or (no message) the walk's abstention on the inspector."""
    if message is None:
        raise ModelError(
            "indirect access: communication schedule depends on array data"
        )
    raise NodeRuntimeError(message, st.rank)


class Loop:
    """One ``NFor``, as a walker's loop policy sees it.

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


# ---------------------------------------------------------------------------
# Expressions and facts
# ---------------------------------------------------------------------------

_NOTCONST = object()  # "no compile-time constant value" marker
_NO_NAMES: frozenset = frozenset()
_BIN = CHARGES[ir.NBin].ops  # an operator's own operation
_UN = CHARGES[ir.NUn].ops
_CALL = CHARGES[ir.NCall].ops


class _CExpr:
    """A compiled expression: ``src`` evaluates it, raising whatever the
    interpreter would, and charges only what is not static (a
    short-circuit's right operand, the inspector's metered read);
    ``ops``/``mems`` are the static charge, owed whenever it is reached.
    ``const``: the folded value. The rest serve the abstract domain:
    ``unknown`` — the value is statically ``UNKNOWN``; ``known`` — it
    never is and evaluating it cannot raise; ``elidable`` — when the
    value is not needed, its residual ``checks`` (lookups of names no
    dominating statement binds) can replace ``src``; ``names``/``reads``
    (variables mentioned; any array read) and their ``sc_`` counterparts
    in short-circuit subtrees feed the loop scan. The value domain, in a
    loop: ``inv`` — source computing the value, when it is the same on
    every trip (over ``nprocs()``, ``mynode()``, constants and globals,
    with no operator that can raise on numbers); ``heavy`` — it reads a
    global or divides, so is worth hoisting; ``hoisted`` — the local it
    is hoisted to. The constructor sums the ``kids``' facts; an
    attribute left alone keeps its class default, which keeps the many
    leaves cheap to make."""

    ops = mems = 0
    unknown = known = reads = sc_reads = heavy = False
    elidable = True
    checks = ()
    const = _NOTCONST
    names = sc_names = _NO_NAMES
    inv = hoisted = None

    def __init__(self, src, ops=0, mems=0, kids=()):
        self.src = src
        self.ops = ops
        self.mems = mems
        if not kids:
            return
        elidable, checks, reads, sc_reads = True, (), False, False
        names = sc_names = _NO_NAMES
        for kid in kids:
            ops += kid.ops
            mems += kid.mems
            elidable = elidable and kid.elidable
            if kid.checks:
                checks += kid.checks
            if kid.names:
                names |= kid.names
            if kid.sc_names:
                sc_names |= kid.sc_names
            reads = reads or kid.reads
            sc_reads = sc_reads or kid.sc_reads
        self.ops, self.mems, self.elidable, self.checks = (
            ops, mems, elidable, checks)
        self.names, self.reads = names, reads
        self.sc_names, self.sc_reads = sc_names, sc_reads


def _const(src, value):
    """A folded constant spelled ``src``."""
    ce = _CExpr(src)
    ce.const, ce.known = value, True
    return ce


def _raising(src, kids=()):
    """An expression that may raise whatever its value: never elided."""
    ce = _CExpr(src, 0, 0, kids)
    ce.elidable = False
    return ce


class _Facts:
    """What a statement list can do to the run, loop and function around
    it: record an effect, so flush (``effects``); return (``exits``);
    wait on a receive (``blocks``). And, for the walk's loop scan,
    whether it communicates (``comm``) or calls, returns, aliases or
    meets inspector nodes (``impure``); the scalars it stores by
    assignment or loop (``assigned``) and by receive, coerce, broadcast
    or call (``received``); the variables (``names``) and whether array
    data (``reads``) can change which events it emits or what they
    cost."""

    __slots__ = ("effects", "exits", "blocks", "comm", "impure", "assigned",
                 "received", "names", "reads")

    def __init__(self):
        self.effects = self.exits = self.blocks = False
        self.comm = self.impure = self.reads = False
        self.assigned, self.received, self.names = set(), set(), set()

    def sensitive(self, *ces: _CExpr, sc=False) -> None:
        for ce in ces:
            self.names |= ce.sc_names if sc else ce.names
            self.reads |= ce.sc_reads if sc else ce.reads

    def merge(self, other: "_Facts") -> None:
        self.effects |= other.effects
        self.exits |= other.exits
        self.blocks |= other.blocks
        self.comm |= other.comm
        self.impure |= other.impure
        self.reads |= other.reads
        self.assigned |= other.assigned
        self.received |= other.received
        self.names |= other.names


def _hoisted(hoists):
    """Lines computing a loop nest's hoisted invariants before it. Each
    is None if evaluating one raises: its uses then evaluate it in place
    and raise there, so no error moves."""
    live = [(name, src) for src, (name, uses) in hoists.items() if uses]
    if not live:
        return []
    return [" = ".join(name for name, _ in live) + " = None", "try:",
            *(f"    {name} = {src}" for name, src in live),
            "except Exception:", "    pass"]


def _returning(effects, value):
    """Source evaluating ``effects`` in order, then yielding ``value``."""
    return f"({', '.join(effects)}, {value})[-1]" if effects else value


# op -> (its function, whether it divides, its Python spelling, and
# whether UNKNOWN's arithmetic spells it natively: it yields itself).
# ``div``/``mod`` by a divisor not known to be non-zero call the module's
# checking ``_div``/``_mod`` instead: in the walk always, in the value
# domain only to raise (:meth:`Gen.divide`).
_OPS = {op: (f, False, op, op in "+-*") for op, f in ir.BINOPS.items()}
_OPS["/"] = ir.BINOPS["/"], True, "/", True
_OPS.update((op, (f, True, sym, True)) for op, (f, _), sym in (
    ("div", ir.DIVOPS["div"], "//"), ("mod", ir.DIVOPS["mod"], "%")))
_DIVIDE = {"div": "_div", "mod": "_mod"}
_NUMBER = (bool, int, float)


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------


class Gen:
    """The generated source of one procedure in one domain ``d``.

    ``kinds`` maps the procedures written before this one to ``(kind,
    fn)``: ``"gen"`` if it may block on a receive, ``"sends"`` if it may
    record an effect, ``"pure"`` if neither, and whether a call ends the
    run follows from it. Frame slots ``[0, len(scalars))`` hold scalars,
    the rest arrays. ``bound_s``/``bound_a``: names bound on every path
    to the statement being written, read from their slots without a
    fallback. ``defs`` collects the functions the procedure's own one
    calls (loop bodies a walker's policy runs, bodies nested past
    ``MAX_DEPTH``) when the domain writes them into its text; ``top``:
    the statement is written into that function itself, not one of
    these. ``hoists``: in the value domain, inside a loop of the
    function being written, the invariants hoisted before its outermost
    loop (source -> ``[local, uses]``); None elsewhere.
    """

    __slots__ = ("d", "abstract", "observe", "env", "n", "kinds", "scalars",
                 "arrays", "bound_s", "bound_a", "names", "defs", "loops",
                 "out", "ops", "mems", "facts", "depth", "top", "hoists")

    def __init__(self, proc: ir.NodeProc, domain, kinds: dict):
        self.d = domain
        self.abstract = domain.abstract
        self.observe = domain.observe
        self.env = dict(domain.namespace, _procs=kinds)
        self.n = 0
        self.kinds = kinds
        scalars: dict[str, None] = {}
        arrays: dict[str, None] = {}
        for name, is_array in ir.proc_binders(proc):
            (arrays if is_array else scalars)[name] = None
        self.scalars = {name: slot for slot, name in enumerate(scalars)}
        self.arrays = {n: len(scalars) + k for k, n in enumerate(arrays)}
        self.bound_s = set(proc.params) - proc.array_params
        # A value-domain array argument may be None, which reads as the
        # global of that name.
        self.bound_a = set(proc.params) & proc.array_params if (
            domain.abstract) else set()
        self.names: dict = {}  # name or message -> its helper
        self.defs: list[str] = []
        self.loops: list[tuple[Loop, str]] = []  # (loop, its body's name)
        self.out: list[str] = []
        self.ops = self.mems = 0
        self.facts = _Facts()
        self.depth = 0
        self.top = True
        self.hoists = None

    # -- helpers and names ------------------------------------------------
    def fresh(self, obj):
        """A new helper bound to ``obj``; its name depends only on the
        order of binding."""
        name = f"_h{self.n}"
        self.n += 1
        self.env[name] = obj
        return name

    def name(self, obj) -> str:
        """The helper bound to ``obj`` (a name, message or operator)."""
        if obj not in self.names:
            self.names[obj] = self.fresh(obj)
        return self.names[obj]

    def tmp(self):
        name = f"_t{self.n}"
        self.n += 1
        return name

    def literal(self, value):
        """Source that evaluates to ``value``: its ``repr`` when that is a
        Python literal (``inf``/``nan`` are not), else a bound helper."""
        t = type(value)
        if t in (bool, int, str) or (t is float and math.isfinite(value)):
            return repr(value)
        return self.fresh(value)

    def define(self, lines):
        """Run the module text ``lines`` (function definitions) in this
        emitter's environment."""
        exec(cg_code("\n".join(lines), self.d.filename), self.env)

    def function(self, lines, params, name):
        """Compile ``def name(params):`` over ``lines`` as a text of its
        own; the function."""
        self.define([f"def {name}({params}):", *ind(lines or ["pass"])])
        return self.env.pop(name)

    def nested(self, lines, prefix) -> str:
        """``def prefix<n>(st, fr):`` over ``lines`` among ``defs``; its
        name."""
        name = f"{prefix}{self.n}"
        self.n += 1
        self.defs += [f"def {name}(st, fr):", *ind(lines or ["pass"])]
        return name

    def fail(self, message, *operands):
        """Source raising ``message`` once ``operands`` are evaluated."""
        return f"_fail({', '.join(['st', self.name(message), *operands])})"

    # -- expressions --------------------------------------------------------
    def expr(self, e) -> _CExpr:
        kind = type(e)
        if kind is ir.NConst:
            return _const(self.literal(e.value), e.value)
        if kind is ir.NVar:
            return self.lookup(e.name)
        if kind is ir.NMyNode or kind is ir.NNProcs:
            ce = _CExpr("st.rank" if kind is ir.NMyNode else "st.nprocs")
            ce.known = True
            ce.inv = ce.src
            return ce
        if kind is ir.NBin:
            if e.op in ("and", "or"):
                return self.short_circuit(e)
            return self.binary(e)
        if kind is ir.NUn:
            return self.unary(e)
        if kind is ir.NCall:
            return self.call(e)
        if kind is ir.NIsRead or kind is ir.NBufRead:
            return self.d.read(self, e)
        if kind is ir.NIndirect:
            return self.d.indirect(self, e, self.expr(e.index))
        return _raising(self.fail(f"unknown expression {e!r}"))

    def effects(self, ces):
        """What evaluating-and-discarding ``ces`` must still do: in the
        abstract domain the residual checks of the elidable ones and the
        source of the rest, in the value domain every source."""
        if not self.abstract:
            return [ce.src for ce in ces]
        return [src for ce in ces
                for src in (ce.checks if ce.elidable else (ce.src,))]

    def guarded(self, ces, apply):
        """``apply`` over the values of ``ces``, or UNKNOWN when one is:
        every operand is evaluated before any is tested."""
        if not self.abstract:
            return apply(*(ce.src for ce in ces))
        args, tests = [], []
        for ce in ces:
            args.append(ce.src if ce.known else self.tmp())
            if not ce.known:
                tests.append(f"(({args[-1]} := {ce.src}) is UNKNOWN)")
        if not tests:
            return apply(*args)
        return f"(UNKNOWN if {' | '.join(tests)} else {apply(*args)})"

    def lookup(self, name, array=False) -> _CExpr:
        """The scalar — or the array, as a charge-free expr — bound to
        ``name``: its frame slot, else the global."""
        slot = (self.arrays if array else self.scalars).get(name)
        names = _NO_NAMES if array or not self.abstract else frozenset(
            (name,))
        if name in (self.bound_a if array else self.bound_s):
            ce = _CExpr(f"fr[{slot}]")
            ce.names = names
            return ce
        n, t = self.name(name), self.tmp()
        src = f"_array(st, {n})" if array else f"st.globals[{n}]"
        if slot is not None:
            found = f"({t} := fr[{slot}]) is not _UNSET"
            if array:
                found += f" and {t} is not None"
            src = f"({t} if {found} else {src})"
        ce = _CExpr(src)
        if self.abstract:
            ce.checks, ce.names = (src,), names
        elif slot is None and not array:
            ce.inv, ce.heavy = src, True
        return ce

    def short_circuit(self, e):
        # The right operand is reached — and charged — only when the
        # left does not decide; bool(UNKNOWN) raises ModelError exactly
        # when the interpreter's short-circuit would depend on data.
        left, right = self.expr(e.left), self.expr(e.right)
        ce = _raising(None, (left,))
        ce.ops += _BIN
        ce.names |= right.names
        ce.reads |= right.reads
        ce.sc_names, ce.sc_reads = ce.names, ce.reads
        if left.const is not _NOTCONST:
            if bool(left.const) != (e.op == "and"):  # the left decides
                ce.const = bool(left.const)
            else:  # the right is always reached: its charge is static
                ce.ops += right.ops
                ce.mems += right.mems
                if right.const is _NOTCONST:
                    ce.src = f"bool({right.src})"
                    return ce
                ce.const = bool(right.const)
            ce.src, ce.known, ce.elidable = repr(ce.const), True, True
            return ce
        rhs = f"bool({right.src})"
        if right.ops or right.mems:
            rhs = f"(_pre(st, {right.ops}, {right.mems}) or {rhs})"
        ce.src = f"(bool({left.src}) {e.op} {rhs})"
        return ce

    def binary(self, e):
        op = e.op
        left, right = self.expr(e.left), self.expr(e.right)
        ce = _CExpr(None, _BIN, 0, (left, right))
        if left.unknown or right.unknown:  # the operator is never applied
            ce.unknown = True
            ce.src = _returning(self.effects((left, right)), "UNKNOWN")
            return ce
        spec = _OPS.get(op)
        if spec is None:
            return self.unknown_operator(ce, op, left, right)
        f, divides, sym, native = spec
        lc, rc = left.const, right.const
        if lc is not _NOTCONST and rc is not _NOTCONST:
            try:
                ce.const = f(lc, rc)
            except Exception:
                pass  # left to raise at run time
            else:
                ce.src, ce.known = self.literal(ce.const), True
                return ce
        nonzero = type(e.right) is ir.NNProcs or (
            type(rc) in _NUMBER and rc != 0)
        safe = nonzero or not divides
        # Can applying the operator be proven not to raise? Not under
        # observers (operands may be symbolic, their operators partial).
        if self.observe or not safe:
            ce.elidable = False
        ce.known = left.known and right.known and safe
        if not safe and op in _DIVIDE:
            ce.src = (self.divide(op, sym, left, right) if not self.abstract
                      else f"{_DIVIDE[op]}(st, {left.src}, {right.src})")
        elif not self.abstract or ce.known or native and not self.observe:
            ce.src = f"({left.src} {sym} {right.src})"
        elif self.observe:
            ce.src = f"_op({self.name(f)}, {left.src}, {right.src})"
        else:  # a comparison
            ce.src = self.guarded((left, right),
                                  lambda a, b: f"({a} {op} {b})")
        if safe and self.hoists is not None:  # invariant when both are
            lp = left.src if left.const is not _NOTCONST else left.inv
            rp = right.src if right.const is not _NOTCONST else right.inv
            if lp is not None and rp is not None:
                ce.inv = f"({lp} {sym} {rp})"
                ce.heavy = divides or left.heavy or right.heavy
                if ce.heavy:
                    self.hoist(ce, left, right)
        return ce

    def divide(self, op, sym, left, right):
        """``div``/``mod`` in line, the left operand first: the helper
        runs only to raise the interpreter's error. A hoisted divisor is
        tested as it is and evaluated again in place when it is zero or
        could not be hoisted."""
        a = self.tmp()
        if right.hoisted:
            b = test = right.hoisted
            again = right.inv
        else:
            b = again = self.tmp()
            test = f"{b} := {right.src}"
        return (f"({a} {sym} {b} if ({a} := {left.src}, {test})[1] "
                f"else {_DIVIDE[op]}(st, {a}, {again}))")

    def hoist(self, ce, *kids):
        """Hoist the heavy invariant ``ce`` before the outermost loop, in
        place of the ``kids`` hoisted so far."""
        hoists = self.hoists
        for kid in kids:
            if kid.hoisted:
                hoists[kid.inv][1] -= 1
        entry = hoists.get(ce.inv)
        if entry is None:
            entry = hoists[ce.inv] = [self.tmp(), 0]
        entry[1] += 1
        ce.hoisted = name = entry[0]
        ce.src = f"({name} if {name} is not None else {ce.inv})"

    def unknown_operator(self, ce, op, left, right):
        """An operator the interpreter rejects once both operands were
        evaluated (the walk: unless one is UNKNOWN, tested left first)."""
        ce.elidable = ce.known = False
        message = f"unknown operator {op!r}"
        if not self.abstract:
            ce.src = self.fail(message, left.src, right.src)
            return ce
        tests = [f"{x.src} is UNKNOWN" for x in (left, right) if not x.known]
        ce.src = self.fail(message)
        if tests:
            ce.src = f"(UNKNOWN if {' or '.join(tests)} else {ce.src})"
        return ce

    def unary(self, e):
        operand = self.expr(e.operand)
        ce = _CExpr(None, _UN, 0, (operand,))
        ce.unknown, ce.known = operand.unknown, operand.known
        if ce.unknown:
            ce.src = _returning(self.effects((operand,)), "UNKNOWN")
            return ce
        is_not = e.op == "not"
        if operand.const is not _NOTCONST:
            try:
                value = (not operand.const) if is_not else -operand.const
            except Exception:
                pass  # left to raise at run time
            else:
                ce.const, ce.src = value, self.literal(value)
                return ce
        if self.observe and not ce.known:
            f = operator.not_ if is_not else operator.neg
            ce.src = f"_op1({self.name(f)}, {operand.src})"
        elif is_not:
            ce.src = self.guarded((operand,), lambda a: f"(not {a})")
        else:
            ce.src = f"(-{operand.src})"
        ce.elidable = ce.elidable and not self.observe
        return ce

    def call(self, e):
        args = [self.expr(a) for a in e.args]
        func = e.func
        ce = _CExpr(None, _CALL, 0, args)
        ce.unknown = any(a.unknown for a in args)
        if not is_builtin(func):
            # The interpreter evaluates the arguments before rejecting
            # the call, so errors surface in the same order.
            ce.src = self.fail(f"unknown builtin {func!r} in expression",
                               *self.effects(args))
            ce.elidable = False
        elif ce.unknown:
            ce.src = _returning(self.effects(args), "UNKNOWN")
        else:
            if all(a.const is not _NOTCONST for a in args):
                try:
                    ce.const = apply_builtin(func, [a.const for a in args])
                except Exception:
                    pass  # left to raise at run time
                else:
                    ce.src, ce.known = self.literal(ce.const), True
                    return ce
            values = ", ".join(a.src for a in args)
            ce.src = f"_apply({self.name(func)}, [{values}])"
            if self.observe or len(args) != builtin_arity(func):
                ce.elidable = False
        return ce

    # -- runs -----------------------------------------------------------------
    def charge(self, ces):
        """Add the static charge of ``ces`` to the run."""
        for ce in ces:
            self.ops += ce.ops
            self.mems += ce.mems

    def settle(self):
        """End the run: write its charge. True if it wrote one."""
        lines = charge_lines(self.ops, self.mems)
        self.out += lines
        self.ops = self.mems = 0
        return bool(lines)

    def body(self, stmts, facts, ops=0, mems=0, var=None, levels=1):
        """``stmts`` as lines ``levels`` deeper than the statement being
        written, and the charge still pending at their end: ``(lines,
        ops, mems)``. ``ops``/``mems`` enter as the charge pending at the
        start (a loop body's increment and test); what the statements can
        do accumulates in ``facts``. Bindings made inside do not dominate
        what follows; ``var`` (a loop variable) is bound throughout."""
        if self.depth + levels > MAX_DEPTH:
            inner = _Facts()
            lines = self.own(stmts, inner, ops, mems, var)
            facts.merge(inner)
            return self.d.split(self, lines, inner), 0, 0
        saved = (self.out, self.ops, self.mems, self.facts, self.bound_s,
                 self.bound_a)
        self.out, self.ops, self.mems, self.facts = [], ops, mems, facts
        self.bound_s, self.bound_a = set(self.bound_s), set(self.bound_a)
        if var is not None:
            self.bound_s.add(var)
        self.depth += levels
        for stmt in stmts:
            _STMTS[type(stmt)](self, stmt)
        self.depth -= levels
        result = self.out, self.ops, self.mems
        (self.out, self.ops, self.mems, self.facts, self.bound_s,
         self.bound_a) = saved
        return result

    def own(self, stmts, facts, ops=0, mems=0, var=None):
        """``stmts`` as the lines of a function of their own over ``(st,
        fr)``, their whole charge made inside it."""
        top, depth, hoists = self.top, self.depth, self.hoists
        self.top, self.depth, self.hoists = False, 0, None
        lines, ops, mems = self.body(stmts, facts, ops, mems, var)
        self.top, self.depth, self.hoists = top, depth, hoists
        return lines + charge_lines(ops, mems)

    def inline(self, stmts, facts):
        """A branch's lines, the rest of its charge made at its end."""
        lines, ops, mems = self.body(stmts, facts, levels=self.d.levels)
        return lines + charge_lines(ops, mems)

    def store(self, target, ce, received=False):
        """Lines storing ``ce`` into ``target`` — the value first, as the
        interpreter evaluates it — with their charge in the run. A
        ``received`` scalar is one a message or call stored."""
        self.ops += ce.ops
        self.mems += ce.mems
        kind = type(target)
        if kind is ir.VarLV:
            facts = self.facts
            (facts.received if received else facts.assigned).add(target.name)
            return [f"fr[{self.scalars[target.name]}] = {ce.src}"]
        if kind is not ir.IsLV and kind is not ir.BufLV:
            return [*self.effects((ce,)),
                    self.fail(f"unknown lvalue {target!r}")]
        indices = [self.expr(i) for i in target.indices]
        self.facts.sensitive(*indices, sc=True)
        self.charge(indices)
        self.mems += CHARGES[kind].mems
        return self.d.element(self, target, indices, ce)

    def received(self, targets):
        """Lines storing the scalars of a received payload."""
        lines = []
        for k, target in enumerate(targets):
            lines += self.store(target, self.d.got(k), True)
        return lines

    # -- statements -----------------------------------------------------------
    def assign(self, s):
        value = self.expr(s.value)
        self.facts.sensitive(value, sc=True)
        self.out += self.store(s.target, value)
        if type(s.target) is ir.VarLV:
            self.bound_s.add(s.target.name)

    def alloc(self, s):
        dims = [self.expr(d) for d in s.shape]
        self.facts.sensitive(*dims, sc=True)
        self.charge(dims)
        self.out += self.d.alloc(self, s, dims)
        self.bound_a.add(s.name)

    def for_(self, s):
        bounds = [self.expr(x) for x in (s.lo, s.hi, s.step)]
        self.charge(bounds)
        outermost = self.hoists is None and not self.abstract
        if outermost:
            self.hoists = {}
        inner = _Facts()
        per_trip = CHARGES[ir.NFor]
        if self.d.policy:  # every body is a function the policy calls
            body = self.own(s.body, inner, per_trip.ops, per_trip.mems,
                            s.var), 0, 0
        else:
            body = self.body(s.body, inner, per_trip.ops, per_trip.mems,
                             s.var)
        facts = self.facts
        facts.assigned.add(s.var)
        facts.sensitive(*bounds)
        facts.merge(inner)
        if inner.effects or inner.exits:
            self.settle()
        if outermost:
            self.out += _hoisted(self.hoists)
            self.hoists = None
        self.out += self.d.loop(self, s, bounds, body, inner)

    def if_(self, s):
        cond = self.expr(s.cond)
        self.facts.sensitive(cond)
        self.charge((cond,))
        if cond.const is not _NOTCONST and self.d.fold_guards:
            # A constant guard (a rank-specialized program's, typically)
            # keeps only the taken branch, in this run.
            for stmt in s.then_body if cond.const else s.else_body:
                _STMTS[type(stmt)](self, stmt)
            return
        inner = _Facts()
        then = self.inline(s.then_body, inner)
        other = self.inline(s.else_body, inner)
        self.facts.merge(inner)
        if inner.effects or inner.exits:
            self.settle()
        if self.observe:
            self.out += self.d.branch(self, s, cond, then, other)
            return
        self.out += [f"if {cond.src}:", *ind(then or ["pass"])]
        if other:
            self.out += ["else:", *ind(other)]

    def return_(self, s):
        value = None
        if s.value is not None and not isinstance(s.value, str):
            value = self.expr(s.value)
            self.charge((value,))
        self.settle()
        self.facts.exits = self.facts.impure = True
        self.out += self.d.ret(self, s, value)

    def message(self, s):
        """A send or a receive, of scalars or of a buffer's vector: the
        operands in the interpreter's order, then the flush."""
        facts = self.facts
        kind = type(s)
        facts.comm = True
        facts.effects |= CHARGES[kind].flush
        if kind is ir.NSend:
            values = [self.expr(v) for v in s.values]
            peer = self.expr(s.dst)
            facts.sensitive(*values, sc=True)
            self.charge(values)
        else:
            facts.blocks |= kind is not ir.NSendVec
            peer = self.expr(s.dst if kind is ir.NSendVec else s.src)
            values = ()
        facts.sensitive(peer)
        self.charge((peer,))
        bounds = ()
        if kind is ir.NSendVec or kind is ir.NRecvVec:
            bounds = self.expr(s.lo), self.expr(s.hi)
            facts.sensitive(*bounds)
            self.charge(bounds)
        self.out += self.d.message(self, s, peer, values, bounds)
        if kind is ir.NRecv:
            self.bound_s.update(t.name for t in s.targets
                                if type(t) is ir.VarLV)

    def owned(self, s):
        """A coerce or broadcast: the owner's value reaches the target
        on the destination (every other rank, for a broadcast)."""
        facts = self.facts
        charge = CHARGES[type(s)]
        facts.comm = facts.blocks = True
        facts.effects |= charge.flush
        owner = self.expr(s.owner)
        dest = self.expr(s.dest) if type(s) is ir.NCoerce else None
        facts.sensitive(owner, dest or owner)
        self.charge((owner, dest) if dest else (owner,))
        value = self.expr(s.value)
        facts.sensitive(value, sc=True)
        self.ops += charge.ops
        self.mems += charge.mems
        o, d = self.d.partners(self, owner, dest)
        self.settle()
        # Each role charges its own part: the owner (or, for a local
        # coerce, the destination) the value and the store, a receiver
        # the store.
        keep = self.store(s.target, value, True)
        keep = charge_lines(self.ops, self.mems) + keep
        self.ops = self.mems = 0
        take = self.received((s.target,))
        take += charge_lines(self.ops, self.mems)
        self.ops = self.mems = 0
        self.out += self.d.owned(self, s, o, d, value, keep, take)
        if dest is None and type(s.target) is ir.VarLV:
            self.bound_s.add(s.target.name)

    def callproc(self, s):
        args = [self.lookup(a, True) if isinstance(a, str) else self.expr(a)
                for a in s.args]
        self.charge(args)
        facts = self.facts
        facts.impure = True
        kind = self.kinds.get(s.proc, (None, None))
        if kind[0] != "pure":
            self.settle()
            facts.effects = True
            facts.blocks |= kind[0] != "sends"
        self.out += self.d.callproc(self, s, args, kind)
        if s.array_result is not None and self.abstract:
            self.bound_a.add(s.array_result)
        elif type(s.result) is ir.VarLV:
            self.bound_s.add(s.result.name)

    def comment(self, s):
        pass

    def array_alias(self, s):
        self.facts.impure = True
        self.out += self.d.alias(self, s)
        self.bound_a.add(s.name)

    def inspector(self, s):
        facts = self.facts
        facts.impure = True
        if CHARGES[type(s)].flush:
            facts.effects = facts.blocks = True
        self.out += self.d.inspector(self, s)

    def unknown(self, s):
        self.settle()
        self.facts.exits = self.facts.impure = True
        self.out.append(self.fail(f"unknown statement {s!r}"))


class _Dispatch(dict):
    """IR statement type -> the emitter's method; an unknown type is
    written as the interpreter's error."""

    def __missing__(self, kind):
        return Gen.unknown


_STMTS = _Dispatch({
    ir.NAssign: Gen.assign,
    ir.NAllocIs: Gen.alloc,
    ir.NAllocBuf: Gen.alloc,
    ir.NFor: Gen.for_,
    ir.NIf: Gen.if_,
    ir.NReturn: Gen.return_,
    ir.NSend: Gen.message,
    ir.NRecv: Gen.message,
    ir.NSendVec: Gen.message,
    ir.NRecvVec: Gen.message,
    ir.NCoerce: Gen.owned,
    ir.NBroadcast: Gen.owned,
    ir.NCallProc: Gen.callproc,
    ir.NComment: Gen.comment,
    ir.NArrayAlias: Gen.array_alias,
    ir.NExchange: Gen.inspector,
    ir.NScatterFlush: Gen.inspector,
    ir.NResolve: Gen.inspector,
    ir.NAccum: Gen.inspector,
    ir.NAccumLocal: Gen.inspector,
})


def compile_procedure(proc: ir.NodeProc, domain, kinds: dict):
    """Write ``proc`` in ``domain``: ``(kind, fn, gen)`` — how a call to
    it ends a run (see :class:`Gen`), the domain's function, and the
    emitter (its frame layout)."""
    gen = Gen(proc, domain, kinds)
    lines, ops, mems = gen.body(proc.body, gen.facts)
    fn = domain.procedure(gen, proc, lines + charge_lines(ops, mems))
    facts = gen.facts
    return ("gen" if facts.blocks else "sends" if facts.effects
            else "pure"), fn, gen


# ---------------------------------------------------------------------------
# The value domain
# ---------------------------------------------------------------------------

# (method, rank) -> the fixed-arity helper that inlines it.
_ACCESS = {
    ("read", 1): "_rd1",
    ("read", 2): "_rd2",
    ("write", 1): "_wr1",
    ("write", 2): "_wr2",
}

# Record the pending cost as one compute row: interp.flush, in line. The
# test is left out where a static charge was just made. The temporaries
# are the flush's own: it runs between the binding and the use of a
# statement's operands (``_o``, ``_d``, ``_p``, ...).
_COMPUTE = (
    "_fo = st.ops",
    "_fm = st.mems",
    "st.ops = st.mems = 0",
    "if _fo * st.op_us + _fm * st.mem_us > 0.0:",
    f"    st.rows.append(st.canon[{KIND_COMPUTE}, -1, -1, 0, _fo, _fm])",
)
_FLUSH = ("if st.ops or st.mems:", *ind(_COMPUTE))


class ValueDomain:
    """Concrete values (:mod:`repro.spmd.compile`): a procedure is one
    function ``_p(st, args)`` over a flat frame; a flush appends a
    compute row in line, a send calls ``_send``, a receive takes a
    queued payload in line (a generator, waiting in ``_recv``, only when
    the queue is empty); a loop is a native ``for`` that charges a body
    which never ends a run once, for every trip. A body split past
    ``MAX_DEPTH`` is a function of its own that returns ``_NORET`` when
    it did not return."""

    abstract = observe = policy = False
    fold_guards = True
    levels = 1
    filename = "<spmd-codegen>"

    def __init__(self, namespace):
        self.namespace = namespace

    # -- operands -----------------------------------------------------------
    @staticmethod
    def buffer(g, name):
        slot = g.arrays.get(name)
        n, t = g.name(name), g.tmp()
        src = f"st.globals.get({n})" if slot is None else f"fr[{slot}]"
        return (f"({t} if type({t} := {src}) is LocalArray "
                f"else _buffer(st, {t}, {n}))")

    @staticmethod
    def access(method, array, indices, *value):
        """One element ``read``, or ``write`` of ``value``: the array
        lookup, the indices left to right, then the access."""
        args = ", ".join([*(i.src for i in indices), *value])
        fast = _ACCESS.get((method, len(indices)))
        if fast is not None:
            return f"{fast}({array}, {args})"
        return f"{array}.{method}({args})"

    def read(self, g, e):
        array = (g.lookup(e.array, True).src if type(e) is ir.NIsRead
                 else self.buffer(g, e.buf))
        indices = [g.expr(i) for i in e.indices]
        return _CExpr(self.access("read", array, indices), 0,
                      CHARGES[type(e)].mems, indices)

    @staticmethod
    def indirect(g, e, index):
        # The executor's read charges itself through the state's meter.
        return _CExpr(
            f"ixec.indirect_read(st, st.exchanges.get({g.name(e.sched)}), "
            f"{g.fresh(e)}, {index.src})", 0, 0, (index,),
        )

    # -- effects --------------------------------------------------------------
    def element(self, g, target, indices, ce):
        lines, value = [], ce.src
        if ce.const is _NOTCONST and ce.src != "_v":
            lines, value = [f"_v = {ce.src}"], "_v"
        array = (g.lookup(target.array, True).src if type(target) is ir.IsLV
                 else self.buffer(g, target.buf))
        return [*lines, self.access("write", array, indices, value)]

    @staticmethod
    def got(k):
        return _CExpr(f"_p[{k}]")

    @staticmethod
    def flush(g):
        """Settle the run, then the lines recording the pending cost."""
        return list(_COMPUTE if g.settle() else _FLUSH)

    @staticmethod
    def receive(g, src, channel):
        """Lines binding ``_p`` to the next payload from ``src``: a queued
        one taken in line, else the blocking :func:`_recv`."""
        return [
            f"if _fq := st.fifo.get(({src}, st.rank, {channel})):",
            "    _p = _fq.popleft()",
            f"    st.rows.append("
            f"st.canon[{KIND_RECV}, {src}, {channel}, 0, 0, 0])",
            "else:",
            f"    _p = yield from _recv(st, {src}, {channel})",
        ]

    @staticmethod
    def bind(g, name, ce):
        """``ce`` evaluated here, in the interpreter's order: bound to
        ``name``, or its literal when it is a constant."""
        if ce.const is not _NOTCONST:
            return ce.src
        g.out.append(f"{name} = {ce.src}")
        return name

    def message(self, g, s, peer, values, bounds):
        kind = type(s)
        channel = g.name(s.channel)
        if kind is ir.NSend:
            payload = f"({''.join(f'{v.src}, ' for v in values)})"
            if any(v.const is _NOTCONST for v in values):
                g.out.append(f"_p = {payload}")
                payload = "_p"
            dst = self.bind(g, "_d", peer)  # after the values, as interp
            return [*self.flush(g), f"_send(st, {dst}, {channel}, "
                                    f"{payload}, {len(values)})"]
        if kind is ir.NRecv:
            src = self.bind(g, "_s", peer)
            n = len(s.targets)
            lines = [
                *self.flush(g), *self.receive(g, src, channel),
                f"if len(_p) != {n}:",
                f"    raise NodeRuntimeError(f'channel {{{channel}!r}}: "
                f"expected {n} scalars, got {{len(_p)}}', st.rank)",
            ]
            return lines + g.received(s.targets)
        # The interpreter takes the buffer after a receive's source and
        # before a send's bounds.
        peer = self.bind(g, "_s", peer) if kind is ir.NRecvVec else peer
        g.out.append(f"_b = {self.buffer(g, s.buf)}")
        lo = self.bind(g, "_lo", bounds[0])
        hi = self.bind(g, "_hi", bounds[1])
        if kind is ir.NRecvVec:
            return [*self.flush(g), *self.receive(g, peer, channel),
                    f"_recvvec(st, _b, {lo}, {hi}, _p, {channel})"]
        dst = self.bind(g, "_d", peer)
        g.out.append(f"_p = _sendvec(st, _b, {lo}, {hi})")
        return [*self.flush(g),
                f"_send(st, {dst}, {channel}, _p, len(_p))"]

    def partners(self, g, owner, dest):
        return (self.bind(g, "_o", owner),
                dest and self.bind(g, "_d", dest))

    def owned(self, g, s, o, d, value, keep, take):
        channel = g.name(s.channel)
        recv = [*_FLUSH, *self.receive(g, o, channel), *take]
        if d is None:  # a broadcast: what the owner stored
            kind = type(s.target)
            sent = (f"fr[{g.scalars[s.target.name]}]" if kind is ir.VarLV
                    else "_v" if value.const is _NOTCONST else value.src)
            return [f"if st.rank == {o}:", *ind([
                *keep, *_FLUSH, f"_broadcast(st, {o}, {channel}, ({sent},))",
            ]), "else:", *ind(recv)]
        send = [*charge_lines(value.ops, value.mems), f"_v = {value.src}",
                *_FLUSH, f"_send(st, {d}, {channel}, (_v,), 1)"]
        return [
            f"if {o} == {d}:", f"    if st.rank == {d}:", *ind(keep, 2),
            f"elif st.rank == {o}:", *ind(send),
            f"elif st.rank == {d}:", *ind(recv),
        ]

    def callproc(self, g, s, args, kind):
        args = f"[{', '.join(a.src for a in args)}]"
        kind, fn = kind
        if kind is None:  # a forward or recursive reference
            call = f"yield from _call(st, _procs, {g.name(s.proc)}, {args})"
        elif kind == "gen":
            call = f"yield from {g.fresh(fn)}(st, {args})"
        else:
            call = f"{g.fresh(fn)}(st, {args})"
        if s.array_result is not None:
            return [f"fr[{g.arrays[s.array_result]}] = {call}"]
        if s.result is not None:
            return g.store(s.result, _CExpr(call), True)
        return [call]

    @staticmethod
    def alloc(g, s, dims):
        cls = "IStructure" if type(s) is ir.NAllocIs else "LocalArray"
        shape = "".join(f"{d.src}, " for d in dims)
        return [f"fr[{g.arrays[s.name]}] = {cls}(({shape}), "
                f"name={g.name(s.name + '@p')} + str(st.rank))"]

    @staticmethod
    def alias(g, s):
        return [f"fr[{g.arrays[s.name]}] = {g.lookup(s.source, True).src}"]

    @staticmethod
    def ret(g, s, value):
        if value is not None:
            return [f"return {value.src}"]
        if s.value is None:
            return ["return None"]
        return [f"return {g.lookup(s.value, True).src}"]

    def inspector(self, g, s):
        kind = type(s)
        if kind is ir.NExchange or kind is ir.NScatterFlush:
            g.settle()
            if kind is ir.NScatterFlush:
                return [f"yield from _scatter_flush(st, fr, {g.fresh(g)}, "
                        f"{g.fresh(s)})"]
            # The enumeration body the inspector runs on the first
            # execution is a generator of its own over this frame.
            inner = _Facts()
            lines = g.own(s.enum_body, inner)
            if not inner.blocks:
                lines.append("yield from ()")
            enum = g.fresh(g.function(lines, "st, fr", "_f"))
            return [f"yield from _exchange(st, fr, {g.fresh(g)}, "
                    f"{g.fresh(s)}, {enum})"]
        if kind is ir.NAccumLocal:
            indices = [g.expr(i) for i in s.indices]
            value = g.expr(s.value)
            g.charge((*indices, value))
            return [f"_accum_local(st, ({''.join(f'{i.src}, ' for i in indices)}"
                    f"), {value.src}, {g.lookup(s.array, True).src})"]
        state = f"ixec.get_state(st.exchanges, {g.name(s.sched)})"
        index = g.expr(s.index)
        g.charge((index,))
        if kind is ir.NResolve:
            return [f"ixec.resolve(st, {state}, {index.src})"]
        value = g.expr(s.value)
        g.charge((value,))
        return [f"ixec.accum(st, {state}, {index.src}, {value.src})"]

    # -- control ----------------------------------------------------------------
    @staticmethod
    def loop(g, s, bounds, body, inner):
        lo, hi, step = bounds
        lines, ops, mems = body
        if type(step.const) is int and step.const > 0:
            rng = f"range({lo.src}, {hi.src} + 1, {step.src})"
            out = []
        else:
            out = [
                f"_lo = {lo.src}", f"_hi = {hi.src}", f"_by = {step.src}",
                "if _by <= 0:",
                "    raise NodeRuntimeError("
                "f'non-positive loop step {_by}', st.rank)",
            ]
            rng = "range(_lo, _hi + 1, _by)"
        target = f"fr[{g.scalars[s.var]}]"
        if inner.effects or inner.exits:
            return [*out, f"for {target} in {rng}:",
                    *ind(lines + charge_lines(ops, mems) or ["pass"])]
        # The body's charge is static: every iteration's, charged once.
        out.append(f"_r = {rng}")
        if ops:
            out.append(f"st.ops += len(_r) * {ops}")
        if mems:
            out.append(f"st.mems += len(_r) * {mems}")
        return [*out, f"for {target} in _r:", *ind(lines or ["pass"])]

    @staticmethod
    def split(g, lines, facts):
        if facts.exits:
            lines = lines + ["return _NORET"]
        call = f"{g.fresh(g.function(lines, 'st, fr', '_f'))}(st, fr)"
        if facts.blocks:
            call = f"yield from {call}"
        if facts.exits:
            return [f"_ret = {call}", "if _ret is not _NORET:",
                    "    return _ret"]
        return [call]

    @staticmethod
    def procedure(g, proc, lines):
        n = len(proc.params)
        nslots = len(g.scalars) + len(g.arrays)
        slots = [g.arrays[p] if p in proc.array_params else g.scalars[p]
                 for p in proc.params]
        if slots == list(range(n)):
            frame = [f"fr = [*args] + [_UNSET] * {nslots - n}"]
        else:
            frame = [f"fr = [_UNSET] * {nslots}"] + [
                f"fr[{slot}] = args[{k}]" for k, slot in enumerate(slots)
            ]
        return g.function([
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
            *ind(lines or ["pass"]),
            "finally:",
            "    st.depth -= 1",
        ], "st, args", "_p")


# ---------------------------------------------------------------------------
# The abstract domain
# ---------------------------------------------------------------------------

_UNKNOWN = _CExpr("UNKNOWN")  # what a walk receives
_UNKNOWN.unknown = True


class WalkDomain:
    """Array data as ``UNKNOWN`` (:mod:`repro.spmd.walk`): a procedure is
    one function ``_w(walker, frame)`` plus the ones it calls; a flush
    and an event are one ``st.emit_send`` / ``st.emit_recv``, a call one
    ``st.call``. A discarded (store values and indices, send payloads,
    read indices) or statically ``UNKNOWN`` value is not evaluated when
    it provably cannot raise (:attr:`_CExpr.elidable`), so the walk
    abstains on exactly the programs a plain tree-walk abstains on.

    The plain walk spells arithmetic natively (UNKNOWN's yields itself)
    and runs a loop its policy would iterate one by one in line; the
    verifier's (``observe``) evaluates every access index into the
    ``on_read``/``on_write``/``on_alloc`` observers, tests every operand
    for UNKNOWN (its loop variables may be symbolic values whose
    arithmetic can raise), labels every guard on ``st.path`` and runs
    every loop through the policy. A ``return`` outside the procedure's
    own function raises ``ProcReturn``."""

    abstract = True
    fold_guards = False
    filename = "<spmd-walk>"

    def __init__(self, namespace, observe: bool):
        self.namespace = namespace
        self.observe = self.policy = observe
        self.levels = 2 if observe else 1  # under ``try:`` and ``if``

    # -- operands -----------------------------------------------------------
    def read(self, g, e):
        is_read = type(e) is ir.NIsRead
        array = g.lookup(e.array if is_read else e.buf, True)
        indices = [g.expr(i) for i in e.indices]
        ce = _CExpr(None, 0, CHARGES[type(e)].mems, (array, *indices))
        ce.unknown = ce.reads = True
        if self.observe and is_read:
            dims = ", ".join(i.src for i in indices)
            ce.src = f"(st.on_read({array.src}, [{dims}]), UNKNOWN)[1]"
            ce.elidable = False
        else:
            ce.src = _returning(g.effects((array, *indices)), "UNKNOWN")
        return ce

    @staticmethod
    def indirect(g, e, index):
        return _raising("_fail(st, None)", (index,))

    # -- effects --------------------------------------------------------------
    def element(self, g, target, indices, ce):
        """An element store discards the value: the effects of its
        evaluation and of the index evaluation, or the observer."""
        is_lv = type(target) is ir.IsLV
        name = target.array if is_lv else target.buf
        array = g.lookup(name, True)
        lines = g.effects((ce,))
        if self.observe and is_lv:
            dims = ", ".join(i.src for i in indices)
            return lines + [
                f"st.on_write({g.name(name)}, {array.src}, [{dims}])"
            ]
        return lines + g.effects((array, *indices))

    @staticmethod
    def got(k):
        return _UNKNOWN

    def message(self, g, s, peer, values, bounds):
        kind = type(s)
        channel = g.name(s.channel)
        if kind is ir.NSend:
            lines = [*g.effects(values),
                     f"st.emit_send({peer.src}, {channel}, {len(values)})"]
            g.settle()
            return lines
        if kind is ir.NRecv:
            g.settle()
            return [f"st.emit_recv({peer.src}, {channel})",
                    *g.received(s.targets)]
        g.settle()
        check = g.effects((g.lookup(s.buf, True),))
        lo, hi = bounds
        bounds = [f"_lo = {lo.src}", f"_hi = {hi.src}"]
        if kind is ir.NSendVec:
            return [*check, *bounds, f"_p = {peer.src}",
                    "_n = st.span(_lo, _hi)", "st.mems += _n",
                    f"st.emit_send(_p, {channel}, _n)"]
        # unpacking is charged after the flush
        return [f"_p = {peer.src}", *check, *bounds,
                f"st.emit_recv(_p, {channel})", "st.mems += st.span(_lo, _hi)"]

    @staticmethod
    def partners(g, owner, dest):
        g.out.append(f"_o = {owner.src}")
        test, what = "_o is UNKNOWN", "broadcast owner"
        if dest:
            g.out.append(f"_d = {dest.src}")
            test, what = test + " or _d is UNKNOWN", "coerce partner"
        g.out += [f"if {test}:",
                  f"    raise ModelError('{what} depends on array data')"]
        return "_o", dest and "_d"

    def owned(self, g, s, o, d, value, keep, take):
        channel = g.name(s.channel)
        recv = [f"st.emit_recv(_o, {channel})", *take]
        if d is None:
            return [
                "if st.rank == _o:", *ind(keep), "    st.flush()",
                "    for _q in range(st.nprocs):", "        if _q != _o:",
                f"            st.emit_send(_q, {channel}, 1)",
                "else:", *ind(recv),
            ]
        ship = charge_lines(value.ops, value.mems) + g.effects((value,))
        return [
            "if _o == _d:", "    if st.rank == _d:", *ind(keep or ["pass"], 2),
            "elif st.rank == _o:",
            *ind([*ship, f"st.emit_send(_d, {channel}, 1)"]),
            "elif st.rank == _d:", *ind(recv),
        ]

    def callproc(self, g, s, args, kind):
        call = [f"st.call({g.name(s.proc)}, "
                f"[{', '.join(a.src for a in args)}])"]
        if s.array_result is not None:
            return call + [f"fr[{g.arrays[s.array_result]}] = ARRAY"]
        if s.result is not None:
            return call + g.received((s.result,))
        return call

    def alloc(self, g, s, dims):
        slot = g.arrays[s.name]
        if self.observe and type(s) is ir.NAllocIs:
            dims = ", ".join(d.src for d in dims)
            return [f"fr[{slot}] = st.on_alloc({g.name(s.name)}, [{dims}])"]
        return [*g.effects(dims), f"fr[{slot}] = ARRAY"]

    @staticmethod
    def alias(g, s):
        return [f"fr[{g.arrays[s.name]}] = ARRAY"]

    @staticmethod
    def ret(g, s, value):
        lines = ["return" if g.top else "raise ProcReturn()"]
        return lines if value is None else g.effects((value,)) + lines

    @staticmethod
    def inspector(g, s):
        # Who talks to whom is decided by index-array *contents* at run
        # time: the walk abstains.
        g.settle()
        g.facts.exits = True
        return ["_fail(st, None)"]

    # -- control ----------------------------------------------------------------
    def loop(self, g, s, bounds, body, inner):
        lines, ops, mems = body
        loop = Loop()
        loop.name = s.var
        loop.var = slot = g.scalars[s.var]
        state = inner.assigned | inner.received | {s.var}
        loop.replicable = not (
            inner.impure or inner.reads or inner.names & state
        )
        loop.uniform = loop.replicable and not inner.comm
        loop.assigned = tuple(g.scalars[n] for n in sorted(inner.assigned))
        loop.event_assigned = tuple(
            g.scalars[n] for n in sorted(inner.assigned | inner.received)
        )
        loop.nscalars = len(g.scalars)
        lines = lines + charge_lines(ops, mems)
        if self.policy or loop.replicable:
            # A replicable body has no return, so the lines written for
            # this function serve the policy's body function as they are.
            g.loops.append((loop, g.nested(lines, "_b")))
            lo, hi, step = (ce.src for ce in bounds)
            return [f"st.loop({g.fresh(loop)}, fr, {lo}, {hi}, {step})"]
        # Any other loop of the plain walk runs every iteration, as
        # Walker.loop would: in line.
        out = [f"{name} = {ce.src}"
               for name, ce in zip(("_lo", "_hi", "_by"), bounds)]
        return out + [
            f"for fr[{slot}] in range(_lo, _lo + st.trips(_lo, _hi, _by) "
            "* _by, _by):", *ind(lines or ["pass"]),
        ]

    @staticmethod
    def branch(g, s, cond, then, other):
        """A guard labelled on the walker's ``path`` while it runs."""
        taken = g.tmp()
        label = g.name(f"if {pretty_expr(s.cond)}")
        return [
            f"{taken} = True if {cond.src} else False",
            f"st.path.append({label})", "try:", f"    if {taken}:",
            *ind(then or ["pass"], 2),
            *(["    else:", *ind(other, 2)] * bool(other)),
            "finally:", "    st.path.pop()",
        ]

    @staticmethod
    def split(g, lines, facts):
        return [f"{g.nested(lines, '_s')}(st, fr)"]

    @staticmethod
    def procedure(g, proc, lines):
        g.define([*g.defs, "def _w(st, fr):", *ind(lines or ["pass"])])
        for loop, name in g.loops:
            loop.body = g.env[name]
        return g.env["_w"]

