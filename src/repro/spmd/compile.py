"""Closure-compiling execution backend for SPMD node programs.

The tree-walking interpreter (:mod:`repro.spmd.interp`) re-dispatches on
``isinstance`` for every IR node of every iteration, so host wall-clock
time is dominated by Python dispatch rather than by the simulation. This
backend translates a :class:`~repro.spmd.ir.NodeProgram` *once* per
program — statements into nested Python closures, and every expression,
assignment and l-value store under them into generated Python source,
one code object each (``_SrcGen``, the only expression compiler) — and
then executes the result many times, on every rank of every ring:
``mynode()`` and ``nprocs()`` are run-time values read from the per-run
state, as the paper's one SPMD program reads them (§3.1) and as
:mod:`repro.spmd.walk` does:

* constant subexpressions are folded at compile time (value folding
  only — the interpreter's per-node cost charges are preserved exactly);
* scalar and array variables are resolved to integer slots of a flat
  frame list instead of per-access dict lookups;
* the ``charge_op``/``charge_mem`` bookkeeping of each straight-line
  block is pre-aggregated into a single pair of integer counts, charged
  with one addition instead of one call per IR node.

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
from functools import lru_cache

from repro import perf
from repro.errors import NodeRuntimeError
from repro.inspector import executor as ixec
from repro.inspector.context import INSPECTOR_GLOBAL
from repro.lang.builtins import apply_builtin, is_builtin
from repro.machine import Compute, MachineParams, Recv, Send
from repro.runtime import IStructure, LocalArray
from repro.runtime.istructure import UNDEFINED
from repro.spmd import ir

_UNSET = object()  # empty frame slot (distinct from a stored None)
_NOTCONST = object()  # "no compile-time constant value" marker


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _State:
    """Per-run mutable state shared by every closure of one processor."""

    __slots__ = ("rank", "nprocs", "globals", "ops", "mems", "op_us",
                 "mem_us", "depth", "exchanges")

    def __init__(self, rank, nprocs, op_us, mem_us, globals_):
        self.rank = rank
        self.nprocs = nprocs
        self.globals = globals_
        self.ops = 0
        self.mems = 0
        self.op_us = op_us
        self.mem_us = mem_us
        self.depth = 0
        self.exchanges: dict[str, ixec.ExchangeState] = {}

    # Minimal meter protocol for the shared inspector/executor leaves.
    def charge_op(self, count: int = 1) -> None:
        self.ops += count

    def charge_mem(self, count: int = 1) -> None:
        self.mems += count


def _flush(st):
    """Yield one Compute for the pending cost pool (mirrors interp.flush)."""
    ops = st.ops
    mems = st.mems
    if ops or mems:
        st.ops = 0
        st.mems = 0
        cost = ops * st.op_us + mems * st.mem_us
        if cost > 0.0:
            yield Compute(cost)


class _CExpr:
    """A compiled expression: Python source over ``(st, fr)``.

    ``ops``/``mems`` are the expression's full static cost and ``src``
    charges nothing; or ``ops is None`` and ``src`` charges its own cost
    in-line (short-circuit operators make cost data-dependent). ``const``
    holds the folded compile-time value, or ``_NOTCONST``. ``fn`` is
    ``src`` as a function, compiled on first use in the environment of
    the :class:`_SrcGen` that wrote it — only the expression a statement
    compiler asked for ever is; its subexpressions stay text.
    """

    __slots__ = ("gen", "src", "ops", "mems", "const", "_fn")

    def __init__(self, gen, src, ops, mems, const=_NOTCONST):
        self.gen = gen
        self.src = src
        self.ops = ops
        self.mems = mems
        self.const = const
        self._fn = None

    @property
    def fn(self):
        if self._fn is None:
            self._fn = self.gen.function(f"    return {self.src}")
        return self._fn


def _charge_lines(ops, mems):
    """Statements adding a static cost (none for a dynamic ``None``)."""
    return (f"    st.ops += {ops}\n" if ops else "") + (
        f"    st.mems += {mems}\n" if mems else ""
    )


def _charged(ce):
    """The expression as a function that charges its cost, then evaluates."""
    lines = _charge_lines(ce.ops, ce.mems)
    if not lines:
        return ce.fn
    return ce.gen.function(f"{lines}    return {ce.src}")


def _static_cost(ces, ops=0, mems=0):
    """Summed cost of the static ``ces``; dynamic ones charge themselves."""
    for ce in ces:
        if ce.ops is not None:
            ops += ce.ops
            mems += ce.mems
    return ops, mems


def _prep(ces):
    """Split a tuple of compiled exprs into (fns, static_ops, static_mems).

    Static expressions contribute to the pre-aggregated counts and keep
    their non-charging functions; dynamic ones self-charge at evaluation.
    """
    return (tuple(ce.fn for ce in ces), *_static_cost(ces))


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


class _ProcContext:
    """Compile-time context of one procedure: slot maps plus shared refs."""

    __slots__ = ("procs", "scalar_slots", "array_slots", "nslots")

    def __init__(self, procs, proc):
        self.procs = procs  # name -> procfn, shared and filled in later
        scalars: dict[str, int] = {}
        arrays: dict[str, int] = {}
        for name, is_array in ir.proc_binders(proc):
            slots = arrays if is_array else scalars
            if name not in slots:
                slots[name] = len(scalars) + len(arrays)
        self.scalar_slots = scalars
        self.array_slots = arrays
        self.nslots = len(scalars) + len(arrays)


# ---------------------------------------------------------------------------
# Name resolution closures (mirroring interp's scalars -> globals fallback)
# ---------------------------------------------------------------------------


def _global_scalar(name):
    """Reader for a name with no local slot: globals, else unbound error."""
    def fn(st, fr, _n=name):
        v = st.globals.get(_n, _UNSET)
        if v is _UNSET:
            raise NodeRuntimeError(f"unbound variable {_n!r}", st.rank)
        return v
    return fn


def _array_getter(name, sc):
    slot = sc.array_slots.get(name)
    if slot is not None:
        def get(st, fr, _i=slot, _n=name):
            arr = fr[_i]
            if arr is _UNSET or arr is None:
                arr = st.globals.get(_n)
                if arr is None:
                    raise NodeRuntimeError(f"unknown array {_n!r}", st.rank)
            return arr
        return get

    def get(st, fr, _n=name):
        arr = st.globals.get(_n)
        if arr is None:
            raise NodeRuntimeError(f"unknown array {_n!r}", st.rank)
        return arr
    return get


def _buffer_getter(name, sc):
    get = _array_getter(name, sc)

    def getbuf(st, fr, _g=get, _n=name):
        buf = _g(st, fr)
        if not isinstance(buf, LocalArray):
            raise NodeRuntimeError(f"{_n!r} is not a buffer", st.rank)
        return buf
    return getbuf


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
# Expressions and l-values: generated source
# ---------------------------------------------------------------------------
#
# A closure tree pays one Python call per IR node at every evaluation, so
# every expression, assignment and l-value store is instead emitted as
# Python source and compiled into one code object: slot reads become
# ``fr[3]`` with a walrus-tested fallback, arithmetic becomes in-line
# operators, array reads become one `_rd2` call, a folded constant is its
# literal. `_SrcGen.expr` is the only expression compiler: one recursive
# pass that returns each node's source together with its static cost and
# folded constant, so classification, folding and emission cannot drift
# apart.
#
# A static node's source charges nothing — whoever uses it adds the
# pre-aggregated cost once. A dynamic node (short-circuit operators, the
# inspector's indirect read, anything above them) charges in-line, and
# *where* a charge sits in the source is the interpreter's charge order:
# ``_chg(st, value, ops, mems)`` takes ``value`` as an argument, so it
# charges after ``value`` has been evaluated (the left operand of
# ``and``/``or``, an operator over a dynamic operand, the last index of
# a dynamic read or store), and ``(_pre(st, ops, mems) or x)`` charges
# before ``x`` is (the right operand of a short-circuit, reached only
# when the left does not decide). Every fallback (unbound variable,
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


_CG_BASE = {
    "_UNSET": _UNSET,
    "LocalArray": LocalArray,
    "_rd1": _rd1,
    "_rd2": _rd2,
    "_wr1": _wr1,
    "_wr2": _wr2,
    "_ab": apply_builtin,
    "_dv": _cg_div,
    "_md": _cg_mod,
    "_chg": _chg,
    "_pre": _pre,
    "_fail": _fail,
    "_ir": ixec.indirect_read,
}

# op -> (Python spelling, helper that checks the divisor first).
_CG_DIVOPS = {"div": ("//", "_dv"), "mod": ("%", "_md")}

# (method, rank) -> the fixed-arity helper that inlines it.
_CG_ACCESS = {
    ("read", 1): "_rd1",
    ("read", 2): "_rd2",
    ("write", 1): "_wr1",
    ("write", 2): "_wr2",
}


@lru_cache(maxsize=4096)
def _cg_code(src):
    return compile(src, "<spmd-codegen>", "exec")


class _SrcGen:
    """Python source fragments (plus their helper bindings) for the
    expressions and l-values of one generated function."""

    __slots__ = ("sc", "env", "n")

    def __init__(self, sc):
        self.sc = sc
        self.env = dict(_CG_BASE)
        self.n = 0

    def fresh(self, obj):
        name = f"_h{self.n}"
        self.n += 1
        self.env[name] = obj
        return name

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

    def const(self, value, ops, mems):
        return _CExpr(self, self.literal(value), ops, mems, value)

    def scalar(self, name):
        slot = self.sc.scalar_slots.get(name)
        g = self.fresh(_global_scalar(name))
        t = self.tmp()
        if slot is None:
            return (
                f"({t} if ({t} := st.globals.get({name!r}, _UNSET)) "
                f"is not _UNSET else {g}(st, fr))"
            )
        return (
            f"({t} if ({t} := fr[{slot}]) is not _UNSET "
            f"else {g}(st, fr))"
        )

    def array(self, name):
        slot = self.sc.array_slots.get(name)
        g = self.fresh(_array_getter(name, self.sc))
        t = self.tmp()
        if slot is None:
            return (
                f"({t} if ({t} := st.globals.get({name!r})) is not None "
                f"else {g}(st, fr))"
            )
        return (
            f"({t} if ({t} := fr[{slot}]) is not _UNSET and {t} is not None "
            f"else {g}(st, fr))"
        )

    def buffer(self, name):
        slot = self.sc.array_slots.get(name)
        g = self.fresh(_buffer_getter(name, self.sc))
        t = self.tmp()
        if slot is None:
            src = f"st.globals.get({name!r})"
        else:
            src = f"fr[{slot}]"
        return f"({t} if type({t} := {src}) is LocalArray else {g}(st, fr))"

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
            return _CExpr(self, self.scalar(e.name), 0, 0)
        if isinstance(e, ir.NMyNode):
            return _CExpr(self, "st.rank", 0, 0)
        if isinstance(e, ir.NNProcs):
            return _CExpr(self, "st.nprocs", 0, 0)
        if isinstance(e, ir.NBin):
            if e.op in ("and", "or"):
                return self.short_circuit(e)
            return self.binary(e)
        if isinstance(e, ir.NUn):
            return self.unary(e)
        if isinstance(e, ir.NCall):
            return self.call(e)
        if isinstance(e, ir.NIsRead):
            return _CExpr(
                self, *self.access("read", self.array(e.array), e.indices)
            )
        if isinstance(e, ir.NBufRead):
            return _CExpr(
                self, *self.access("read", self.buffer(e.buf), e.indices)
            )
        if isinstance(e, ir.NIndirect):
            # The executor's read charges itself through the state's
            # meter protocol; the index is charged before it.
            gidx = self.charged(self.expr(e.index))
            return _CExpr(
                self,
                f"_ir(st, st.exchanges.get({e.sched!r}), "
                f"{self.fresh(e)}, {gidx})",
                None, None,
            )
        return _CExpr(self, self.fail(f"unknown expression {e!r}"), 0, 0)

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
                return _CExpr(self, f"bool({right.src})", ops, mems)
        # The right operand must only charge when evaluated (the branch
        # is data-dependent), but the left operand's static cost can be
        # folded into the operator's own +1.
        ops, mems = _static_cost((left,), 1)
        return _CExpr(
            self,
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
            return _CExpr(self, f"_chg(st, {src}, {ops}, {mems})", None, None)
        if left.const is not _NOTCONST and right.const is not _NOTCONST:
            folded = _fold_binop(op, left.const, right.const)
            if folded is not _NOTCONST:
                return self.const(folded, ops, mems)
        return _CExpr(self, src, ops, mems)

    def unary(self, e):
        operand = self.expr(e.operand)
        is_not = e.op == "not"
        sym = "not " if is_not else "-"
        if operand.ops is None:
            return _CExpr(
                self, f"({sym}_chg(st, {operand.src}, 1, 0))", None, None
            )
        ops = operand.ops + 1
        if operand.const is not _NOTCONST:
            try:
                value = (not operand.const) if is_not else -operand.const
            except Exception:
                pass  # left to raise at run time
            else:
                return self.const(value, ops, operand.mems)
        return _CExpr(self, f"({sym}{operand.src})", ops, operand.mems)

    def call(self, e):
        args = [self.expr(a) for a in e.args]
        if not is_builtin(e.func):
            # The interpreter evaluates the arguments before rejecting
            # the call, so errors surface in the same order.
            message = f"unknown builtin {e.func!r} in expression"
            return _CExpr(
                self, self.fail(message, *(a.src for a in args)), None, None
            )
        srcs = ", ".join(a.src for a in args)
        ops, mems = _static_cost(args, 1)
        if any(a.ops is None for a in args):
            return _CExpr(
                self,
                f"_ab({e.func!r}, _chg(st, [{srcs}], {ops}, {mems}))",
                None, None,
            )
        if all(a.const is not _NOTCONST for a in args):
            try:
                value = apply_builtin(e.func, [a.const for a in args])
            except Exception:
                pass  # left to raise at run time
            else:
                return self.const(value, ops, mems)
        return _CExpr(self, f"_ab({e.func!r}, [{srcs}])", ops, mems)

    def store(self, lv, value):
        """``(statement, ops, mems)`` storing the source ``value``."""
        if isinstance(lv, ir.VarLV):
            return f"fr[{self.sc.scalar_slots[lv.name]}] = {value}", 0, 0
        if isinstance(lv, ir.IsLV):
            return self.access("write", self.array(lv.array), lv.indices,
                               value)
        if isinstance(lv, ir.BufLV):
            return self.access("write", self.buffer(lv.buf), lv.indices,
                               value)
        return self.fail(f"unknown lvalue {lv!r}", value), 0, 0

    def function(self, body, params="st, fr"):
        """Compile ``def _f(params):`` with the given indented body."""
        # Helper names are counter-based, so structurally identical
        # fragments (the same statement at every optimization level, or
        # in every rank's specialized program) produce byte-identical
        # source; caching the code object makes recompiling one an exec
        # of a tiny ``def``.
        code = _cg_code(f"def _f({params}):\n{body}")
        ns = self.env
        exec(code, ns)
        return ns.pop("_f")


def _compile_expr(e, sc) -> _CExpr:
    return _SrcGen(sc).expr(e)


def _compile_store(lv, sc):
    """An l-value as a self-charging ``store(st, fr, value)``."""
    gen = _SrcGen(sc)
    store, ops, mems = gen.store(lv, "_v")
    return gen.function(
        f"{_charge_lines(ops, mems)}    {store}", "st, fr, _v"
    )


# ---------------------------------------------------------------------------
# Statements and bodies
# ---------------------------------------------------------------------------
#
# _compile_stmt / _compile_body return a 4-tuple (kind, fn, ops, mems):
#   ("pure", fn, ops, mems)   fn(st, fr) charges nothing; cost is static
#   ("pure", fn, None, None)  fn(st, fr) charges its own (dynamic) cost
#   ("gen", genfn, None, None) generator; self-charging, may yield effects


def _noop(st, fr):
    return None


def _seq(fns):
    if len(fns) == 1:
        return fns[0]
    if len(fns) == 2:
        f0, f1 = fns

        def run2(st, fr):
            f0(st, fr)
            f1(st, fr)
        return run2
    if len(fns) == 3:
        f0, f1, f2 = fns

        def run3(st, fr):
            f0(st, fr)
            f1(st, fr)
            f2(st, fr)
        return run3

    def run(st, fr, _fns=tuple(fns)):
        for f in _fns:
            f(st, fr)
    return run


def _charge_then(fn, ops, mems):
    """Self-charging wrapper around a static pure statement/group."""
    if ops == 0 and mems == 0:
        return fn
    if mems == 0:
        def run(st, fr):
            st.ops += ops
            fn(st, fr)
    elif ops == 0:
        def run(st, fr):
            st.mems += mems
            fn(st, fr)
    else:
        def run(st, fr):
            st.ops += ops
            st.mems += mems
            fn(st, fr)
    return run


def _pure_charged(kind_tuple):
    """Any pure compile result -> a single self-charging fn."""
    kind, fn, ops, mems = kind_tuple
    if ops is None:
        return fn
    return _charge_then(fn, ops, mems)


def _pure_gen(fn):
    def g(st, fr):
        fn(st, fr)
        if False:  # pragma: no cover - makes this function a generator
            yield None
    return g


def _to_gen(kind_tuple):
    kind, fn, ops, mems = kind_tuple
    if kind == "gen":
        return fn
    return _pure_gen(_pure_charged(kind_tuple))


def _compile_body(stmts, sc):
    if not stmts:
        return ("pure", _noop, 0, 0)
    compiled = [_compile_stmt(s, sc) for s in stmts]
    if len(compiled) == 1:
        return compiled[0]

    if all(kind == "pure" for kind, _, _, _ in compiled):
        # Fuse runs of statically-costed statements into groups that
        # charge once. A group must not extend past an NReturn: the
        # statements after it would be pre-charged but never executed.
        if all(c[2] is not None for c in compiled) and not any(
            isinstance(s, ir.NReturn) for s in stmts[:-1]
        ):
            total_ops = sum(c[2] for c in compiled)
            total_mems = sum(c[3] for c in compiled)
            return ("pure", _seq([c[1] for c in compiled]),
                    total_ops, total_mems)
        steps = _fused_steps(stmts, compiled)
        return ("pure", _seq([fn for _, fn in steps]), None, None)

    steps = _fused_steps(stmts, compiled)
    if len(steps) == 1 and steps[0][0]:
        return ("gen", steps[0][1], None, None)

    def g(st, fr, _steps=tuple(steps)):
        for is_gen, f in _steps:
            if is_gen:
                yield from f(st, fr)
            else:
                f(st, fr)
    return ("gen", g, None, None)


def _fused_steps(stmts, compiled):
    """Fuse consecutive static pure statements; returns [(is_gen, fn)]."""
    steps = []
    acc_fns = []
    acc_ops = 0
    acc_mems = 0

    def close():
        nonlocal acc_fns, acc_ops, acc_mems
        if acc_fns:
            steps.append(
                (False, _charge_then(_seq(acc_fns), acc_ops, acc_mems))
            )
            acc_fns = []
            acc_ops = 0
            acc_mems = 0

    for stmt, (kind, fn, ops, mems) in zip(stmts, compiled):
        if kind == "pure" and ops is not None:
            acc_fns.append(fn)
            acc_ops += ops
            acc_mems += mems
            if isinstance(stmt, ir.NReturn):
                close()
        elif kind == "pure":
            close()
            steps.append((False, fn))
        else:
            close()
            steps.append((True, fn))
    close()
    return steps


def _compile_stmt(stmt, sc):
    if isinstance(stmt, ir.NAssign):
        return _compile_assign(stmt, sc)
    if isinstance(stmt, ir.NAllocIs):
        return _compile_alloc(stmt.name, stmt.shape, sc, IStructure)
    if isinstance(stmt, ir.NAllocBuf):
        return _compile_alloc(stmt.name, stmt.shape, sc, LocalArray)
    if isinstance(stmt, ir.NFor):
        return _compile_for(stmt, sc)
    if isinstance(stmt, ir.NIf):
        return _compile_if(stmt, sc)
    if isinstance(stmt, ir.NSend):
        return _compile_send(stmt, sc)
    if isinstance(stmt, ir.NRecv):
        return _compile_recv(stmt, sc)
    if isinstance(stmt, ir.NSendVec):
        return _compile_sendvec(stmt, sc)
    if isinstance(stmt, ir.NRecvVec):
        return _compile_recvvec(stmt, sc)
    if isinstance(stmt, ir.NCoerce):
        return _compile_coerce(stmt, sc)
    if isinstance(stmt, ir.NBroadcast):
        return _compile_broadcast(stmt, sc)
    if isinstance(stmt, ir.NCallProc):
        return _compile_callproc(stmt, sc)
    if isinstance(stmt, ir.NReturn):
        return _compile_return(stmt, sc)
    if isinstance(stmt, ir.NComment):
        return ("pure", _noop, 0, 0)
    if isinstance(stmt, ir.NExchange):
        return _compile_exchange(stmt, sc)
    if isinstance(stmt, ir.NResolve):
        return _compile_resolve(stmt, sc)
    if isinstance(stmt, ir.NAccum):
        return _compile_accum(stmt, sc)
    if isinstance(stmt, ir.NScatterFlush):
        return _compile_scatter_flush(stmt, sc)
    if isinstance(stmt, ir.NAccumLocal):
        return _compile_accum_local(stmt, sc)
    if isinstance(stmt, ir.NArrayAlias):
        return _compile_array_alias(stmt, sc)

    def run(st, fr, _s=stmt):
        raise NodeRuntimeError(f"unknown statement {_s!r}", st.rank)
    return ("pure", run, 0, 0)


def _compile_assign(stmt, sc):
    """One function per assignment: the value first, then the target's
    array lookup and index expressions; a scalar target assigns directly."""
    gen = _SrcGen(sc)
    value = gen.expr(stmt.value)
    if isinstance(stmt.target, ir.VarLV):
        bind = ""
        store, sops, smems = gen.store(stmt.target, value.src)
    else:
        bind = f"    _v = {value.src}\n"
        store, sops, smems = gen.store(stmt.target, "_v")
    if value.ops is not None and sops is not None:
        return ("pure", gen.function(f"{bind}    {store}"),
                value.ops + sops, value.mems + smems)
    run = gen.function(
        f"{_charge_lines(value.ops, value.mems)}{bind}"
        f"{_charge_lines(sops, smems)}    {store}"
    )
    return ("pure", run, None, None)


def _compile_alloc(name, shape, sc, cls):
    dims = [_compile_expr(d, sc) for d in shape]
    slot = sc.array_slots[name]
    static = all(d.ops is not None for d in dims)
    fns = tuple(d.fn if static else _charged(d) for d in dims)

    def run(st, fr, _fns=fns, _slot=slot, _cls=cls):
        fr[_slot] = _cls(
            tuple(f(st, fr) for f in _fns), name=f"{name}@p{st.rank}"
        )
    if static:
        return ("pure", run, sum(d.ops for d in dims),
                sum(d.mems for d in dims))
    return ("pure", run, None, None)


def _compile_for(stmt, sc):
    lo = _compile_expr(stmt.lo, sc)
    hi = _compile_expr(stmt.hi, sc)
    step = _compile_expr(stmt.step, sc)
    bodyk = _compile_body(stmt.body, sc)
    slot = sc.scalar_slots[stmt.var]
    has_return = any(
        isinstance(s, ir.NReturn) for s in ir.walk_stmts(list(stmt.body))
    )
    bounds_static = all(c.ops is not None for c in (lo, hi, step))
    if bounds_static:
        bounds_ops = lo.ops + hi.ops + step.ops
        bounds_mems = lo.mems + hi.mems + step.mems
        lof, hif, stepf = lo.fn, hi.fn, step.fn
    else:
        bounds_ops = bounds_mems = 0
        lof, hif, stepf = _charged(lo), _charged(hi), _charged(step)

    kind, bfn, bops, bmems = bodyk
    if kind == "pure" and bops is not None and not has_return:
        # Fast path: the body cost is a compile-time constant, so the
        # whole loop charges n * (1 + body) in one step and the body
        # closure runs with zero per-node bookkeeping.
        per_ops = 1 + bops

        def run(st, fr):
            st.ops += bounds_ops
            if bounds_mems:
                st.mems += bounds_mems
            lo_ = lof(st, fr)
            hi_ = hif(st, fr)
            step_ = stepf(st, fr)
            if step_ <= 0:
                raise NodeRuntimeError(
                    f"non-positive loop step {step_}", st.rank
                )
            r = range(lo_, hi_ + 1, step_)
            n = len(r)
            if n:
                st.ops += n * per_ops
                if bmems:
                    st.mems += n * bmems
                for v in r:
                    fr[slot] = v
                    bfn(st, fr)
        return ("pure", run, None, None)

    if kind == "pure":
        bcharged = _pure_charged(bodyk)

        def run(st, fr):
            st.ops += bounds_ops
            if bounds_mems:
                st.mems += bounds_mems
            lo_ = lof(st, fr)
            hi_ = hif(st, fr)
            step_ = stepf(st, fr)
            if step_ <= 0:
                raise NodeRuntimeError(
                    f"non-positive loop step {step_}", st.rank
                )
            for v in range(lo_, hi_ + 1, step_):
                st.ops += 1
                fr[slot] = v
                bcharged(st, fr)
        return ("pure", run, None, None)

    bgen = bfn

    def g(st, fr):
        st.ops += bounds_ops
        if bounds_mems:
            st.mems += bounds_mems
        lo_ = lof(st, fr)
        hi_ = hif(st, fr)
        step_ = stepf(st, fr)
        if step_ <= 0:
            raise NodeRuntimeError(f"non-positive loop step {step_}", st.rank)
        for v in range(lo_, hi_ + 1, step_):
            st.ops += 1
            fr[slot] = v
            yield from bgen(st, fr)
    return ("gen", g, None, None)


def _compile_if(stmt, sc):
    cond = _compile_expr(stmt.cond, sc)
    thenk = _compile_body(stmt.then_body, sc)
    elsek = _compile_body(stmt.else_body, sc)

    if cond.ops is not None and cond.const is not _NOTCONST:
        # Constant guard (a rank-specialized program's, typically): the
        # branch is known at compile time, but the interpreter still
        # charges the cond evaluation every pass.
        chosen = thenk if cond.const else elsek
        kind, fn, ops, mems = chosen
        if kind == "pure" and ops is not None:
            return ("pure", fn, cond.ops + ops, cond.mems + mems)
        pre = _charge_then(_noop, cond.ops, cond.mems)
        if kind == "pure":
            def run(st, fr, _p=pre, _f=fn):
                _p(st, fr)
                _f(st, fr)
            return ("pure", run, None, None)

        def g(st, fr, _p=pre, _f=fn):
            _p(st, fr)
            yield from _f(st, fr)
        return ("gen", g, None, None)

    condf = _charged(cond)
    if thenk[0] == "pure" and elsek[0] == "pure":
        tf = _pure_charged(thenk)
        ef = _pure_charged(elsek)

        def run(st, fr, _c=condf, _t=tf, _e=ef):
            if _c(st, fr):
                _t(st, fr)
            else:
                _e(st, fr)
        return ("pure", run, None, None)

    tg = _to_gen(thenk)
    eg = _to_gen(elsek)

    def g(st, fr, _c=condf, _t=tg, _e=eg):
        if _c(st, fr):
            yield from _t(st, fr)
        else:
            yield from _e(st, fr)
    return ("gen", g, None, None)


def _compile_send(stmt, sc):
    values = [_compile_expr(v, sc) for v in stmt.values]
    dst = _compile_expr(stmt.dst, sc)
    vfns, pre_ops, pre_mems = _prep([*values, dst])
    *valfns, dstf = vfns
    valfns = tuple(valfns)
    channel = stmt.channel

    if len(valfns) == 1:
        # Nearly every scalar send carries one value; build the payload
        # tuple directly rather than through a genexpr frame.
        v0 = valfns[0]

        def g(st, fr):
            if pre_ops:
                st.ops += pre_ops
            if pre_mems:
                st.mems += pre_mems
            payload = (v0(st, fr),)
            dst_ = dstf(st, fr)
            ops = st.ops
            mems = st.mems
            if ops or mems:
                st.ops = 0
                st.mems = 0
                cost = ops * st.op_us + mems * st.mem_us
                if cost > 0.0:
                    yield Compute(cost)
            yield Send(dst_, channel, payload)
        return ("gen", g, None, None)

    def g(st, fr):
        if pre_ops:
            st.ops += pre_ops
        if pre_mems:
            st.mems += pre_mems
        payload = tuple(f(st, fr) for f in valfns)
        dst_ = dstf(st, fr)
        ops = st.ops
        mems = st.mems
        if ops or mems:
            st.ops = 0
            st.mems = 0
            cost = ops * st.op_us + mems * st.mem_us
            if cost > 0.0:
                yield Compute(cost)
        yield Send(dst_, channel, payload)
    return ("gen", g, None, None)


def _compile_recv(stmt, sc):
    src = _compile_expr(stmt.src, sc)
    srcf = _charged(src)
    stores = tuple(
        _compile_store(t, sc) for t in stmt.targets
    )
    channel = stmt.channel
    ntargets = len(stmt.targets)

    def g(st, fr):
        src_ = srcf(st, fr)
        ops = st.ops
        mems = st.mems
        if ops or mems:
            st.ops = 0
            st.mems = 0
            cost = ops * st.op_us + mems * st.mem_us
            if cost > 0.0:
                yield Compute(cost)
        payload = yield Recv(src_, channel)
        if len(payload) != ntargets:
            raise NodeRuntimeError(
                f"channel {channel!r}: expected "
                f"{ntargets} scalars, got {len(payload)}",
                st.rank,
            )
        for store, value in zip(stores, payload):
            store(st, fr, value)
    return ("gen", g, None, None)


def _compile_sendvec(stmt, sc):
    getbuf = _buffer_getter(stmt.buf, sc)
    lo = _compile_expr(stmt.lo, sc)
    hi = _compile_expr(stmt.hi, sc)
    dst = _compile_expr(stmt.dst, sc)
    (lof, hif, dstf), pre_ops, pre_mems = _prep([lo, hi, dst])
    channel = stmt.channel

    def g(st, fr):
        buf = getbuf(st, fr)
        if pre_ops:
            st.ops += pre_ops
        if pre_mems:
            st.mems += pre_mems
        lo_ = lof(st, fr)
        hi_ = hif(st, fr)
        dst_ = dstf(st, fr)
        st.mems += max(0, hi_ - lo_ + 1)
        # Bulk-slice the staging buffer when the range is clean; any
        # oddity (rank, bounds, never-written slot) re-reads per element
        # for the exact error.
        if (
            type(buf) is LocalArray
            and len(buf.shape) == 1
            and type(lo_) is int
            and type(hi_) is int
            and 1 <= lo_ <= hi_ <= buf.shape[0]
        ):
            payload = tuple(buf._cells[lo_ - 1 : hi_])
            if UNDEFINED in payload:
                read = buf.read
                payload = tuple(read(k) for k in range(lo_, hi_ + 1))
        elif type(lo_) is int and type(hi_) is int and lo_ > hi_:
            payload = ()
        else:
            read = buf.read
            payload = tuple(read(k) for k in range(lo_, hi_ + 1))
        ops = st.ops
        mems = st.mems
        if ops or mems:
            st.ops = 0
            st.mems = 0
            cost = ops * st.op_us + mems * st.mem_us
            if cost > 0.0:
                yield Compute(cost)
        yield Send(dst_, channel, payload)
    return ("gen", g, None, None)


def _compile_recvvec(stmt, sc):
    src = _compile_expr(stmt.src, sc)
    getbuf = _buffer_getter(stmt.buf, sc)
    lo = _compile_expr(stmt.lo, sc)
    hi = _compile_expr(stmt.hi, sc)
    (srcf, lof, hif), pre_ops, pre_mems = _prep([src, lo, hi])
    channel = stmt.channel

    def g(st, fr):
        if pre_ops:
            st.ops += pre_ops
        if pre_mems:
            st.mems += pre_mems
        src_ = srcf(st, fr)
        buf = getbuf(st, fr)
        lo_ = lof(st, fr)
        hi_ = hif(st, fr)
        ops = st.ops
        mems = st.mems
        if ops or mems:
            st.ops = 0
            st.mems = 0
            cost = ops * st.op_us + mems * st.mem_us
            if cost > 0.0:
                yield Compute(cost)
        payload = yield Recv(src_, channel)
        if len(payload) != hi_ - lo_ + 1:
            raise NodeRuntimeError(
                f"channel {channel!r}: vector length mismatch "
                f"(wanted {hi_ - lo_ + 1}, got {len(payload)})",
                st.rank,
            )
        st.mems += len(payload)
        if (
            type(buf) is LocalArray
            and len(buf.shape) == 1
            and type(lo_) is int
            and 1 <= lo_
            and lo_ - 1 + len(payload) <= buf.shape[0]
        ):
            buf._cells[lo_ - 1 : lo_ - 1 + len(payload)] = payload
        else:
            write = buf.write
            for k, value in enumerate(payload):
                write(lo_ + k, value)
    return ("gen", g, None, None)


def _compile_coerce(stmt, sc):
    ownerf = _charged(_compile_expr(stmt.owner, sc))
    destf = _charged(_compile_expr(stmt.dest, sc))
    valf = _charged(_compile_expr(stmt.value, sc))
    store = _compile_store(stmt.target, sc)
    channel = stmt.channel

    def g(st, fr):
        rank = st.rank
        owner = ownerf(st, fr)
        dest = destf(st, fr)
        st.ops += 2  # the two membership tests every processor makes
        if owner == dest:
            if rank == dest:
                store(st, fr, valf(st, fr))
            return
        if rank == owner:
            value = valf(st, fr)
            ops = st.ops
            mems = st.mems
            if ops or mems:
                st.ops = 0
                st.mems = 0
                cost = ops * st.op_us + mems * st.mem_us
                if cost > 0.0:
                    yield Compute(cost)
            yield Send(dest, channel, (value,))
        elif rank == dest:
            ops = st.ops
            mems = st.mems
            if ops or mems:
                st.ops = 0
                st.mems = 0
                cost = ops * st.op_us + mems * st.mem_us
                if cost > 0.0:
                    yield Compute(cost)
            payload = yield Recv(owner, channel)
            store(st, fr, payload[0])
    return ("gen", g, None, None)


def _compile_broadcast(stmt, sc):
    ownerf = _charged(_compile_expr(stmt.owner, sc))
    valf = _charged(_compile_expr(stmt.value, sc))
    store = _compile_store(stmt.target, sc)
    channel = stmt.channel

    def g(st, fr):
        owner = ownerf(st, fr)
        st.ops += 1
        if st.rank == owner:
            value = valf(st, fr)
            store(st, fr, value)
            yield from _flush(st)
            for q in range(st.nprocs):
                if q != owner:
                    yield Send(q, channel, (value,))
        else:
            yield from _flush(st)
            payload = yield Recv(owner, channel)
            store(st, fr, payload[0])
    return ("gen", g, None, None)


def _compile_callproc(stmt, sc):
    argfns = tuple(
        _array_getter(a, sc) if isinstance(a, str)
        else _charged(_compile_expr(a, sc))
        for a in stmt.args
    )
    procs = sc.procs
    name = stmt.proc
    if stmt.array_result is not None:
        arr_slot = sc.array_slots[stmt.array_result]

        def bind(st, fr, result, _i=arr_slot):
            fr[_i] = result
    elif stmt.result is not None:
        store = _compile_store(stmt.result, sc)

        def bind(st, fr, result, _s=store):
            _s(st, fr, result)
    else:
        def bind(st, fr, result):
            return None

    # A callee already compiled (defined before this call site) and known
    # pure is invoked directly — the whole call statement becomes a pure
    # step that fuses with its neighbours, dropping two generator frames
    # per invocation. Forward/recursive references dispatch at run time.
    entry = procs.get(name)
    if entry is not None and entry[0] == "pure":
        purefn = entry[1]

        def run(st, fr, _p=purefn):
            bind(st, fr, _p(st, [f(st, fr) for f in argfns]))
        return ("pure", run, None, None)

    def g(st, fr):
        args = [f(st, fr) for f in argfns]
        entry = procs.get(name)
        if entry is None:
            raise NodeRuntimeError(
                f"unknown node procedure {name!r}", st.rank
            )
        kind, fn = entry
        if kind == "pure":
            result = fn(st, args)
        else:
            result = yield from fn(st, args)
        bind(st, fr, result)
    return ("gen", g, None, None)


class _CompiledAdapter:
    """Adapter handing this backend's meters/frame to the shared executor.

    Name lookups replicate the compiled name resolution (frame slot with
    globals fallback) dynamically — they only run during the build phase,
    never in the steady-state data phase.
    """

    __slots__ = ("st", "fr", "sc", "enumg")

    def __init__(self, st, fr, sc, enumg=None):
        self.st = st
        self.fr = fr
        self.sc = sc
        self.enumg = enumg

    @property
    def rank(self):
        return self.st.rank

    @property
    def nprocs(self):
        return self.st.nprocs

    def charge_op(self, count: int = 1) -> None:
        self.st.ops += count

    def charge_mem(self, count: int = 1) -> None:
        self.st.mems += count

    def flush(self):
        return _flush(self.st)

    def lookup(self, name: str):
        slot = self.sc.scalar_slots.get(name)
        if slot is not None:
            value = self.fr[slot]
            if value is not _UNSET:
                return value
        value = self.st.globals.get(name, _UNSET)
        if value is _UNSET:
            raise NodeRuntimeError(f"unbound variable {name!r}", self.st.rank)
        return value

    def get_array(self, name: str):
        slot = self.sc.array_slots.get(name)
        if slot is not None:
            arr = self.fr[slot]
            if arr is not _UNSET and arr is not None:
                return arr
        arr = self.st.globals.get(name)
        if arr is None:
            raise NodeRuntimeError(f"unknown array {name!r}", self.st.rank)
        return arr

    def run_enum(self, body):
        # The enumeration body was compiled with the procedure; ``body``
        # (the IR) is ignored in favour of the precompiled generator.
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


def _compile_exchange(stmt, sc):
    enumg = _to_gen(_compile_body(list(stmt.enum_body), sc))
    sched = stmt.sched

    def g(st, fr, _stmt=stmt, _sched=sched, _enumg=enumg, _sc=sc):
        state = ixec.get_state(st.exchanges, _sched)
        ad = _CompiledAdapter(st, fr, _sc, _enumg)
        yield from ixec.exec_exchange(ad, state, _stmt)
    return ("gen", g, None, None)


def _compile_resolve(stmt, sc):
    idxf = _charged(_compile_expr(stmt.index, sc))
    sched = stmt.sched

    def run(st, fr, _i=idxf, _sched=sched):
        gidx = _i(st, fr)
        ixec.resolve(st, ixec.get_state(st.exchanges, _sched), gidx)
    return ("pure", run, None, None)


def _compile_accum(stmt, sc):
    idxf = _charged(_compile_expr(stmt.index, sc))
    valf = _charged(_compile_expr(stmt.value, sc))
    sched = stmt.sched

    def run(st, fr, _i=idxf, _v=valf, _sched=sched):
        gidx = _i(st, fr)
        value = _v(st, fr)
        ixec.accum(st, ixec.get_state(st.exchanges, _sched), gidx, value)
    return ("pure", run, None, None)


def _compile_scatter_flush(stmt, sc):
    def g(st, fr, _stmt=stmt, _sc=sc):
        state = ixec.get_state(st.exchanges, _stmt.sched)
        ad = _CompiledAdapter(st, fr, _sc)
        yield from ixec.exec_scatter_flush(ad, state, _stmt)
    return ("gen", g, None, None)


def _compile_accum_local(stmt, sc):
    get = _array_getter(stmt.array, sc)
    idxfs = tuple(_charged(_compile_expr(i, sc)) for i in stmt.indices)
    valf = _charged(_compile_expr(stmt.value, sc))

    def run(st, fr, _g=get, _fns=idxfs, _v=valf):
        indices = tuple(f(st, fr) for f in _fns)
        value = _v(st, fr)
        ixec.accum_local(st, _g(st, fr), indices, value)
    return ("pure", run, None, None)


def _compile_array_alias(stmt, sc):
    get = _array_getter(stmt.source, sc)
    slot = sc.array_slots[stmt.name]

    def run(st, fr, _g=get, _slot=slot):
        fr[_slot] = _g(st, fr)
    return ("pure", run, 0, 0)


def _compile_return(stmt, sc):
    if stmt.value is None:
        def run(st, fr):
            raise _Return(None)
        return ("pure", run, 0, 0)
    if isinstance(stmt.value, str):
        get = _array_getter(stmt.value, sc)

        def run(st, fr, _g=get):
            raise _Return(_g(st, fr))
        return ("pure", run, 0, 0)
    value = _compile_expr(stmt.value, sc)
    if value.ops is not None:
        vf = value.fn

        def run(st, fr, _v=vf):
            raise _Return(_v(st, fr))
        return ("pure", run, value.ops, value.mems)
    vf = _charged(value)

    def run(st, fr, _v=vf):
        raise _Return(_v(st, fr))
    return ("pure", run, None, None)


# ---------------------------------------------------------------------------
# Procedures, programs, and the compilation table
# ---------------------------------------------------------------------------


def _compile_proc(proc, procs):
    """Compile one procedure to ``("gen", genfn)`` or ``("pure", fn)``.

    A procedure whose body yields no effects compiles to a plain
    function, so call sites invoke it without creating a generator and
    threading a ``yield from`` chain through the simulator.
    """
    sc = _ProcContext(procs, proc)
    bodyk = _compile_body(list(proc.body), sc)
    body_is_gen = bodyk[0] == "gen"
    bodyf = bodyk[1] if body_is_gen else _pure_charged(bodyk)
    nslots = sc.nslots
    nparams = len(proc.params)
    name = proc.name
    pslots = tuple(
        sc.array_slots[p] if p in proc.array_params else sc.scalar_slots[p]
        for p in proc.params
    )

    if not body_is_gen:
        def purefn(st, args):
            if len(args) != nparams:
                raise NodeRuntimeError(
                    f"{name} expects {nparams} arguments, got {len(args)}",
                    st.rank,
                )
            st.depth += 1
            if st.depth > ir.MAX_CALL_DEPTH:
                raise NodeRuntimeError(
                    f"call depth exceeded in {name}", st.rank
                )
            fr = [_UNSET] * nslots
            for i, arg in zip(pslots, args):
                fr[i] = arg
            try:
                bodyf(st, fr)
                result = None
            except _Return as ret:
                result = ret.value
            finally:
                st.depth -= 1
            return result
        return ("pure", purefn)

    def procfn(st, args):
        if len(args) != nparams:
            raise NodeRuntimeError(
                f"{name} expects {nparams} arguments, got {len(args)}",
                st.rank,
            )
        st.depth += 1
        if st.depth > ir.MAX_CALL_DEPTH:
            raise NodeRuntimeError(f"call depth exceeded in {name}", st.rank)
        fr = [_UNSET] * nslots
        for i, arg in zip(pslots, args):
            fr[i] = arg
        try:
            yield from bodyf(st, fr)
            result = None
        except _Return as ret:
            result = ret.value
        finally:
            st.depth -= 1
        return result
    return ("gen", procfn)


class CompiledNode:
    """A NodeProgram compiled to closures, for any rank of any ring."""

    __slots__ = ("program", "_procs", "_entry")

    def __init__(self, program: ir.NodeProgram):
        self.program = program
        procs: dict[str, object] = {}
        for name, proc in program.procs.items():
            procs[name] = _compile_proc(proc, procs)
        self._procs = procs
        self._entry = program.entry

    def start(self, rank: int, nprocs: int, args, params: MachineParams,
              globals_: dict):
        """A fresh effect generator: one processor's simulated execution."""
        st = _State(rank, nprocs, params.op_us, params.mem_us, dict(globals_))
        return self._drive(st, list(args))

    def _drive(self, st, args):
        entry = self._procs.get(self._entry)
        if entry is None:
            raise KeyError(self._entry)
        kind, fn = entry
        if kind == "pure":
            result = fn(st, args)
        else:
            result = yield from fn(st, args)
        yield from _flush(st)
        return result


perf.register_cache("spmd_compile", {})


def compiled_node(program: ir.NodeProgram) -> CompiledNode:
    """The (memoized) compilation of ``program``: one closure tree that
    every rank of every ring size runs.

    :class:`NodeProgram` hashes by identity, so the ``spmd_compile``
    table never confuses two structurally-similar programs, and holding
    the key alive in the table keeps the identity stable.
    """
    return perf.memo("spmd_compile", program, lambda: CompiledNode(program))
