"""Per-processor specialization: partial evaluation over the rank.

The paper's compiler emits distinct code per processor (Figure 4d shows
P1/P2/P3 each running two lines). Our SPMD programs carry the rank
symbolically; this pass plugs in a concrete rank (and optionally the ring
size) and folds the residue: guards on ``p`` disappear, dead branches and
empty loops vanish. Used both to display Figure-4d-style listings and to
run simulations without per-element guard overhead.

Specializing S ranks used to redo the full rewrite S times. The cached
path now partially evaluates **once over a symbolic rank** per
``(program, nprocs)`` — folding the ring size and every rank-independent
subtree — and then, per processor, patches only the statements whose
meaning depends on the rank (those mentioning ``mynode()`` or carrying a
``coerce``). Rank-independent subtrees are shared, by identity, across
all S specialized programs. The two-pass result is identical to the
direct one-pass rewrite (the fold is idempotent and the generic pass
only performs folds the concrete pass would also perform); differential
tests pin this, and disabling caches (:mod:`repro.perf`) falls back to
the direct path.
"""

from __future__ import annotations

from repro import perf
from repro.spmd import ir
from repro.spmd.ir import NBin, NCall, NConst, NMyNode, NNProcs, NUn, NVar


def specialize_for_rank(
    program: ir.NodeProgram, rank: int, nprocs: int | None = None
) -> ir.NodeProgram:
    """Partially evaluate ``program`` for one concrete processor.

    Cached per ``(program, nprocs)``: the rank-generic fold runs once and
    each rank only patches rank-dependent residues (and is itself cached
    per rank). With caches disabled the original one-pass rewrite runs.
    """
    if not perf.caches_enabled():
        return _specialize_direct(program, rank, nprocs)
    return specializer_for(program, nprocs).for_rank(rank)


perf.register_cache("specialize.generic", {})


def specializer_for(
    program: ir.NodeProgram, nprocs: int | None
) -> "RankSpecializer":
    """The (cached) rank-generic specializer for one program/ring size."""
    return perf.memo(
        "specialize.generic", (program, nprocs),
        lambda: RankSpecializer(program, nprocs),
    )


def _specialize_direct(
    program: ir.NodeProgram, rank: int, nprocs: int | None
) -> ir.NodeProgram:
    """The uncached one-pass rewrite (kept as the differential oracle)."""
    procs = {
        name: ir.NodeProc(
            name=proc.name,
            params=list(proc.params),
            array_params=set(proc.array_params),
            body=_fold_body(proc.body, rank, nprocs),
        )
        for name, proc in program.procs.items()
    }
    return ir.NodeProgram(
        name=program.name + _suffix(rank, nprocs),
        procs=procs,
        entry=program.entry,
    )


def _suffix(rank: int, nprocs: int | None) -> str:
    return f"@p{rank}" if nprocs is None else f"@p{rank}/S{nprocs}"


class RankSpecializer:
    """Rank-generic partial evaluation, patched per concrete rank.

    ``generic`` holds each procedure folded with the ring size plugged in
    but the rank symbolic. ``for_rank`` walks that skeleton touching only
    rank-dependent statements; everything else is shared by reference.
    """

    def __init__(self, program: ir.NodeProgram, nprocs: int | None):
        self.program = program
        self.nprocs = nprocs
        self._by_rank: dict[int, ir.NodeProgram] = {}
        self._dep: dict[int, bool] = {}
        self.generic = {
            name: ir.NodeProc(
                name=proc.name,
                params=list(proc.params),
                array_params=set(proc.array_params),
                body=_fold_body(proc.body, None, nprocs),
            )
            for name, proc in program.procs.items()
        }

    def for_rank(self, rank: int) -> ir.NodeProgram:
        cached = self._by_rank.get(rank)
        if cached is not None:
            perf.hit("specialize.rank")
            return cached
        perf.miss("specialize.rank")
        procs = {
            name: ir.NodeProc(
                name=proc.name,
                params=list(proc.params),
                array_params=set(proc.array_params),
                body=_fold_body(proc.body, rank, self.nprocs, self._depends),
            )
            for name, proc in self.generic.items()
        }
        out = ir.NodeProgram(
            name=self.program.name + _suffix(rank, self.nprocs),
            procs=procs,
            entry=self.program.entry,
        )
        self._by_rank[rank] = out
        return out

    def _depends(self, node: object) -> bool:
        """Does folding this (generic-tree) node depend on the rank?

        Memoized by id — every queried node is reachable from ``generic``
        and therefore kept alive by it, so ids are stable.
        """
        key = id(node)
        got = self._dep.get(key)
        if got is None:
            got = isinstance(node, (NMyNode, ir.NCoerce)) or any(
                self._depends(child) for child in _children(node)
            )
            self._dep[key] = got
        return got


def _children(node: object) -> tuple:
    """Sub-nodes relevant to rank-dependence (exprs, lvalues, bodies)."""
    if isinstance(node, NBin):
        return (node.left, node.right)
    if isinstance(node, NUn):
        return (node.operand,)
    if isinstance(node, NCall):
        return node.args
    if isinstance(node, (ir.NIsRead, ir.NBufRead, ir.IsLV, ir.BufLV)):
        return node.indices
    if isinstance(node, ir.NAssign):
        return (node.target, node.value)
    if isinstance(node, (ir.NAllocIs, ir.NAllocBuf)):
        return node.shape
    if isinstance(node, ir.NFor):
        return (node.lo, node.hi, node.step) + node.body
    if isinstance(node, ir.NIf):
        return (node.cond,) + node.then_body + node.else_body
    if isinstance(node, ir.NSend):
        return (node.dst,) + node.values
    if isinstance(node, ir.NRecv):
        return (node.src,) + node.targets
    if isinstance(node, (ir.NSendVec, ir.NRecvVec)):
        dst = node.dst if isinstance(node, ir.NSendVec) else node.src
        return (dst, node.lo, node.hi)
    if isinstance(node, ir.NBroadcast):
        return (node.target, node.value, node.owner)
    if isinstance(node, ir.NCallProc):
        return tuple(a for a in node.args if not isinstance(a, str))
    if isinstance(node, ir.NReturn):
        return (node.value,) if isinstance(node.value, ir.NExpr) else ()
    if isinstance(node, ir.NIndirect):
        return (node.index,)
    if isinstance(node, ir.NResolve):
        return (node.index,)
    if isinstance(node, ir.NExchange):
        return (node.owner, node.local) + node.enum_body
    if isinstance(node, ir.NAccum):
        return (node.index, node.value)
    if isinstance(node, ir.NScatterFlush):
        return (node.owner, node.local)
    if isinstance(node, ir.NAccumLocal):
        return node.indices + (node.value,)
    return ()


def _fold_expr(
    e: ir.NExpr, rank: int | None, nprocs: int | None, dep=None
) -> ir.NExpr:
    if dep is not None and not dep(e):
        return e
    if isinstance(e, NMyNode):
        return e if rank is None else NConst(rank)
    if isinstance(e, NNProcs):
        return e if nprocs is None else NConst(nprocs)
    if isinstance(e, NConst) or isinstance(e, NVar):
        return e
    if isinstance(e, NBin):
        left = _fold_expr(e.left, rank, nprocs, dep)
        right = _fold_expr(e.right, rank, nprocs, dep)
        if isinstance(left, NConst) and isinstance(right, NConst):
            folded = _apply(e.op, left.value, right.value)
            if folded is not None:
                return NConst(folded)
        return NBin(e.op, left, right)
    if isinstance(e, NUn):
        operand = _fold_expr(e.operand, rank, nprocs, dep)
        if isinstance(operand, NConst):
            return NConst(
                (not operand.value) if e.op == "not" else -operand.value
            )
        return NUn(e.op, operand)
    if isinstance(e, NCall):
        args = tuple(_fold_expr(a, rank, nprocs, dep) for a in e.args)
        if all(isinstance(a, NConst) for a in args):
            from repro.lang.builtins import apply_builtin, is_builtin

            if is_builtin(e.func):
                return NConst(apply_builtin(e.func, [a.value for a in args]))
        return NCall(e.func, args)
    if isinstance(e, ir.NIsRead):
        return ir.NIsRead(
            e.array, tuple(_fold_expr(i, rank, nprocs, dep) for i in e.indices)
        )
    if isinstance(e, ir.NBufRead):
        return ir.NBufRead(
            e.buf, tuple(_fold_expr(i, rank, nprocs, dep) for i in e.indices)
        )
    if isinstance(e, ir.NIndirect):
        return ir.NIndirect(e.sched, e.array, _fold_expr(e.index, rank, nprocs, dep))
    return e


def _apply(op: str, left, right):
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "div":
            return left // right
        if op == "mod":
            return left % right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "and":
            return bool(left) and bool(right)
        if op == "or":
            return bool(left) or bool(right)
    except ZeroDivisionError:
        return None
    return None


def _fold_lv(
    lv: ir.LValue, rank: int | None, nprocs: int | None, dep=None
) -> ir.LValue:
    if dep is not None and not dep(lv):
        return lv
    if isinstance(lv, ir.IsLV):
        return ir.IsLV(
            lv.array, tuple(_fold_expr(i, rank, nprocs, dep) for i in lv.indices)
        )
    if isinstance(lv, ir.BufLV):
        return ir.BufLV(
            lv.buf, tuple(_fold_expr(i, rank, nprocs, dep) for i in lv.indices)
        )
    return lv


def _fold_body(
    body, rank: int | None, nprocs: int | None, dep=None
) -> list[ir.NStmt]:
    out: list[ir.NStmt] = []
    for stmt in body:
        out.extend(_fold_stmt(stmt, rank, nprocs, dep))
    return out


def _fold_stmt(
    stmt: ir.NStmt, rank: int | None, nprocs: int | None, dep=None
) -> list[ir.NStmt]:
    if dep is not None and not dep(stmt):
        return [stmt]
    fold = lambda e: _fold_expr(e, rank, nprocs, dep)  # noqa: E731
    if isinstance(stmt, ir.NIf):
        cond = fold(stmt.cond)
        if isinstance(cond, NConst):
            branch = stmt.then_body if cond.value else stmt.else_body
            return _fold_body(branch, rank, nprocs, dep)
        return [
            ir.NIf(
                cond,
                _fold_body(stmt.then_body, rank, nprocs, dep),
                _fold_body(stmt.else_body, rank, nprocs, dep),
            )
        ]
    if isinstance(stmt, ir.NFor):
        lo = fold(stmt.lo)
        hi = fold(stmt.hi)
        step = fold(stmt.step)
        if (
            isinstance(lo, NConst)
            and isinstance(hi, NConst)
            and lo.value > hi.value
        ):
            return []  # statically empty
        return [
            ir.NFor(stmt.var, lo, hi, step, _fold_body(stmt.body, rank, nprocs, dep))
        ]
    if isinstance(stmt, ir.NAssign):
        return [
            ir.NAssign(_fold_lv(stmt.target, rank, nprocs, dep), fold(stmt.value))
        ]
    if isinstance(stmt, ir.NAllocIs):
        return [ir.NAllocIs(stmt.name, tuple(fold(d) for d in stmt.shape))]
    if isinstance(stmt, ir.NAllocBuf):
        return [ir.NAllocBuf(stmt.name, tuple(fold(d) for d in stmt.shape))]
    if isinstance(stmt, ir.NSend):
        return [ir.NSend(fold(stmt.dst), stmt.channel, tuple(fold(v) for v in stmt.values))]
    if isinstance(stmt, ir.NRecv):
        return [
            ir.NRecv(
                fold(stmt.src),
                stmt.channel,
                tuple(_fold_lv(t, rank, nprocs, dep) for t in stmt.targets),
            )
        ]
    if isinstance(stmt, ir.NSendVec):
        return [ir.NSendVec(fold(stmt.dst), stmt.channel, stmt.buf, fold(stmt.lo), fold(stmt.hi))]
    if isinstance(stmt, ir.NRecvVec):
        return [ir.NRecvVec(fold(stmt.src), stmt.channel, stmt.buf, fold(stmt.lo), fold(stmt.hi))]
    if isinstance(stmt, ir.NCoerce):
        owner = fold(stmt.owner)
        dest = fold(stmt.dest)
        value = fold(stmt.value)
        if (
            rank is not None
            and isinstance(owner, NConst)
            and isinstance(dest, NConst)
        ):
            # Fully resolved coerce: fold into its live halves (Figure 4d).
            if owner.value == dest.value:
                if rank == dest.value:
                    return [ir.NAssign(stmt.target, value)]
                return []
            if rank == owner.value:
                return [ir.NSend(dest, stmt.channel, (value,))]
            if rank == dest.value:
                return [ir.NRecv(owner, stmt.channel, (stmt.target,))]
            return []
        return [ir.NCoerce(stmt.target, value, owner, dest, stmt.channel)]
    if isinstance(stmt, ir.NBroadcast):
        return [ir.NBroadcast(stmt.target, fold(stmt.value), fold(stmt.owner), stmt.channel)]
    if isinstance(stmt, ir.NCallProc):
        return [
            ir.NCallProc(
                stmt.proc,
                tuple(a if isinstance(a, str) else fold(a) for a in stmt.args),
                result=stmt.result,
                array_result=stmt.array_result,
            )
        ]
    if isinstance(stmt, ir.NReturn):
        if stmt.value is None or isinstance(stmt.value, str):
            return [stmt]
        return [ir.NReturn(fold(stmt.value))]
    if isinstance(stmt, ir.NResolve):
        return [ir.NResolve(stmt.sched, fold(stmt.index))]
    if isinstance(stmt, ir.NExchange):
        return [
            ir.NExchange(
                stmt.sched,
                stmt.array,
                stmt.channel,
                tuple(_fold_body(stmt.enum_body, rank, nprocs, dep)),
                fold(stmt.owner),
                fold(stmt.local),
            )
        ]
    if isinstance(stmt, ir.NAccum):
        return [ir.NAccum(stmt.sched, stmt.array, fold(stmt.index), fold(stmt.value))]
    if isinstance(stmt, ir.NScatterFlush):
        return [
            ir.NScatterFlush(
                stmt.sched, stmt.array, stmt.channel, fold(stmt.owner), fold(stmt.local)
            )
        ]
    if isinstance(stmt, ir.NAccumLocal):
        return [
            ir.NAccumLocal(
                stmt.array, tuple(fold(i) for i in stmt.indices), fold(stmt.value)
            )
        ]
    return [stmt]
