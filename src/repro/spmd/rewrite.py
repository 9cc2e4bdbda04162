"""Structural rewriting utilities for SPMD IR.

Transformation passes (loop distribution, vectorization, strip mining)
need to substitute expressions for variables and to copy statement trees.
Statements are frozen dataclasses, so every rewrite builds fresh nodes.
"""

from __future__ import annotations

from repro.spmd import ir


def subst_expr(e: ir.NExpr, env: dict[str, ir.NExpr]) -> ir.NExpr:
    """Replace variables by expressions inside an expression."""
    if isinstance(e, ir.NVar):
        return env.get(e.name, e)
    if isinstance(e, (ir.NConst, ir.NMyNode, ir.NNProcs)):
        return e
    if isinstance(e, ir.NBin):
        return ir.NBin(e.op, subst_expr(e.left, env), subst_expr(e.right, env))
    if isinstance(e, ir.NUn):
        return ir.NUn(e.op, subst_expr(e.operand, env))
    if isinstance(e, ir.NCall):
        return ir.NCall(e.func, tuple(subst_expr(a, env) for a in e.args))
    if isinstance(e, ir.NIsRead):
        return ir.NIsRead(e.array, tuple(subst_expr(i, env) for i in e.indices))
    if isinstance(e, ir.NBufRead):
        return ir.NBufRead(e.buf, tuple(subst_expr(i, env) for i in e.indices))
    raise TypeError(f"cannot substitute into {e!r}")


def subst_lvalue(lv: ir.LValue, env: dict[str, ir.NExpr]) -> ir.LValue:
    if isinstance(lv, ir.VarLV):
        return lv
    if isinstance(lv, ir.IsLV):
        return ir.IsLV(lv.array, tuple(subst_expr(i, env) for i in lv.indices))
    if isinstance(lv, ir.BufLV):
        return ir.BufLV(lv.buf, tuple(subst_expr(i, env) for i in lv.indices))
    raise TypeError(f"cannot substitute into {lv!r}")


def subst_stmt(stmt: ir.NStmt, env: dict[str, ir.NExpr]) -> ir.NStmt:
    """Substitute variables inside one statement (returns a fresh tree).

    A loop that rebinds a substituted variable shadows it — the
    substitution stops at its body.
    """
    if isinstance(stmt, ir.NAssign):
        return ir.NAssign(subst_lvalue(stmt.target, env), subst_expr(stmt.value, env))
    if isinstance(stmt, ir.NAllocIs):
        return ir.NAllocIs(stmt.name, tuple(subst_expr(d, env) for d in stmt.shape))
    if isinstance(stmt, ir.NAllocBuf):
        return ir.NAllocBuf(stmt.name, tuple(subst_expr(d, env) for d in stmt.shape))
    if isinstance(stmt, ir.NFor):
        inner_env = {k: v for k, v in env.items() if k != stmt.var}
        return ir.NFor(
            stmt.var,
            subst_expr(stmt.lo, env),
            subst_expr(stmt.hi, env),
            subst_expr(stmt.step, env),
            subst_body(stmt.body, inner_env),
        )
    if isinstance(stmt, ir.NIf):
        return ir.NIf(
            subst_expr(stmt.cond, env),
            subst_body(stmt.then_body, env),
            subst_body(stmt.else_body, env),
        )
    if isinstance(stmt, ir.NSend):
        return ir.NSend(
            subst_expr(stmt.dst, env),
            stmt.channel,
            tuple(subst_expr(v, env) for v in stmt.values),
        )
    if isinstance(stmt, ir.NRecv):
        return ir.NRecv(
            subst_expr(stmt.src, env),
            stmt.channel,
            tuple(subst_lvalue(t, env) for t in stmt.targets),
        )
    if isinstance(stmt, ir.NSendVec):
        return ir.NSendVec(
            subst_expr(stmt.dst, env),
            stmt.channel,
            stmt.buf,
            subst_expr(stmt.lo, env),
            subst_expr(stmt.hi, env),
        )
    if isinstance(stmt, ir.NRecvVec):
        return ir.NRecvVec(
            subst_expr(stmt.src, env),
            stmt.channel,
            stmt.buf,
            subst_expr(stmt.lo, env),
            subst_expr(stmt.hi, env),
        )
    if isinstance(stmt, ir.NCoerce):
        return ir.NCoerce(
            stmt.target,
            subst_expr(stmt.value, env),
            subst_expr(stmt.owner, env),
            subst_expr(stmt.dest, env),
            stmt.channel,
        )
    if isinstance(stmt, ir.NBroadcast):
        return ir.NBroadcast(
            stmt.target,
            subst_expr(stmt.value, env),
            subst_expr(stmt.owner, env),
            stmt.channel,
        )
    if isinstance(stmt, ir.NCallProc):
        return ir.NCallProc(
            stmt.proc,
            tuple(
                a if isinstance(a, str) else subst_expr(a, env)
                for a in stmt.args
            ),
            result=stmt.result,
            array_result=stmt.array_result,
        )
    if isinstance(stmt, ir.NReturn):
        if stmt.value is None or isinstance(stmt.value, str):
            return ir.NReturn(stmt.value)
        return ir.NReturn(subst_expr(stmt.value, env))
    if isinstance(stmt, ir.NComment):
        return ir.NComment(stmt.text)
    raise TypeError(f"cannot substitute into {stmt!r}")


def subst_body(body: list[ir.NStmt], env: dict[str, ir.NExpr]) -> list[ir.NStmt]:
    if not env:
        return [subst_stmt(s, {}) for s in body]
    return [subst_stmt(s, env) for s in body]
