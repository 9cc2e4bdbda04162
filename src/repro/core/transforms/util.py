"""Shared helpers for the optimization passes.

The passes reason about loop headers and index expressions *semantically*
(two bounds like ``N - 1`` and ``N + -1`` must compare equal), so IR
expressions are lifted back into the symbolic world and compared after
simplification.
"""

from __future__ import annotations

from repro.spmd import ir
from repro.symbolic import Const, Expr, Max, Min, Var, simplify, sym


def ir_to_sym(e: ir.NExpr) -> Expr | None:
    """Lift an IR expression into the symbolic algebra (None if impossible)."""
    if isinstance(e, ir.NConst):
        if isinstance(e.value, bool) or not isinstance(e.value, int):
            return None
        return Const(e.value)
    if isinstance(e, ir.NVar):
        return Var(e.name)
    if isinstance(e, ir.NMyNode):
        return Var("p")
    if isinstance(e, ir.NNProcs):
        return Var("S")
    if isinstance(e, ir.NBin):
        left = ir_to_sym(e.left)
        right = ir_to_sym(e.right)
        if left is None or right is None:
            return None
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "div":
            return left // right
        if e.op == "mod":
            return left % right
        return None
    if isinstance(e, ir.NUn) and e.op == "-":
        inner = ir_to_sym(e.operand)
        return None if inner is None else -inner
    if isinstance(e, ir.NCall) and e.func in ("min", "max"):
        parts = [ir_to_sym(a) for a in e.args]
        if any(part is None for part in parts):
            return None
        cls = Min if e.func == "min" else Max
        return cls(tuple(parts))  # type: ignore[arg-type]
    return None


def sym_equal(a: ir.NExpr, b: ir.NExpr) -> bool:
    """Semantic equality of two IR expressions (via symbolic normal form)."""
    sa = ir_to_sym(a)
    sb = ir_to_sym(b)
    if sa is None or sb is None:
        return False
    return simplify(sa - sb) == Const(0)


def headers_equal(a: ir.NFor, b: ir.NFor) -> bool:
    return (
        a.var == b.var
        and sym_equal(a.lo, b.lo)
        and sym_equal(a.hi, b.hi)
        and sym_equal(a.step, b.step)
    )


def uses_var(e: ir.NExpr, name: str) -> bool:
    return any(
        isinstance(node, ir.NVar) and node.name == name
        for node in ir.walk_exprs(e)
    )


def guard_of(stmt: ir.NStmt) -> tuple[ir.NExpr | None, list[ir.NStmt]]:
    """Decompose ``if (g) { body }`` (no else) into (g, body)."""
    if isinstance(stmt, ir.NIf) and not stmt.else_body:
        return stmt.cond, stmt.then_body
    return None, [stmt]


def reguard(cond: ir.NExpr | None, body: list[ir.NStmt]) -> list[ir.NStmt]:
    if cond is None:
        return body
    if not body:
        return []
    return [ir.NIf(cond, body)]


def or_conds(a: ir.NExpr | None, b: ir.NExpr | None) -> ir.NExpr | None:
    if a is None or b is None:
        return None  # one side unguarded -> disjunction is always true
    return ir.NBin("or", a, b)


def writes_of(body: list[ir.NStmt]):
    """(arrays-written, buffers-written, scalars-written) in a body."""
    arrays: list[tuple[str, tuple[ir.NExpr, ...]]] = []
    buffers: list[tuple[str, tuple[ir.NExpr, ...]]] = []
    scalars: set[str] = set()

    def visit_lv(lv: ir.LValue):
        if isinstance(lv, ir.IsLV):
            arrays.append((lv.array, lv.indices))
        elif isinstance(lv, ir.BufLV):
            buffers.append((lv.buf, lv.indices))
        else:
            scalars.add(lv.name)

    for stmt in ir.walk_stmts(body):
        if isinstance(stmt, ir.NAssign):
            visit_lv(stmt.target)
        elif isinstance(stmt, (ir.NRecv,)):
            for t in stmt.targets:
                visit_lv(t)
        elif isinstance(stmt, ir.NRecvVec):
            buffers.append((stmt.buf, ()))
        elif isinstance(stmt, (ir.NCoerce, ir.NBroadcast)):
            scalars.add(stmt.target.name)
        elif isinstance(stmt, ir.NCallProc):
            # Conservatively: a call may write any array it is passed.
            for arg in stmt.args:
                if isinstance(arg, str):
                    arrays.append((arg, ()))
    return arrays, buffers, scalars


def reads_of(body: list[ir.NStmt]):
    """(array-reads, buffer-reads) appearing in a body."""
    arrays: list[tuple[str, tuple[ir.NExpr, ...]]] = []
    buffers: list[tuple[str, tuple[ir.NExpr, ...]]] = []

    def visit_expr(e: ir.NExpr):
        for node in ir.walk_exprs(e):
            if isinstance(node, ir.NIsRead):
                arrays.append((node.array, node.indices))
            elif isinstance(node, ir.NBufRead):
                buffers.append((node.buf, node.indices))

    for stmt in ir.walk_stmts(body):
        if isinstance(stmt, ir.NAssign):
            visit_expr(stmt.value)
            if isinstance(stmt.target, (ir.IsLV, ir.BufLV)):
                for idx in stmt.target.indices:
                    visit_expr(idx)
        elif isinstance(stmt, ir.NFor):
            visit_expr(stmt.lo)
            visit_expr(stmt.hi)
            visit_expr(stmt.step)
        elif isinstance(stmt, ir.NIf):
            visit_expr(stmt.cond)
        elif isinstance(stmt, ir.NSend):
            visit_expr(stmt.dst)
            for v in stmt.values:
                visit_expr(v)
        elif isinstance(stmt, ir.NRecv):
            visit_expr(stmt.src)
        elif isinstance(stmt, ir.NSendVec):
            visit_expr(stmt.dst)
            buffers.append((stmt.buf, ()))
        elif isinstance(stmt, ir.NRecvVec):
            visit_expr(stmt.src)
        elif isinstance(stmt, (ir.NCoerce, ir.NBroadcast)):
            visit_expr(stmt.value)
        elif isinstance(stmt, ir.NCallProc):
            for arg in stmt.args:
                if isinstance(arg, str):
                    arrays.append((arg, ()))
                else:
                    visit_expr(arg)
        elif isinstance(stmt, ir.NReturn) and isinstance(stmt.value, ir.NExpr):
            visit_expr(stmt.value)
    return arrays, buffers


def indices_equal(a: tuple[ir.NExpr, ...], b: tuple[ir.NExpr, ...]) -> bool:
    return len(a) == len(b) and all(sym_equal(x, y) for x, y in zip(a, b))


def map_proc_bodies(program: ir.NodeProgram, fn) -> ir.NodeProgram:
    """Apply ``fn(body) -> body`` to every procedure body.

    A new program — or ``program`` itself when no body changed (IR
    statements compare by value), so a pass that rewrites nothing keeps
    the object every identity-keyed table already knows."""
    procs = {}
    for name, proc in program.procs.items():
        procs[name] = ir.NodeProc(
            name=proc.name,
            params=list(proc.params),
            array_params=set(proc.array_params),
            body=fn(proc.body),
        )
    if all(procs[name].body == proc.body
           for name, proc in program.procs.items()):
        return program
    return ir.NodeProgram(name=program.name, procs=procs, entry=program.entry)
