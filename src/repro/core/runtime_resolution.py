"""Run-time resolution (paper §3.1).

Produces one SPMD program that every processor executes. Three rules
drive generation:

1. the owner of a variable or array element computes its value;
2. the owner communicates the value to any processor that requires it;
3. every statement is examined by every processor to determine its role.

Rule 3 is what makes this strategy simple and slow: each assignment turns
into ``coerce`` operations for its mapped operands (the owner sends, the
evaluator receives, everyone else just evaluates the ownership tests) and
an owner-guarded compute+store — exactly the shape of Figure 4b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distrib import DecompositionSpec, OnProc
from repro.errors import CompileError
from repro.lang import ast
from repro.lang.builtins import is_builtin
from repro.lang.typecheck import CheckedProgram
from repro.core.common import (
    ArrayInfo,
    TempNamer,
    is_replicated_name,
    src_to_ir,
    sym_to_ir,
)
from repro.spmd import ir
from repro.spmd.ir import NBin, NConst, NMyNode, NVar, VarLV


@dataclass
class _Ctx:
    proc: ast.ProcDecl
    loop_vars: set[str] = field(default_factory=set)

    def inside_loop(self, var: str) -> "_Ctx":
        return _Ctx(proc=self.proc, loop_vars=self.loop_vars | {var})


class RuntimeResolver:
    """Generates the run-time-resolved NodeProgram."""

    def __init__(
        self,
        checked: CheckedProgram,
        spec: DecompositionSpec,
        array_info: dict[str, dict[str, ArrayInfo]],
    ):
        self.checked = checked
        self.spec = spec
        self.array_info = array_info
        self.temps = TempNamer()
        self.channels: dict[tuple[str, int], str] = {}

    def channel(self, prefix: str, uid: int) -> str:
        """The channel of one resolved node: numbered in first-use order
        (``co0``, ``x1``, ``bc2``, ...), not by the node's process-global
        ``uid``, so two parses of one source print the same program. A
        node resolved twice keeps its name."""
        key = (prefix, uid)
        name = self.channels.get(key)
        if name is None:
            name = self.channels[key] = f"{prefix}{len(self.channels)}"
        return name

    # -- entry points --------------------------------------------------------
    def generate(self, entry: str, name: str) -> ir.NodeProgram:
        procs = {
            p.name: self.gen_proc(p) for p in self.checked.procs.values()
        }
        return ir.NodeProgram(name=name, procs=procs, entry=entry)

    def gen_proc(self, proc: ast.ProcDecl) -> ir.NodeProc:
        ctx = _Ctx(proc=proc)
        body = self.gen_body(proc.body, ctx)
        array_params = {
            p.name for p in proc.params if p.type.is_array()
        }
        params = [p.name for p in proc.params] + list(proc.map_params)
        return ir.NodeProc(
            name=proc.name,
            params=params,
            array_params=array_params,
            body=body,
        )

    # -- statements ------------------------------------------------------------
    def gen_body(self, body: list[ast.Stmt], ctx: _Ctx) -> list[ir.NStmt]:
        out: list[ir.NStmt] = []
        for stmt in body:
            out.extend(self.gen_stmt(stmt, ctx))
        return out

    def gen_stmt(self, stmt: ast.Stmt, ctx: _Ctx) -> list[ir.NStmt]:
        if isinstance(stmt, ast.LetStmt):
            return self.gen_binding(stmt.name, stmt.init, ctx, stmt)
        if isinstance(stmt, ast.AssignStmt):
            if isinstance(stmt.target, ast.Name):
                return self.gen_binding(stmt.target.id, stmt.value, ctx, stmt)
            return self.gen_element_write(stmt.target, stmt.value, ctx, stmt)
        if isinstance(stmt, ast.ForStmt):
            lo = self.replicated_ir(stmt.lo, ctx)
            hi = self.replicated_ir(stmt.hi, ctx)
            step = (
                NConst(1)
                if stmt.step is None
                else self.replicated_ir(stmt.step, ctx)
            )
            inner = ctx.inside_loop(stmt.var)
            return [ir.NFor(stmt.var, lo, hi, step, self.gen_body(stmt.body, inner))]
        if isinstance(stmt, ast.IfStmt):
            pre, cond = self.resolve_expr(stmt.cond, "ALL", ctx)
            return pre + [
                ir.NIf(
                    cond,
                    self.gen_body(stmt.then_body, ctx),
                    self.gen_body(stmt.else_body, ctx),
                )
            ]
        if isinstance(stmt, ast.CallStmt):
            pre, _ = self.gen_call(stmt.func, stmt.args, ctx, want_result=False)
            return pre
        if isinstance(stmt, ast.ReturnStmt):
            if stmt.value is None:
                return [ir.NReturn(None)]
            if isinstance(stmt.value, ast.Name) and self.is_array(
                stmt.value.id, ctx
            ):
                return [ir.NReturn(stmt.value.id)]
            pre, value = self.resolve_expr(stmt.value, "ALL", ctx)
            return pre + [ir.NReturn(value)]
        if isinstance(stmt, ast.AccumStmt):
            raise CompileError(
                "accumulation ('+=') requires strategy='inspector'"
            )
        raise CompileError(f"cannot resolve statement {stmt!r}")

    # -- scalar and array bindings ---------------------------------------------
    def gen_binding(
        self, name: str, value: ast.Expr, ctx: _Ctx, stmt: ast.Stmt
    ) -> list[ir.NStmt]:
        if isinstance(value, ast.AllocExpr):
            return self.gen_alloc(name, value, ctx)
        placement = self.spec.placement_of(name) if not self.is_array(
            name, ctx
        ) else None
        if self.is_array(name, ctx):
            # Array-valued binding: must be a call returning an array.
            if not (
                isinstance(value, ast.CallExpr)
                and value.func in self.checked.procs
            ):
                raise CompileError(
                    f"array variable {name!r} must be bound to an allocation "
                    "or a procedure call"
                )
            pre, result = self.gen_call(
                value.func, value.args, ctx, want_result=True, array_result=name
            )
            return pre
        if isinstance(placement, OnProc):
            dest = sym_to_ir(placement.proc)
            pre, val = self.resolve_expr(value, dest, ctx)
            guard = NBin("==", NMyNode(), dest)
            return pre + [ir.NIf(guard, [ir.NAssign(VarLV(name), val)])]
        # Replicated: every processor computes it.
        pre, val = self.resolve_expr(value, "ALL", ctx)
        return pre + [ir.NAssign(VarLV(name), val)]

    def gen_alloc(
        self, name: str, alloc: ast.AllocExpr, ctx: _Ctx
    ) -> list[ir.NStmt]:
        info = self.array_info[ctx.proc.name].get(name)
        if info is None:
            raise CompileError(
                f"array {name!r} in {ctx.proc.name} has no layout info"
            )
        local_shape = info.dist.alloc_shape_expr(info.shape, _S_SYM)
        shape_ir = tuple(sym_to_ir(d) for d in local_shape)
        return [ir.NAllocIs(name, shape_ir)]

    def gen_element_write(
        self, target: ast.Index, value: ast.Expr, ctx: _Ctx, stmt: ast.Stmt
    ) -> list[ir.NStmt]:
        info = self.info(target.array, ctx)
        idx_ir = [self.replicated_ir(i, ctx) for i in target.indices]
        owner = self.owner_ir(info, idx_ir)
        ev_name = self.temps.fresh()
        out: list[ir.NStmt] = [ir.NAssign(VarLV(ev_name), owner)]
        ev = NVar(ev_name)
        pre, val = self.resolve_expr(value, ev, ctx)
        out.extend(pre)
        local = self.local_ir(info, idx_ir)
        guard = NBin("==", NMyNode(), ev)
        out.append(
            ir.NIf(guard, [ir.NAssign(ir.IsLV(target.array, local), val)])
        )
        return out

    # -- expressions --------------------------------------------------------------
    def resolve_expr(
        self, e: ast.Expr, dest, ctx: _Ctx
    ) -> tuple[list[ir.NStmt], ir.NExpr]:
        """Rewrite a source expression for evaluation at ``dest``.

        ``dest`` is an IR expression (the evaluator's rank) or the string
        "ALL". Mapped operands become coerce/broadcast into fresh
        temporaries; everything else translates directly.
        """
        pre: list[ir.NStmt] = []

        def walk(node: ast.Expr) -> ir.NExpr:
            if isinstance(node, (ast.IntLit, ast.RealLit, ast.BoolLit)):
                return src_to_ir(node, self.checked.consts)
            if isinstance(node, ast.Name):
                if self.is_array(node.id, ctx):
                    raise CompileError(
                        f"array {node.id!r} used as a scalar value"
                    )
                if self.is_replicated(node.id, ctx):
                    return src_to_ir(node, self.checked.consts)
                placement = self.spec.placement_of(node.id)
                assert isinstance(placement, OnProc)
                owner = sym_to_ir(placement.proc)
                return self.coerce(NVar(node.id), owner, dest, node.uid, pre)
            if isinstance(node, ast.Index):
                info = self.info(node.array, ctx)
                idx_ir = [self.replicated_ir(i, ctx) for i in node.indices]
                owner = self.owner_ir(info, idx_ir)
                local = self.local_ir(info, idx_ir)
                value = ir.NIsRead(node.array, local)
                return self.coerce(value, owner, dest, node.uid, pre)
            if isinstance(node, ast.Unary):
                return ir.NUn(node.op, walk(node.operand))
            if isinstance(node, ast.Binary):
                return ir.NBin(node.op, walk(node.left), walk(node.right))
            if isinstance(node, ast.CallExpr):
                if is_builtin(node.func):
                    return ir.NCall(node.func, tuple(walk(a) for a in node.args))
                stmts, result = self.gen_call(
                    node.func, node.args, ctx, want_result=True
                )
                pre.extend(stmts)
                return result
            if isinstance(node, ast.AllocExpr):
                raise CompileError(
                    "allocation only allowed as a let initializer"
                )
            raise CompileError(f"cannot resolve expression {node!r}")

        value = walk(e)
        return pre, value

    def coerce(
        self,
        value: ir.NExpr,
        owner: ir.NExpr,
        dest,
        uid: int,
        pre: list[ir.NStmt],
    ) -> ir.NExpr:
        temp = self.temps.fresh()
        if dest == "ALL":
            pre.append(
                ir.NBroadcast(
                    VarLV(temp), value, owner, channel=self.channel("bc", uid)
                )
            )
        else:
            pre.append(
                ir.NCoerce(
                    VarLV(temp), value, owner, dest,
                    channel=self.channel("co", uid),
                )
            )
        return NVar(temp)

    # -- calls ---------------------------------------------------------------------
    def gen_call(
        self,
        func: str,
        args: list[ast.Expr],
        ctx: _Ctx,
        want_result: bool,
        array_result: str | None = None,
    ) -> tuple[list[ir.NStmt], ir.NExpr]:
        callee = self.checked.proc(func)
        pre: list[ir.NStmt] = []
        ir_args: list[object] = []
        for arg, param in zip(args, callee.params):
            if param.type.is_array():
                if not isinstance(arg, ast.Name):
                    raise CompileError(
                        f"array argument to {func} must be a variable name"
                    )
                ir_args.append(arg.id)
                continue
            placement = self.spec.placement_of(param.name)
            if isinstance(placement, OnProc):
                # The parameter lives on one processor: marshal the value
                # there only. Other processors pass a dummy — the callee's
                # owner-computes guards never read it elsewhere.
                dest = sym_to_ir(placement.proc)
                stmts, value = self.resolve_expr(arg, dest, ctx)
                pre.extend(stmts)
                temp = self.temps.fresh()
                pre.append(ir.NAssign(VarLV(temp), NConst(0)))
                pre.append(
                    ir.NIf(
                        NBin("==", NMyNode(), dest),
                        [ir.NAssign(VarLV(temp), value)],
                    )
                )
                ir_args.append(NVar(temp))
            else:
                stmts, value = self.resolve_expr(arg, "ALL", ctx)
                pre.extend(stmts)
                ir_args.append(value)
        # Map parameters (§5.1) arrive as extra replicated scalars; call
        # sites bind them via polymorphism instantiation, not here.
        if callee.map_params:
            raise CompileError(
                f"{func} has mapping parameters; instantiate it with "
                "repro.core.polymorphism before compiling"
            )
        if array_result is not None:
            pre.append(
                ir.NCallProc(func, tuple(ir_args), array_result=array_result)
            )
            return pre, NConst(0)
        if want_result:
            temp = self.temps.fresh()
            pre.append(ir.NCallProc(func, tuple(ir_args), result=VarLV(temp)))
            return pre, NVar(temp)
        pre.append(ir.NCallProc(func, tuple(ir_args)))
        return pre, NConst(0)

    # -- helpers -----------------------------------------------------------------
    def info(self, array: str, ctx: _Ctx) -> ArrayInfo:
        found = self.array_info[ctx.proc.name].get(array)
        if found is None:
            raise CompileError(
                f"array {array!r} in {ctx.proc.name} has no layout info "
                "(is it distributed and given a shape?)"
            )
        return found

    def is_array(self, name: str, ctx: _Ctx) -> bool:
        type_ = self.checked.var_types.get(ctx.proc.name, {}).get(name)
        return bool(type_ is not None and type_.is_array())

    def is_replicated(self, name: str, ctx: _Ctx) -> bool:
        return is_replicated_name(
            name,
            self.spec,
            self.checked,
            self.checked.var_types.get(ctx.proc.name, {}),
            ctx.loop_vars,
        )

    def replicated_ir(self, e: ast.Expr, ctx: _Ctx) -> ir.NExpr:
        """Translate an expression that must be replicated (indices, bounds)."""
        for node in ast.walk_exprs(e):
            if isinstance(node, ast.Name) and not self.is_replicated(
                node.id, ctx
            ):
                raise CompileError(
                    f"expression uses non-replicated variable {node.id!r} "
                    "where a replicated value is required (index or bound)"
                )
            if isinstance(node, (ast.Index, ast.CallExpr, ast.AllocExpr)):
                raise CompileError(
                    "array reads and calls are not allowed in indices or "
                    "loop bounds"
                )
        return src_to_ir(e, self.checked.consts)

    def owner_ir(self, info: ArrayInfo, idx_ir: list[ir.NExpr]) -> ir.NExpr:
        template = info.dist.owner_expr(
            _index_syms(len(idx_ir)), _S_SYM, _shape_syms(len(info.shape))
        )
        return sym_to_ir(template, self._binding(idx_ir, info))

    def local_ir(
        self, info: ArrayInfo, idx_ir: list[ir.NExpr]
    ) -> tuple[ir.NExpr, ...]:
        templates = info.dist.local_expr(
            _index_syms(len(idx_ir)), _S_SYM, _shape_syms(len(info.shape))
        )
        binding = self._binding(idx_ir, info)
        return tuple(sym_to_ir(t, binding) for t in templates)

    def _binding(
        self, idx_ir: list[ir.NExpr], info: ArrayInfo
    ) -> dict[str, ir.NExpr]:
        binding: dict[str, ir.NExpr] = {}
        for k, idx in enumerate(idx_ir):
            binding[f"__i{k + 1}"] = idx
        for k, extent in enumerate(info.shape):
            binding[f"__n{k + 1}"] = sym_to_ir(extent)
        return binding


from repro.symbolic import Var as _SymVar  # noqa: E402

_S_SYM = _SymVar("S")


def _index_syms(rank: int):
    return tuple(_SymVar(f"__i{k + 1}") for k in range(rank))


def _shape_syms(rank: int):
    return tuple(_SymVar(f"__n{k + 1}") for k in range(rank))
