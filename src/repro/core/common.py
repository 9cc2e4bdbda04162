"""Shared code-generation infrastructure.

Conversions between the three expression worlds:

* source AST expressions (:mod:`repro.lang.ast`),
* symbolic integer expressions (:mod:`repro.symbolic`) — used by the
  analysis and the mapping-equation solver,
* SPMD IR expressions (:mod:`repro.spmd.ir`) — what generated code runs,

plus interprocedural array-shape/distribution inference and the
:class:`CompiledProgram` container both resolution strategies produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distrib import DecompositionSpec, Distribution
from repro.errors import CompileError
from repro.lang import ast
from repro.lang.ast import Type
from repro.lang.builtins import is_builtin
from repro.lang.typecheck import CheckedProgram
from repro.symbolic import (
    Add,
    Const,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Var,
    sym,
)
from repro.spmd import ir

NPROCS_SYM = Var("S")
MYNODE_SYM = Var("p")


@dataclass(frozen=True)
class ArrayInfo:
    """What the compiler knows about one distributed array."""

    dist: Distribution
    shape: tuple[Expr, ...]  # global extents (exprs over params/consts)


@dataclass
class CompiledProgram:
    """A node program plus the metadata the harness needs to run it."""

    program: ir.NodeProgram
    checked: CheckedProgram
    spec: DecompositionSpec
    entry: str
    strategy: str
    array_info: dict[str, dict[str, ArrayInfo]]  # proc -> var -> info
    entry_array_params: list[str]
    entry_return_array: ArrayInfo | None
    param_names: list[str]
    # Inspector schedule sites (strategy="inspector" only), in site
    # order: dicts with keys ``sched`` (schedule name), ``kind``
    # ("gather" or "scatter"), ``array`` (the indirectly accessed
    # array), and ``index_arrays`` (arrays read inside the site's index
    # expression). The runner keys its schedule cache on the contents
    # of the ``index_arrays``.
    inspector_sites: list[dict] = field(default_factory=list)


class TempNamer:
    """Generates the tmp1, tmp2, ... names of the paper's listings."""

    def __init__(self, prefix: str = "tmp"):
        self.prefix = prefix
        self.counter = 0

    def fresh(self, hint: str = "") -> str:
        self.counter += 1
        return f"{self.prefix}{self.counter}"


# ---------------------------------------------------------------------------
# symbolic Expr -> IR expression
# ---------------------------------------------------------------------------


def sym_to_ir(e: Expr, binding: dict[str, ir.NExpr] | None = None) -> ir.NExpr:
    """Convert a symbolic expression to IR.

    ``binding`` substitutes named variables with IR expressions; the
    canonical names ``S`` and ``p`` default to ``NNProcs()``/``NMyNode()``.
    """
    binding = binding or {}

    def conv(node: Expr) -> ir.NExpr:
        if isinstance(node, Const):
            return ir.NConst(node.value)
        if isinstance(node, Var):
            if node.name in binding:
                return binding[node.name]
            if node.name == "S":
                return ir.NNProcs()
            if node.name == "p":
                return ir.NMyNode()
            return ir.NVar(node.name)
        if isinstance(node, Add):
            return _fold("+", [conv(a) for a in node.args], ir.NConst(0))
        if isinstance(node, Mul):
            return _fold("*", [conv(a) for a in node.args], ir.NConst(1))
        if isinstance(node, FloorDiv):
            return ir.NBin("div", conv(node.num), conv(node.den))
        if isinstance(node, Mod):
            return ir.NBin("mod", conv(node.num), conv(node.den))
        if isinstance(node, Min):
            return _fold_call("min", [conv(a) for a in node.args])
        if isinstance(node, Max):
            return _fold_call("max", [conv(a) for a in node.args])
        raise CompileError(f"cannot convert symbolic node {node!r} to IR")

    return conv(e)


def _fold(op: str, parts: list[ir.NExpr], empty: ir.NExpr) -> ir.NExpr:
    if not parts:
        return empty
    out = parts[0]
    for part in parts[1:]:
        out = ir.NBin(op, out, part)
    return out


def _fold_call(func: str, parts: list[ir.NExpr]) -> ir.NExpr:
    if len(parts) == 1:
        return parts[0]
    out = parts[0]
    for part in parts[1:]:
        out = ir.NCall(func, (out, part))
    return out


# ---------------------------------------------------------------------------
# source AST expression -> symbolic Expr (for mapping analysis)
# ---------------------------------------------------------------------------


def src_to_sym(e: ast.Expr, consts: dict[str, int | float]) -> Expr | None:
    """Source expression → symbolic expression, or None if not affine-ish.

    Used on array index expressions. Names stay symbolic (loop variables,
    params) unless they are known constants.
    """
    if isinstance(e, ast.IntLit):
        return sym(e.value)
    if isinstance(e, ast.Name):
        if e.id in consts:
            value = consts[e.id]
            return sym(value) if isinstance(value, int) else None
        return sym(e.id)
    if isinstance(e, ast.Unary) and e.op == "-":
        inner = src_to_sym(e.operand, consts)
        return None if inner is None else -inner
    if isinstance(e, ast.Binary) and e.op in ("+", "-", "*", "div", "mod"):
        left = src_to_sym(e.left, consts)
        right = src_to_sym(e.right, consts)
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
        return left % right
    return None


# ---------------------------------------------------------------------------
# source AST expression -> IR (for replicated computations)
# ---------------------------------------------------------------------------

_BIN_OPS = {"+", "-", "*", "/", "div", "mod", "==", "!=", "<", "<=", ">", ">=",
            "and", "or"}


def src_to_ir(
    e: ast.Expr,
    consts: dict[str, int | float],
    rename: dict[str, ir.NExpr] | None = None,
) -> ir.NExpr:
    """Convert a source expression to IR *verbatim*.

    Only valid for expressions whose every name is replicated (loop
    variables, params, consts) or renamed via ``rename`` (e.g. coerced
    operand temporaries). Array reads must have been rewritten away by
    the caller beforehand.
    """
    rename = rename or {}
    if isinstance(e, ast.IntLit):
        return ir.NConst(e.value)
    if isinstance(e, ast.RealLit):
        return ir.NConst(e.value)
    if isinstance(e, ast.BoolLit):
        return ir.NConst(e.value)
    if isinstance(e, ast.Name):
        if e.id in rename:
            return rename[e.id]
        if e.id in consts:
            return ir.NConst(consts[e.id])
        return ir.NVar(e.id)
    if isinstance(e, ast.Unary):
        return ir.NUn(e.op, src_to_ir(e.operand, consts, rename))
    if isinstance(e, ast.Binary):
        if e.op not in _BIN_OPS:
            raise CompileError(f"unknown operator {e.op!r}")
        return ir.NBin(
            e.op,
            src_to_ir(e.left, consts, rename),
            src_to_ir(e.right, consts, rename),
        )
    if isinstance(e, ast.CallExpr) and is_builtin(e.func):
        return ir.NCall(
            e.func, tuple(src_to_ir(a, consts, rename) for a in e.args)
        )
    raise CompileError(
        f"expression {type(e).__name__} cannot be translated directly "
        "(array reads and procedure calls are handled by the resolver)"
    )


# ---------------------------------------------------------------------------
# Interprocedural array shape / distribution inference
# ---------------------------------------------------------------------------


def infer_array_info(
    checked: CheckedProgram,
    spec: DecompositionSpec,
    entry: str,
    entry_shapes: dict[str, tuple] | None = None,
) -> dict[str, dict[str, ArrayInfo]]:
    """Compute per-procedure array metadata (distribution + global shape).

    * Arrays allocated with ``matrix``/``vector`` get their declared shape;
      their distribution comes from the spec (mandatory).
    * Entry array parameters need ``entry_shapes`` (values coerced via
      ``sym``); their distribution comes from the spec.
    * Other procedures' array parameters inherit distribution and shape
      from call sites; conflicting call sites are an error (procedures
      have one fixed mapping, §5.1).

    Shape expressions may reference only program params and constants —
    they must mean the same thing in every procedure.
    """
    entry_shapes = entry_shapes or {}
    info: dict[str, dict[str, ArrayInfo]] = {name: {} for name in checked.procs}

    entry_proc = checked.proc(entry)
    for param in entry_proc.params:
        if not param.type.is_array():
            continue
        if param.name not in entry_shapes:
            raise CompileError(
                f"entry array parameter {param.name!r} needs a shape; pass "
                "entry_shapes={'%s': ('N', 'N')} or similar" % param.name
            )
        shape = tuple(sym(s) for s in entry_shapes[param.name])
        dist = spec.distribution_of(param.name)
        info[entry][param.name] = ArrayInfo(dist=dist, shape=shape)

    # Iterate to a fixpoint: allocations first, then propagate through
    # call sites (programs are small; a few rounds suffice).
    for _ in range(len(checked.procs) + 2):
        changed = False
        for proc in checked.procs.values():
            changed |= _infer_in_proc(checked, spec, proc, info)
        if not changed:
            break
    return info


def _infer_in_proc(
    checked: CheckedProgram,
    spec: DecompositionSpec,
    proc: ast.ProcDecl,
    info: dict[str, dict[str, ArrayInfo]],
) -> bool:
    changed = False
    local = info[proc.name]

    for stmt in ast.walk_stmts(proc.body):
        if isinstance(stmt, ast.LetStmt) and isinstance(stmt.init, ast.AllocExpr):
            if stmt.name in local:
                continue
            shape = tuple(
                _shape_expr(d, checked, proc) for d in stmt.init.dims
            )
            dist = spec.distribution_of(stmt.name)
            local[stmt.name] = ArrayInfo(dist=dist, shape=shape)
            changed = True
        elif isinstance(stmt, ast.AssignStmt) and (
            isinstance(stmt.target, ast.Name)
            and isinstance(stmt.value, ast.Name)
        ):
            # Array-to-array rebinding (``x = xn;``): the alias shares the
            # source array's layout.
            src_info = local.get(stmt.value.id)
            if src_info is not None and stmt.target.id not in local:
                local[stmt.target.id] = src_info
                changed = True
        elif isinstance(stmt, ast.LetStmt) and isinstance(stmt.init, ast.CallExpr):
            callee = checked.procs.get(stmt.init.func)
            if callee is not None and callee.returns.is_array():
                returned = _returned_array_info(checked, callee, info)
                if returned is not None and stmt.name not in local:
                    local[stmt.name] = returned
                    changed = True
        calls: list[tuple[str, list[ast.Expr]]] = []
        if isinstance(stmt, ast.CallStmt):
            calls.append((stmt.func, stmt.args))
        for e in ast.stmt_exprs(stmt):
            if e is None:
                continue
            for sub in ast.walk_exprs(e):
                if isinstance(sub, ast.CallExpr) and sub.func in checked.procs:
                    calls.append((sub.func, sub.args))
        for func, args in calls:
            callee = checked.procs[func]
            for arg, param in zip(args, callee.params):
                if not param.type.is_array():
                    continue
                if not isinstance(arg, ast.Name):
                    raise CompileError(
                        f"array argument to {func} must be a variable name"
                    )
                arg_info = local.get(arg.id)
                if arg_info is None:
                    continue
                # Explicit map on the parameter must agree with the argument.
                if spec.has_distribution(param.name):
                    declared = spec.distribution_of(param.name)
                    if type(declared) is not type(arg_info.dist):
                        raise CompileError(
                            f"procedure {func}: parameter {param.name!r} is "
                            f"mapped {declared} but call passes "
                            f"{arg_info.dist}"
                        )
                existing = info[func].get(param.name)
                if existing is None:
                    info[func][param.name] = arg_info
                    changed = True
                elif (
                    type(existing.dist) is not type(arg_info.dist)
                    or existing.shape != arg_info.shape
                ):
                    raise CompileError(
                        f"procedure {func}: parameter {param.name!r} is "
                        "called with conflicting array layouts "
                        f"({existing} vs {arg_info}); procedures have one "
                        "fixed mapping (paper §5.1)"
                    )
    return changed


def _returned_array_info(
    checked: CheckedProgram,
    proc: ast.ProcDecl,
    info: dict[str, dict[str, ArrayInfo]],
):
    for stmt in ast.walk_stmts(proc.body):
        if isinstance(stmt, ast.ReturnStmt) and isinstance(stmt.value, ast.Name):
            found = info[proc.name].get(stmt.value.id)
            if found is not None:
                return found
    return None


def _shape_expr(
    e: ast.Expr, checked: CheckedProgram, proc: ast.ProcDecl
) -> Expr:
    converted = src_to_sym(e, checked.consts)
    if converted is None:
        raise CompileError(
            f"array extent in {proc.name} is not an integer expression over "
            "params and constants"
        )
    allowed = set(checked.params)
    bad = converted.free_vars() - allowed
    if bad:
        raise CompileError(
            f"array extent in {proc.name} references local variables "
            f"{sorted(bad)}; extents must be global (params/consts)"
        )
    return converted


def entry_return_array_info(
    checked: CheckedProgram,
    entry: str,
    info: dict[str, dict[str, ArrayInfo]],
) -> ArrayInfo | None:
    proc = checked.proc(entry)
    if not proc.returns.is_array():
        return None
    returned = _returned_array_info(checked, proc, info)
    if returned is None:
        raise CompileError(
            f"could not infer the layout of the array {entry} returns"
        )
    return returned


def is_replicated_name(
    name: str,
    spec: DecompositionSpec,
    checked: CheckedProgram,
    proc_types: dict[str, Type],
    loop_vars: set[str],
) -> bool:
    """Is this scalar available on every processor?"""
    if name in loop_vars or name in checked.consts or name in checked.params:
        return True
    type_ = proc_types.get(name)
    if type_ is not None and type_.is_array():
        return False
    return spec.placement_of(name).is_replicated()
