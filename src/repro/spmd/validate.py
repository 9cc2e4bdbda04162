"""Structural validation of SPMD programs.

Run after code generation and after every transformation pass; a
validation failure means a compiler bug, so the checks raise
:class:`IRError` eagerly rather than letting the interpreter fail deep in
a simulation.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.spmd import ir


def validate_program(program: ir.NodeProgram) -> None:
    if program.entry not in program.procs:
        raise IRError(
            f"entry procedure {program.entry!r} not defined in "
            f"{sorted(program.procs)}"
        )
    for name, proc in program.procs.items():
        if name != proc.name:
            raise IRError(f"procedure registered as {name!r} but named {proc.name!r}")
        _validate_proc(proc, program)


def _validate_proc(proc: ir.NodeProc, program: ir.NodeProgram) -> None:
    unknown_array_params = proc.array_params - set(proc.params)
    if unknown_array_params:
        raise IRError(
            f"{proc.name}: array_params not in params: {unknown_array_params}"
        )
    seen_params = set()
    for p in proc.params:
        if p in seen_params:
            raise IRError(f"{proc.name}: duplicate parameter {p!r}")
        seen_params.add(p)
    _validate_body(proc.body, proc, program, loop_vars=set())


def _validate_body(
    body: list[ir.NStmt],
    proc: ir.NodeProc,
    program: ir.NodeProgram,
    loop_vars: set[str],
) -> None:
    for stmt in body:
        _validate_stmt(stmt, proc, program, loop_vars)


def _validate_stmt(
    stmt: ir.NStmt,
    proc: ir.NodeProc,
    program: ir.NodeProgram,
    loop_vars: set[str],
) -> None:
    where = f"{proc.name}: "
    if isinstance(stmt, ir.NAssign):
        if isinstance(stmt.target, ir.VarLV) and stmt.target.name in loop_vars:
            raise IRError(where + f"assignment to loop variable {stmt.target.name!r}")
    elif isinstance(stmt, (ir.NAllocIs, ir.NAllocBuf)):
        if not stmt.shape:
            raise IRError(where + f"allocation of {stmt.name!r} with empty shape")
        if stmt.name in loop_vars:
            raise IRError(where + f"allocation shadows loop variable {stmt.name!r}")
    elif isinstance(stmt, ir.NFor):
        if not stmt.var:
            raise IRError(where + "loop with empty variable name")
        if stmt.var in loop_vars:
            raise IRError(
                where + f"loop variable {stmt.var!r} shadows an enclosing "
                "loop variable"
            )
        if isinstance(stmt.step, ir.NConst) and stmt.step.value <= 0:
            raise IRError(where + f"loop step {stmt.step.value} is not positive")
        _validate_body(stmt.body, proc, program, loop_vars | {stmt.var})
        return
    elif isinstance(stmt, ir.NIf):
        _validate_body(stmt.then_body, proc, program, loop_vars)
        _validate_body(stmt.else_body, proc, program, loop_vars)
        return
    elif isinstance(stmt, (ir.NSend, ir.NRecv, ir.NSendVec, ir.NRecvVec)):
        if not stmt.channel:
            raise IRError(where + "communication with empty channel name")
        if isinstance(stmt, ir.NSend) and not stmt.values:
            raise IRError(where + f"send on {stmt.channel!r} with no values")
        if isinstance(stmt, ir.NRecv) and not stmt.targets:
            raise IRError(where + f"recv on {stmt.channel!r} with no targets")
    elif isinstance(stmt, (ir.NCoerce, ir.NBroadcast)):
        if not stmt.channel:
            raise IRError(where + "coerce/broadcast with empty channel name")
        if not isinstance(stmt.target, (ir.VarLV, ir.IsLV, ir.BufLV)):
            raise IRError(
                where + f"coerce/broadcast target {stmt.target!r} is not "
                "an lvalue"
            )
        if isinstance(stmt.target, ir.VarLV) and stmt.target.name in loop_vars:
            raise IRError(
                where + "coerce/broadcast stores into loop variable "
                f"{stmt.target.name!r}"
            )
    elif isinstance(stmt, ir.NCallProc):
        callee = program.procs.get(stmt.proc)
        if callee is None:
            raise IRError(where + f"call to unknown procedure {stmt.proc!r}")
        if len(stmt.args) != len(callee.params):
            raise IRError(
                where + f"call to {stmt.proc} with {len(stmt.args)} args, "
                f"expected {len(callee.params)}"
            )
        if stmt.result is not None and stmt.array_result is not None:
            raise IRError(
                where + f"call to {stmt.proc} binds both a scalar and an "
                "array result"
            )
        if isinstance(stmt.result, ir.VarLV) and stmt.result.name in loop_vars:
            raise IRError(
                where + f"call to {stmt.proc} stores its result into loop "
                f"variable {stmt.result.name!r}"
            )
        for arg, pname in zip(stmt.args, callee.params):
            is_array_param = pname in callee.array_params
            if is_array_param and not isinstance(arg, str):
                raise IRError(
                    where + f"call to {stmt.proc}: parameter {pname!r} needs "
                    "an array name"
                )
            if not is_array_param and isinstance(arg, str):
                raise IRError(
                    where + f"call to {stmt.proc}: parameter {pname!r} is a "
                    "scalar but got an array"
                )
    elif isinstance(stmt, ir.NExchange):
        if not stmt.channel:
            raise IRError(where + "exchange with empty channel name")
        if not stmt.sched:
            raise IRError(where + "exchange with empty schedule name")
        resolves = [
            s for s in ir.walk_stmts(stmt.enum_body)
            if isinstance(s, ir.NResolve)
        ]
        if not resolves:
            raise IRError(
                where + f"exchange {stmt.sched!r} enumerates no indices"
            )
        for s in resolves:
            if s.sched != stmt.sched:
                raise IRError(
                    where + f"exchange {stmt.sched!r} contains a resolve "
                    f"for {s.sched!r}"
                )
        _validate_body(stmt.enum_body, proc, program, loop_vars)
        return
    elif isinstance(stmt, ir.NResolve):
        if not stmt.sched:
            raise IRError(where + "resolve with empty schedule name")
    elif isinstance(stmt, ir.NAccum):
        if not stmt.sched:
            raise IRError(where + "accum with empty schedule name")
    elif isinstance(stmt, ir.NScatterFlush):
        if not stmt.channel:
            raise IRError(where + "scatter flush with empty channel name")
        if not stmt.sched:
            raise IRError(where + "scatter flush with empty schedule name")
    elif isinstance(stmt, ir.NAccumLocal):
        if not stmt.indices:
            raise IRError(
                where + f"local accumulate into {stmt.array!r} with no indices"
            )
    elif isinstance(stmt, ir.NArrayAlias):
        if not stmt.name or not stmt.source:
            raise IRError(where + "array alias with empty name")
        if stmt.name in loop_vars or stmt.source in loop_vars:
            raise IRError(where + "array alias involves a loop variable")
    elif isinstance(stmt, (ir.NReturn, ir.NComment)):
        pass
    else:
        raise IRError(where + f"unknown statement {stmt!r}")
