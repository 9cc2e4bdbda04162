"""Interpreter: run a NodeProgram on the machine simulator.

One generator per processor executes the program's entry procedure,
yielding :class:`Compute`/:class:`Send`/:class:`Recv` effects. Scalar
operation and memory-access costs accumulate between effects and are
flushed as a single ``Compute`` before each communication, keeping the
event count manageable while preserving exact virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NodeRuntimeError
from repro.inspector import executor as ixec
from repro.inspector.context import INSPECTOR_GLOBAL
from repro.lang.builtins import apply_builtin, is_builtin
from repro.machine import Compute, MachineParams, Recv, Send, SimResult, Simulator
from repro.machine.simulator import check_placement
from repro.runtime import IStructure, LocalArray
from repro.spmd import ir


@dataclass
class SPMDResult:
    """Result of an SPMD run: the simulation plus per-rank return values."""

    sim: SimResult
    returned: list[object]
    backend: str = "compiled"
    """The engine that actually produced the result — ``"compiled"`` when
    a ``backend="replay"`` request fell back (see ``fallback_reason``)."""
    fallback_reason: str | None = None
    """Why a requested replay run fell back to the compiled backend."""

    @property
    def makespan_us(self) -> float:
        return self.sim.makespan_us

    @property
    def total_messages(self) -> int:
        return self.sim.total_messages


class _Frame:
    __slots__ = ("scalars", "arrays")

    def __init__(self):
        self.scalars: dict[str, object] = {}
        self.arrays: dict[str, object] = {}  # IStructure | LocalArray


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _NodeMachine:
    """Executes a NodeProgram for one rank, yielding simulator effects."""

    def __init__(
        self,
        program: ir.NodeProgram,
        rank: int,
        nprocs: int,
        params: MachineParams,
        globals_: dict[str, object],
    ):
        self.program = program
        self.rank = rank
        self.nprocs = nprocs
        self.params = params
        self.globals = dict(globals_)
        self.pending_cost = 0.0
        self.depth = 0
        self.exchanges: dict[str, ixec.ExchangeState] = {}

    # -- cost plumbing -----------------------------------------------------
    def charge_op(self, count: int = 1) -> None:
        self.pending_cost += self.params.op_us * count

    def charge_mem(self, count: int = 1) -> None:
        self.pending_cost += self.params.mem_us * count

    def flush(self):
        if self.pending_cost > 0.0:
            cost, self.pending_cost = self.pending_cost, 0.0
            yield Compute(cost)

    # -- entry ---------------------------------------------------------------
    def run(self, args: list[object]):
        entry = self.program.entry_proc()
        result = yield from self.call(entry.name, args)
        yield from self.flush()
        return result

    def call(self, name: str, args: list[object]):
        proc = self.program.procs.get(name)
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
        frame = _Frame()
        for pname, arg in zip(proc.params, args):
            if pname in proc.array_params:
                frame.arrays[pname] = arg
            else:
                frame.scalars[pname] = arg
        try:
            yield from self.exec_body(proc.body, frame)
            result = None
        except _Return as ret:
            result = ret.value
        finally:
            self.depth -= 1
        return result

    # -- statements ------------------------------------------------------------
    def exec_body(self, body: list[ir.NStmt], frame: _Frame):
        for stmt in body:
            yield from self.exec_stmt(stmt, frame)

    def exec_stmt(self, stmt: ir.NStmt, frame: _Frame):
        if isinstance(stmt, ir.NAssign):
            self.store(stmt.target, self.eval(stmt.value, frame), frame)
        elif isinstance(stmt, ir.NAllocIs):
            shape = tuple(self.eval(d, frame) for d in stmt.shape)
            frame.arrays[stmt.name] = IStructure(
                shape, name=f"{stmt.name}@p{self.rank}"
            )
        elif isinstance(stmt, ir.NAllocBuf):
            shape = tuple(self.eval(d, frame) for d in stmt.shape)
            frame.arrays[stmt.name] = LocalArray(
                shape, name=f"{stmt.name}@p{self.rank}"
            )
        elif isinstance(stmt, ir.NFor):
            lo = self.eval(stmt.lo, frame)
            hi = self.eval(stmt.hi, frame)
            step = self.eval(stmt.step, frame)
            if step <= 0:
                raise NodeRuntimeError(
                    f"non-positive loop step {step}", self.rank
                )
            for v in range(lo, hi + 1, step):
                self.charge_op()  # increment + bound test
                frame.scalars[stmt.var] = v
                yield from self.exec_body(stmt.body, frame)
        elif isinstance(stmt, ir.NIf):
            cond = self.eval(stmt.cond, frame)
            if cond:
                yield from self.exec_body(stmt.then_body, frame)
            else:
                yield from self.exec_body(stmt.else_body, frame)
        elif isinstance(stmt, ir.NSend):
            payload = tuple(self.eval(v, frame) for v in stmt.values)
            dst = self.eval(stmt.dst, frame)
            yield from self.flush()
            yield Send(dst, stmt.channel, payload)
        elif isinstance(stmt, ir.NRecv):
            src = self.eval(stmt.src, frame)
            yield from self.flush()
            payload = yield Recv(src, stmt.channel)
            if len(payload) != len(stmt.targets):
                raise NodeRuntimeError(
                    f"channel {stmt.channel!r}: expected "
                    f"{len(stmt.targets)} scalars, got {len(payload)}",
                    self.rank,
                )
            for target, value in zip(stmt.targets, payload):
                self.store(target, value, frame)
        elif isinstance(stmt, ir.NSendVec):
            buf = self.buffer(stmt.buf, frame)
            lo = self.eval(stmt.lo, frame)
            hi = self.eval(stmt.hi, frame)
            dst = self.eval(stmt.dst, frame)
            self.charge_mem(max(0, hi - lo + 1))
            payload = tuple(buf.read(k) for k in range(lo, hi + 1))
            yield from self.flush()
            yield Send(dst, stmt.channel, payload)
        elif isinstance(stmt, ir.NRecvVec):
            src = self.eval(stmt.src, frame)
            buf = self.buffer(stmt.buf, frame)
            lo = self.eval(stmt.lo, frame)
            hi = self.eval(stmt.hi, frame)
            yield from self.flush()
            payload = yield Recv(src, stmt.channel)
            if len(payload) != hi - lo + 1:
                raise NodeRuntimeError(
                    f"channel {stmt.channel!r}: vector length mismatch "
                    f"(wanted {hi - lo + 1}, got {len(payload)})",
                    self.rank,
                )
            self.charge_mem(len(payload))
            for k, value in enumerate(payload):
                buf.write(lo + k, value)
        elif isinstance(stmt, ir.NCoerce):
            yield from self.exec_coerce(stmt, frame)
        elif isinstance(stmt, ir.NBroadcast):
            yield from self.exec_broadcast(stmt, frame)
        elif isinstance(stmt, ir.NCallProc):
            args = [
                self.array(a, frame) if isinstance(a, str) else self.eval(a, frame)
                for a in stmt.args
            ]
            result = yield from self.call(stmt.proc, args)
            if stmt.array_result is not None:
                frame.arrays[stmt.array_result] = result
            elif stmt.result is not None:
                self.store(stmt.result, result, frame)
        elif isinstance(stmt, ir.NReturn):
            if stmt.value is None:
                raise _Return(None)
            if isinstance(stmt.value, str):
                raise _Return(self.array(stmt.value, frame))
            raise _Return(self.eval(stmt.value, frame))
        elif isinstance(stmt, ir.NComment):
            pass
        elif isinstance(stmt, ir.NExchange):
            state = ixec.get_state(self.exchanges, stmt.sched)
            yield from ixec.exec_exchange(_InterpAdapter(self, frame), state, stmt)
        elif isinstance(stmt, ir.NResolve):
            gidx = self.eval(stmt.index, frame)
            ixec.resolve(self, ixec.get_state(self.exchanges, stmt.sched), gidx)
        elif isinstance(stmt, ir.NAccum):
            gidx = self.eval(stmt.index, frame)
            value = self.eval(stmt.value, frame)
            ixec.accum(self, ixec.get_state(self.exchanges, stmt.sched), gidx, value)
        elif isinstance(stmt, ir.NScatterFlush):
            state = ixec.get_state(self.exchanges, stmt.sched)
            yield from ixec.exec_scatter_flush(
                _InterpAdapter(self, frame), state, stmt
            )
        elif isinstance(stmt, ir.NAccumLocal):
            indices = tuple(self.eval(i, frame) for i in stmt.indices)
            value = self.eval(stmt.value, frame)
            ixec.accum_local(self, self.array(stmt.array, frame), indices, value)
        elif isinstance(stmt, ir.NArrayAlias):
            frame.arrays[stmt.name] = self.array(stmt.source, frame)
        else:
            raise NodeRuntimeError(f"unknown statement {stmt!r}", self.rank)

    def exec_coerce(self, stmt: ir.NCoerce, frame: _Frame):
        owner = self.eval(stmt.owner, frame)
        dest = self.eval(stmt.dest, frame)
        self.charge_op(2)  # the two membership tests every processor makes
        if owner == dest:
            if self.rank == dest:
                self.store(stmt.target, self.eval(stmt.value, frame), frame)
            return
        if self.rank == owner:
            value = self.eval(stmt.value, frame)
            yield from self.flush()
            yield Send(dest, stmt.channel, (value,))
        elif self.rank == dest:
            yield from self.flush()
            payload = yield Recv(owner, stmt.channel)
            self.store(stmt.target, payload[0], frame)

    def exec_broadcast(self, stmt: ir.NBroadcast, frame: _Frame):
        owner = self.eval(stmt.owner, frame)
        self.charge_op()
        if self.rank == owner:
            value = self.eval(stmt.value, frame)
            self.store(stmt.target, value, frame)
            yield from self.flush()
            for q in range(self.nprocs):
                if q != self.rank:
                    yield Send(q, stmt.channel, (value,))
        else:
            yield from self.flush()
            payload = yield Recv(owner, stmt.channel)
            self.store(stmt.target, payload[0], frame)

    # -- values -------------------------------------------------------------
    def array(self, name: str, frame: _Frame):
        found = frame.arrays.get(name)
        if found is None:
            found = self.globals.get(name)
        if found is None:
            raise NodeRuntimeError(f"unknown array {name!r}", self.rank)
        return found

    def buffer(self, name: str, frame: _Frame) -> LocalArray:
        found = self.array(name, frame)
        if not isinstance(found, LocalArray):
            raise NodeRuntimeError(f"{name!r} is not a buffer", self.rank)
        return found

    def store(self, target: ir.LValue, value, frame: _Frame) -> None:
        if isinstance(target, ir.VarLV):
            frame.scalars[target.name] = value
        elif isinstance(target, ir.IsLV):
            arr = self.array(target.array, frame)
            indices = [self.eval(i, frame) for i in target.indices]
            self.charge_mem()
            arr.write(*indices, value)
        elif isinstance(target, ir.BufLV):
            buf = self.buffer(target.buf, frame)
            indices = [self.eval(i, frame) for i in target.indices]
            self.charge_mem()
            buf.write(*indices, value)
        else:
            raise NodeRuntimeError(f"unknown lvalue {target!r}", self.rank)

    def eval(self, e: ir.NExpr, frame: _Frame):
        if isinstance(e, ir.NConst):
            return e.value
        if isinstance(e, ir.NVar):
            if e.name in frame.scalars:
                return frame.scalars[e.name]
            if e.name in self.globals:
                return self.globals[e.name]
            raise NodeRuntimeError(f"unbound variable {e.name!r}", self.rank)
        if isinstance(e, ir.NMyNode):
            return self.rank
        if isinstance(e, ir.NNProcs):
            return self.nprocs
        if isinstance(e, ir.NBin):
            left = self.eval(e.left, frame)
            if e.op == "and":
                self.charge_op()
                return bool(left) and bool(self.eval(e.right, frame))
            if e.op == "or":
                self.charge_op()
                return bool(left) or bool(self.eval(e.right, frame))
            right = self.eval(e.right, frame)
            self.charge_op()
            return _binop(e.op, left, right, self.rank)
        if isinstance(e, ir.NUn):
            value = self.eval(e.operand, frame)
            self.charge_op()
            return (not value) if e.op == "not" else -value
        if isinstance(e, ir.NCall):
            args = [self.eval(a, frame) for a in e.args]
            if not is_builtin(e.func):
                raise NodeRuntimeError(
                    f"unknown builtin {e.func!r} in expression", self.rank
                )
            self.charge_op()
            return apply_builtin(e.func, args)
        if isinstance(e, ir.NIsRead):
            arr = self.array(e.array, frame)
            indices = [self.eval(i, frame) for i in e.indices]
            self.charge_mem()
            return arr.read(*indices)
        if isinstance(e, ir.NBufRead):
            buf = self.buffer(e.buf, frame)
            indices = [self.eval(i, frame) for i in e.indices]
            self.charge_mem()
            return buf.read(*indices)
        if isinstance(e, ir.NIndirect):
            gidx = self.eval(e.index, frame)
            return ixec.indirect_read(self, self.exchanges.get(e.sched), e, gidx)
        raise NodeRuntimeError(f"unknown expression {e!r}", self.rank)


class _InterpAdapter:
    """Backend adapter handed to the shared inspector/executor code.

    Bundles the machine (rank, meters, flush) with the frame the
    exchange executes in so templates and the enumeration body see the
    right scalars and arrays.
    """

    __slots__ = ("machine", "frame", "rank", "nprocs")

    def __init__(self, machine: _NodeMachine, frame: _Frame):
        self.machine = machine
        self.frame = frame
        self.rank = machine.rank
        self.nprocs = machine.nprocs

    def charge_op(self, count: int = 1) -> None:
        self.machine.charge_op(count)

    def charge_mem(self, count: int = 1) -> None:
        self.machine.charge_mem(count)

    def flush(self):
        return self.machine.flush()

    def lookup(self, name: str):
        machine = self.machine
        if name in self.frame.scalars:
            return self.frame.scalars[name]
        if name in machine.globals:
            return machine.globals[name]
        raise NodeRuntimeError(f"unbound variable {name!r}", machine.rank)

    def get_array(self, name: str):
        return self.machine.array(name, self.frame)

    def run_enum(self, body):
        return self.machine.exec_body(list(body), self.frame)

    def preplan(self, sched: str):
        ctx = self.machine.globals.get(INSPECTOR_GLOBAL)
        if ctx is None:
            return None
        return ctx.preplan_for(sched, self.machine.rank)

    def record_built(self, sched: str, plan: dict) -> None:
        ctx = self.machine.globals.get(INSPECTOR_GLOBAL)
        if ctx is not None:
            ctx.record(sched, self.machine.rank, plan)


def _binop(op: str, left, right, rank: int):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "div":
        if right == 0:
            raise NodeRuntimeError("division by zero", rank)
        return left // right
    if op == "mod":
        if right == 0:
            raise NodeRuntimeError("modulo by zero", rank)
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
    raise NodeRuntimeError(f"unknown operator {op!r}", rank)


def run_spmd(
    program: ir.NodeProgram,
    nprocs: int,
    make_args,
    machine: MachineParams | None = None,
    globals_: dict[str, object] | None = None,
    trace: bool = False,
    max_steps: int = 50_000_000,
    placement: list[int] | None = None,
    backend: str = "compiled",
    extract_args=None,
) -> SPMDResult:
    """Execute ``program`` on ``nprocs`` simulated processes.

    ``make_args(rank)`` supplies the entry procedure's arguments for each
    rank (scalars by value, arrays as this rank's local part).
    ``globals_`` binds free names such as problem parameters — available
    identically on every processor (the ALL mapping). ``placement``
    optionally maps the program's processes onto fewer physical
    processors (§5.3/5.4); the program still sees ``S = nprocs``.

    ``backend`` selects the execution engine: ``"compiled"`` (default)
    runs one generated function per node procedure, compiled once per
    program by :mod:`repro.spmd.compile` (every rank starts the same
    code with its own ``rank``), without a clock: the ranks record their
    compute bursts and messages as rows, which
    :func:`repro.machine.rows.run_rows` clocks — or, for a trace or a
    non-identity ``placement``, the live
    :class:`~repro.machine.Simulator` replays. ``"interp"`` is the
    tree-walking reference interpreter on the live simulator, kept as
    the differential oracle; ``"replay"``
    extracts each rank's static event skeleton once and replays clocks
    over columnar arrays (:mod:`repro.replay`) — timing-identical to
    ``"compiled"`` but with ``returned`` all ``None`` (no array values
    are computed). A replay request the extractor must abstain on — or
    that asks for features replay does not model (tracing, non-identity
    placement, a custom step budget) — silently falls back to the
    compiled backend; check ``SPMDResult.backend``/``fallback_reason``.

    A ``placement`` that does not map every process to a processor
    numbered from 0 raises :class:`~repro.errors.SimulationError` on
    every backend.

    ``extract_args`` optionally supplies a cheaper ``make_args`` for the
    replay extractor only — array arguments may be any placeholder (the
    extractor discards their values); the real ``make_args`` is still
    used when the run falls back. Ignored by the other backends.
    """
    machine = machine or MachineParams.ipsc2()
    check_placement(placement, nprocs)

    if backend == "replay":
        fallback_reason = _replay_unsupported(trace, placement, max_steps)
        if fallback_reason is None:
            from repro import perf
            from repro.replay import ReplayAbstention, extract_skeletons, replay

            try:
                skeleton = extract_skeletons(
                    program, nprocs, extract_args or make_args, globals_ or {}
                )
            except ReplayAbstention as abstained:
                fallback_reason = str(abstained)
            else:
                info: dict = {}
                with perf.phase("replay"):
                    sim = replay(skeleton, machine, info=info)
                result = SPMDResult(
                    sim=sim, returned=sim.returned, backend="replay"
                )
                if info.get("engine") == "scalar":
                    # Still the replay backend, but the per-event oracle
                    # walk ran instead of the vectorized engine; record
                    # why (e.g. REPRO_REPLAY_SCALAR=1).
                    result.fallback_reason = (
                        f"scalar clock walk ({info.get('reason')})"
                    )
                return result
        from repro import perf

        perf.incr("replay.fallback")
        result = run_spmd(
            program, nprocs, make_args, machine=machine, globals_=globals_,
            trace=trace, max_steps=max_steps, placement=placement,
            backend="compiled",
        )
        result.fallback_reason = fallback_reason
        return result

    if backend == "compiled":
        from repro.spmd.compile import run_compiled

        sim = run_compiled(
            program, nprocs, make_args, machine, globals_ or {}, trace,
            max_steps, placement,
        )
        return SPMDResult(sim=sim, returned=sim.returned, backend=backend)
    if backend != "interp":
        raise ValueError(
            f"unknown backend {backend!r} "
            "(expected 'compiled', 'interp', or 'replay')"
        )

    def factory(rank: int):
        # ``program`` may be a per-rank factory (specialized programs).
        node_program = program(rank) if callable(program) else program
        node = _NodeMachine(node_program, rank, nprocs, machine, globals_ or {})
        return node.run(list(make_args(rank)))

    sim = Simulator(
        nprocs, machine, trace=trace, max_steps=max_steps
    ).run(factory, placement=placement)
    return SPMDResult(sim=sim, returned=sim.returned, backend=backend)


def _replay_unsupported(
    trace: bool, placement: list[int] | None, max_steps: int
) -> str | None:
    """Reason replay cannot honour these run options, or None if it can.

    Replay models the base machine only: identity placement (one process
    per processor — §5.3/5.4 packing changes clock semantics), no event
    tracing, and no step budget (replay executes one pass per event, so
    a runaway-program guard is meaningless and a *custom* budget implies
    the caller wants the live engine's accounting).
    """
    if trace:
        return "trace requested"
    if placement is not None and placement != list(range(len(placement))):
        return "non-identity placement"
    if max_steps != 50_000_000:
        return "custom max_steps"
    return None
