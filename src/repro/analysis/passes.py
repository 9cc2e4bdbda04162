"""The verifier's four analysis passes.

Each pass consumes the shared :class:`~repro.analysis.verify.
VerifyContext` — per-rank communication rows with origins, the per-rank
walkers (footprint trackers), and the compiled program — and appends
:class:`~repro.analysis.diagnostics.Diagnostic` findings to the report.

Soundness arguments live in ``docs/INTERNALS.md`` §12. In brief: the
abstract walk reconstructs each rank's *exact* communication skeleton
(generated control flow is index arithmetic, never array data), so the
channel-balance counts and the deadlock verdict (the reference
scheduler's cursors) are exact, not approximations — the passes below
only fire when the simulator would observably misbehave, which is what
the differential test matrix pins down. Passes that need every rank's
skeleton (balance, deadlock) stay silent when any rank's walk aborted;
the driver reports the abort itself as ``UNV001``/``UNV002``.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.diagnostics import Severity, register_pass
from repro.machine import MachineParams
from repro.machine.rows import KIND_SEND, run_rows
from repro.spmd import ir
from repro.spmd.pretty import pretty_expr
from repro.symbolic import Const, Expr, Max, Min, Var
from repro.symbolic.simplify import Facts, prove_le, prove_lt
from repro.symbolic.solve import solve_membership
from repro.symbolic.ranges import StridedRange


def _origin_str(origin: tuple[str, ...]) -> str:
    return " > ".join(origin) if origin else "<entry>"


# ---------------------------------------------------------------------------
# Pass 1: channel balance
# ---------------------------------------------------------------------------


@register_pass("channel-balance")
def channel_balance(ctx, report) -> None:
    """Per (src, dst, channel): sends and receives must pair off exactly.

    The excess events are the FIFO-unmatched *tail* of the longer side,
    so the cited origins are exactly the loops/guards that produced the
    messages the simulator would leave undelivered (CB001) or the
    receives it would block on forever (CB002)."""
    if ctx.aborted:
        return
    sends: dict[tuple, list] = defaultdict(list)
    recvs: dict[tuple, list] = defaultdict(list)
    for p in range(ctx.nprocs):
        for ev, origin in zip(ctx.events[p], ctx.origins[p]):
            if ev[0] == KIND_SEND:
                sends[p, ev[1], ev[2]].append(origin)
            else:
                recvs[ev[1], p, ev[2]].append(origin)
    for key in sorted(set(sends) | set(recvs)):
        src, dst, channel = key
        ns, nr = len(sends[key]), len(recvs[key])
        if ns > nr:
            excess = sends[key][nr:]
            report.add(
                "CB001", Severity.ERROR, "channel-balance",
                f"channel {channel!r} {src}->{dst}: {ns} send(s) but only "
                f"{nr} receive(s); {ns - nr} message(s) undelivered",
                rank=src, path=excess[0],
                channel=channel, src=src, dst=dst, sends=ns, recvs=nr,
                chain=[
                    f"unmatched send from {_origin_str(o)}"
                    for o in _dedup(excess)
                ],
            )
        elif nr > ns:
            excess = recvs[key][ns:]
            report.add(
                "CB002", Severity.ERROR, "channel-balance",
                f"channel {channel!r} {src}->{dst}: {nr} receive(s) but "
                f"only {ns} send(s); rank {dst} would block forever",
                rank=dst, path=excess[0],
                channel=channel, src=src, dst=dst, sends=ns, recvs=nr,
                chain=[
                    f"unmatched recv at {_origin_str(o)}"
                    for o in _dedup(excess)
                ],
            )


def _dedup(origins, limit: int = 8) -> list:
    seen: list = []
    for origin in origins:
        if origin not in seen:
            seen.append(origin)
            if len(seen) >= limit:
                break
    return seen


# ---------------------------------------------------------------------------
# Pass 2: static deadlock detection
# ---------------------------------------------------------------------------


@register_pass("deadlock")
def deadlock(ctx, report) -> None:
    """Run the reference scheduler over the rows and explain every
    stuck rank.

    Whether a rank gets stuck is independent of timing — only of event
    order and message counts — so the scheduler's cursors are exactly
    the simulator's final progress state under any machine parameters
    (the clocks are discarded). Each stuck rank waits on one channel,
    giving a functional wait-for graph: every stuck component either
    ends in a cycle (DL001, the jacobi loop-jamming shape) or chains to
    a rank that finished without sending (DL002)."""
    if ctx.aborted:
        return
    run = run_rows(ctx.events, ctx.nprocs, MachineParams.ipsc2())
    if not run.stuck:
        return
    waits: dict[int, tuple[int, str, tuple]] = {}  # p -> (src, ch, origin)
    for p in run.stuck:
        i = run.cursor[p]
        _, src, channel = ctx.events[p][i][:3]
        waits[p] = (src, channel, ctx.origins[p][i])

    def link(p: int) -> str:
        src, channel, origin = waits[p]
        return (f"rank {p} waits for rank {src} on channel {channel!r} "
                f"at {_origin_str(origin)}")

    reported: set[int] = set()
    for p in sorted(waits):
        if p in reported:
            continue
        # Follow the (functional) wait-for chain out of p.
        chain = []
        seen_at: dict[int, int] = {}
        q = p
        while q in waits and q not in seen_at:
            seen_at[q] = len(chain)
            chain.append(q)
            q = waits[q][0]
        if q in seen_at:  # chain enters a cycle
            cycle = chain[seen_at[q]:]
            if any(r in reported for r in cycle):
                reported.update(chain)
                continue
            reported.update(chain)
            report.add(
                "DL001", Severity.ERROR, "deadlock",
                f"cyclic wait between ranks {sorted(cycle)}: each blocks "
                "on a receive only another blocked rank could satisfy",
                rank=min(cycle), path=waits[min(cycle)][2],
                cycle=sorted(cycle),
                blocked_behind=sorted(set(chain) - set(cycle)),
                chain=[link(r) for r in chain],
            )
        else:  # chain ends at a rank that finished
            reported.update(chain)
            tail = chain[-1]
            src, channel, origin = waits[tail]
            report.add(
                "DL002", Severity.ERROR, "deadlock",
                f"rank {tail} waits on channel {channel!r} from rank "
                f"{src}, which finishes without sending it",
                rank=tail, path=origin,
                src=src, channel=channel,
                blocked_behind=sorted(set(chain) - {tail}),
                chain=[link(r) for r in chain],
            )


# ---------------------------------------------------------------------------
# Pass 3: I-structure single-assignment (reads side)
# ---------------------------------------------------------------------------


@register_pass("single-assignment")
def single_assignment(ctx, report) -> None:
    """Flag reads of elements nothing ever writes (IS002).

    Write/write conflicts (IS001/IS003) were already reported during the
    walk, where the conflicting origins are at hand. Reads are judged
    here, against each array's *complete* write footprint — I-structure
    elements are written at most once, so coverage is order-free.
    Locality makes the per-rank check global: a local I-structure's
    storage is only ever written by its own rank (remote values arrive
    as messages and are stored locally), so "no rank ever writes it"
    reduces to per-rank footprint coverage."""
    for p, walker in enumerate(ctx.walkers):
        if walker is None or not walker.completed:
            continue
        for tracker in walker.trackers:
            if tracker.inexact:
                continue
            for coords, origin in tracker.uncovered_reads():
                element = ", ".join(map(str, coords))
                report.add(
                    "IS002", Severity.ERROR, "single-assignment",
                    f"{tracker.name}[{element}] is read but no rank ever "
                    "writes it",
                    rank=p, path=origin,
                    array=tracker.name, element=coords,
                )


# ---------------------------------------------------------------------------
# Pass 4: guard coverage (static, symbolic)
# ---------------------------------------------------------------------------
#
# The walk already reports the *dynamic* half of guard coverage: under
# each concrete rank assignment, every executed send/recv partner is
# range-checked (GC001) and self-checked (GC002). The static half below
# proves the universal statement — a communication site whose partner is
# invalid for EVERY rank (GC003) — with the symbolic engine: ``__p``
# ranges over ``0..S-1`` in Facts, owner-guard conditions on ``__p`` and
# loop variables refine the bounds, and a partner expression is
# condemned only when ``prove_le`` shows it out of range (or equal to
# ``__p``) under all admitted valuations. Sites under guards the scanner
# cannot model are skipped — incompleteness, never a false alarm.


@register_pass("guard-coverage")
def guard_coverage(ctx, report) -> None:
    nprocs = ctx.nprocs
    if nprocs < 2:
        return  # degenerate ring: the dynamic checks already cover it
    scanner = _GuardScanner(ctx, report, nprocs)
    for name in _reachable_procs(ctx.program):
        proc = ctx.program.procs[name]
        base = Facts().with_bound("__p", Const(0), Const(nprocs - 1))
        env = dict(scanner.const_env)
        scanner.scan(proc.body, base, env, {}, [f"proc {name}"])


def _reachable_procs(program: ir.NodeProgram) -> list[str]:
    entry = program.entry_proc().name
    seen = [entry]
    frontier = [entry]
    while frontier:
        proc = program.procs[frontier.pop()]
        for stmt in ir.walk_stmts(proc.body):
            if isinstance(stmt, ir.NCallProc) and stmt.proc in program.procs \
                    and stmt.proc not in seen:
                seen.append(stmt.proc)
                frontier.append(stmt.proc)
    return seen


_P = Var("__p")


class _GuardScanner:
    """Symbolic reachability scan condemning always-invalid partners."""

    def __init__(self, ctx, report, nprocs: int):
        self.report = report
        self.nprocs = nprocs
        # Concrete scalar globals (params, consts, tuner knobs) become
        # symbolic constants; everything else stays opaque.
        self.const_env = {
            name: Const(value)
            for name, value in ctx.globals.items()
            if isinstance(value, int) and not isinstance(value, bool)
        }
        self._flagged: set[int] = set()

    # -- NExpr -> symbolic Expr -------------------------------------------
    def to_expr(self, e: ir.NExpr, env: dict[str, Expr]) -> Expr | None:
        if isinstance(e, ir.NConst):
            return Const(e.value) if isinstance(e.value, int) \
                and not isinstance(e.value, bool) else None
        if isinstance(e, ir.NVar):
            return env.get(e.name)
        if isinstance(e, ir.NMyNode):
            return _P
        if isinstance(e, ir.NNProcs):
            return Const(self.nprocs)
        if isinstance(e, ir.NUn) and e.op == "-":
            sub = self.to_expr(e.operand, env)
            return None if sub is None else -sub
        if isinstance(e, ir.NBin):
            left = self.to_expr(e.left, env)
            right = self.to_expr(e.right, env)
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

    # -- guard conditions -> refined Facts --------------------------------
    def refine(self, cond: ir.NExpr, env, facts: Facts, branch: bool):
        """Facts for one branch of ``if cond``, or None when the guard
        is outside the modelled fragment (that branch is then skipped)."""
        if isinstance(cond, ir.NBin) and cond.op == "and":
            left = self.refine(cond.left, env, facts, branch)
            if branch:
                return None if left is None \
                    else self.refine(cond.right, env, left, True)
            return None  # not (a and b) is a disjunction: out of scope
        if not isinstance(cond, ir.NBin) or cond.op not in (
            "<", "<=", ">", ">=", "==", "!=",
        ):
            return None
        lhs = self.to_expr(cond.left, env)
        rhs = self.to_expr(cond.right, env)
        if lhs is None or rhs is None:
            return None
        op = cond.op if branch else _NEGATE[cond.op]
        # Bounds attach to a bare variable on either side.
        if isinstance(lhs, Var):
            return _bound(facts, lhs.name, op, rhs)
        if isinstance(rhs, Var):
            return _bound(facts, rhs.name, _FLIP[op], lhs)
        return facts if op == "!=" else None

    # -- traversal ---------------------------------------------------------
    def scan(self, body, facts: Facts, env, loops, path) -> None:
        for stmt in body:
            if isinstance(stmt, ir.NFor):
                lo = self.to_expr(stmt.lo, env)
                hi = self.to_expr(stmt.hi, env)
                step = self.to_expr(stmt.step, env)
                inner_env = dict(env)
                inner_loops = dict(loops)
                inner = facts
                if lo is not None and hi is not None \
                        and step == Const(1):
                    inner_env[stmt.var] = Var(stmt.var)
                    inner_loops[stmt.var] = (lo, hi)
                    inner = facts.with_bound(stmt.var, lo, hi)
                else:
                    inner_env.pop(stmt.var, None)
                    inner_loops.pop(stmt.var, None)
                self.scan(
                    stmt.body, inner, inner_env, inner_loops,
                    path + [f"for {stmt.var}"],
                )
            elif isinstance(stmt, ir.NIf):
                for branch, sub in (
                    (True, stmt.then_body), (False, stmt.else_body),
                ):
                    if not sub:
                        continue
                    refined = self.refine(stmt.cond, env, facts, branch)
                    if refined is not None:
                        label = f"if {pretty_expr(stmt.cond)}" if branch \
                            else f"else of if {pretty_expr(stmt.cond)}"
                        self.scan(
                            sub, refined, env, loops, path + [label]
                        )
            elif isinstance(stmt, ir.NAssign):
                # A rebound scalar leaves the modelled fragment.
                if isinstance(stmt.target, ir.VarLV):
                    env.pop(stmt.target.name, None)
                    loops.pop(stmt.target.name, None)
            elif isinstance(stmt, (ir.NSend, ir.NSendVec)):
                self.check(stmt, stmt.dst, "send", facts, env, loops, path)
            elif isinstance(stmt, (ir.NRecv, ir.NRecvVec)):
                self.check(stmt, stmt.src, "recv", facts, env, loops, path)

    def check(self, stmt, partner: ir.NExpr, kind, facts, env, loops, path):
        if id(stmt) in self._flagged:
            return
        d = self.to_expr(partner, env)
        if d is None:
            return
        text = pretty_expr(partner)
        if prove_le(d, Const(-1), facts) \
                or prove_le(Const(self.nprocs), d, facts):
            self._flagged.add(id(stmt))
            self.report.add(
                "GC003", Severity.ERROR, "guard-coverage",
                f"{kind} partner {text} is outside 0..{self.nprocs - 1} "
                "for every rank admitted by the guards",
                path=tuple(path), partner=text, kind=kind,
            )
            return
        if prove_le(d, _P, facts) and prove_le(_P, d, facts):
            self._flagged.add(id(stmt))
            self.report.add(
                "GC003", Severity.ERROR, "guard-coverage",
                f"{kind} partner {text} equals mynode() for every rank: "
                "guaranteed self-communication",
                path=tuple(path), partner=text, kind=kind,
            )
            return
        # Loop-dependent partner: does some iteration hit mynode() for
        # every rank?  Solve d(var) = __p over the loop range.
        for var in sorted(d.free_vars() & loops.keys()):
            lo, hi = loops[var]
            solved = solve_membership(d, _P, var, lo, hi, facts)
            if isinstance(solved, StridedRange) \
                    and prove_le(solved.first, solved.last, facts):
                self._flagged.add(id(stmt))
                self.report.add(
                    "GC003", Severity.ERROR, "guard-coverage",
                    f"{kind} partner {text}: for every rank some "
                    f"iteration of the {var}-loop communicates with "
                    "mynode() itself",
                    path=tuple(path), partner=text, kind=kind, var=var,
                )
                return


_NEGATE = {
    "<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "==",
}
_FLIP = {
    "<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!=",
}


def _bound(facts: Facts, name: str, op: str, value: Expr) -> Facts | None:
    """Intersect ``name``'s interval with one comparison's half-space.

    Intersection (never replacement) keeps the facts sound when a guard
    is looser than what is already known; a provably empty result means
    the branch is unreachable for every rank, and returning None makes
    the scanner skip it — reporting inside dead code would be a false
    alarm the simulator never confirms."""
    old_lo, old_hi = facts.bounds.get(name, (None, None))
    new_lo = new_hi = None
    if op == "<":
        new_hi = value + Const(-1)
    elif op == "<=":
        new_hi = value
    elif op == ">":
        new_lo = value + Const(1)
    elif op == ">=":
        new_lo = value
    elif op == "==":
        new_lo = new_hi = value
    else:  # "!=" carries no interval information
        return facts
    lo = old_lo if new_lo is None else (
        new_lo if old_lo is None else Max((old_lo, new_lo))
    )
    hi = old_hi if new_hi is None else (
        new_hi if old_hi is None else Min((old_hi, new_hi))
    )
    if lo is not None and hi is not None and prove_lt(hi, lo, facts):
        return None  # empty: the branch admits no rank at all
    return facts.with_bound(name, lo, hi)
