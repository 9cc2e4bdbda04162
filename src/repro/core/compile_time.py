"""Compile-time resolution (paper §3.2).

Starts from the same three owner-computes rules as run-time resolution but
uses the mapping information *statically*:

* ownership tests whose truth is decidable are folded away ("three
  outcomes are possible: true, false, and inconclusive");
* every ``coerce`` is split into a send half (guarded by ownership) and a
  receive half (guarded by evaluation);
* loops over distributed data are **distributed by guard** and their
  bounds **specialized** by solving the mapping equations for the loop
  variable ("we set the equations in the evaluators equal to the
  processor name and solve for the loop variable").

For the wavefront program this produces exactly the shape of Figure 5:
one shared ``for j = p+1 to N by S`` loop per processor containing an
Old-column send nest, a compute nest with per-element receives, and a
New-column send nest. Inconclusive cases fall back to the run-time
resolution primitives, statement by statement — the paper's prescribed
escape hatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distrib import OnProc
from repro.errors import CompileError
from repro.lang import ast
from repro.core.common import ArrayInfo, src_to_ir, src_to_sym, sym_to_ir
from repro.core.evaluators import ParticipantsAnalysis
from repro.core.runtime_resolution import RuntimeResolver, _Ctx
from repro.spmd import ir
from repro.spmd.ir import IsLV, NBin, NConst, NMyNode, NVar, VarLV
from repro.spmd.rewrite import subst_body
from repro.symbolic import (
    Const,
    Eq,
    Expr,
    Mod,
    StridedRange,
    Var,
    decide,
    simplify,
    solve_membership,
)
from repro.symbolic.ranges import UNCONSTRAINED
from repro.symbolic.simplify import Facts

_P = Var("p")
_S = Var("S")


@dataclass
class _Operand:
    """One mapped operand of the kernel assignment."""

    node: ast.Expr  # Index or Name
    owner_sym: Expr
    relation: bool | None  # decide(owner == evaluator)
    is_flow: bool  # reads the array the statement writes
    temp: str = ""
    channel: str = ""
    solution: StridedRange | None = None  # on the split variable
    unrestricted: bool = False  # owner independent of the split variable
    shift: int = 0  # re-indexing shift onto the shared loop


def _bounds_free_of(sol: StridedRange, names: frozenset) -> bool:
    """True if none of ``sol``'s bounds mentions a variable of ``names``."""
    return not any(
        bound is not None and bound.free_vars() & names
        for bound in (sol.first, sol.last, sol.step, sol.residue, sol.modulus)
    )


class CompileTimeResolver(RuntimeResolver):
    """Generates the compile-time-resolved NodeProgram."""

    def __init__(self, checked, spec, array_info, assume_nprocs_min: int = 1):
        super().__init__(checked, spec, array_info)
        self.assume_min = max(1, assume_nprocs_min)
        facts = (
            Facts()
            .with_bound("S", Const(self.assume_min), None)
            .with_bound("p", Const(0), _S - 1)
        )
        # Problem parameters are array extents and similar sizes; they are
        # at least 1 (block widths like ceil(N/S) depend on this).
        for name in checked.params:
            facts = facts.with_bound(name, Const(1), None)
        self.base_facts = facts
        self.participants = ParticipantsAnalysis(checked, spec).run()

    # -- statement dispatch ---------------------------------------------------
    def gen_stmt(self, stmt: ast.Stmt, ctx: _Ctx) -> list[ir.NStmt]:
        if isinstance(stmt, ast.ForStmt):
            return self.gen_for(stmt, ctx)
        if isinstance(stmt, ast.CallStmt):
            return self.gen_guarded_call(stmt, ctx)
        return super().gen_stmt(stmt, ctx)

    # -- coerce splitting --------------------------------------------------------
    def coerce(self, value, owner, dest, uid, pre) -> ir.NExpr:
        """Split a coerce into its send/receive halves when decidable.

        With constant owner and destination the ownership tests fold
        completely (Figure 4d); otherwise the dynamic ``coerce`` of
        run-time resolution remains — the inconclusive outcome.
        """
        if dest == "ALL":
            return super().coerce(value, owner, dest, uid, pre)
        if isinstance(owner, NConst) and isinstance(dest, NConst):
            temp = self.temps.fresh()
            channel = self.channel("co", uid)
            if owner.value == dest.value:
                pre.append(
                    ir.NIf(
                        NBin("==", NMyNode(), dest),
                        [ir.NAssign(VarLV(temp), value)],
                    )
                )
            else:
                pre.append(
                    ir.NIf(
                        NBin("==", NMyNode(), owner),
                        [ir.NSend(dest, channel, (value,))],
                    )
                )
                pre.append(
                    ir.NIf(
                        NBin("==", NMyNode(), dest),
                        [ir.NRecv(owner, channel, (VarLV(temp),))],
                    )
                )
            return NVar(temp)
        return super().coerce(value, owner, dest, uid, pre)

    # -- guarded calls (participants) ---------------------------------------------
    def gen_guarded_call(self, stmt: ast.CallStmt, ctx: _Ctx) -> list[ir.NStmt]:
        out, _ = self.gen_call(stmt.func, stmt.args, ctx, want_result=False)
        parts = self.participants.participants_of_proc(stmt.func)
        if parts.is_all or not parts.members:
            return out
        guard = None
        for member in parts.members:
            test = NBin("==", NMyNode(), sym_to_ir(member))
            guard = test if guard is None else NBin("or", guard, test)
        # Only the call itself is guarded; argument marshalling involves
        # every processor (broadcasts) and stays outside.
        call_stmt = out[-1]
        if not isinstance(call_stmt, ir.NCallProc):
            return out
        return out[:-1] + [ir.NIf(guard, [call_stmt])]

    # -- loops --------------------------------------------------------------------
    def gen_for(self, stmt: ast.ForStmt, ctx: _Ctx) -> list[ir.NStmt]:
        kernel = self._match_kernel(stmt)
        if kernel is not None:
            loops, assign = kernel
            inner_ctx = ctx
            for loop in loops:
                inner_ctx = inner_ctx.inside_loop(loop.var)
            generated = self.gen_kernel(loops, assign, inner_ctx)
            if generated is not None:
                return generated
        return self._gen_for_fallback(stmt, ctx)

    def _match_kernel(
        self, stmt: ast.ForStmt
    ) -> tuple[list[ast.ForStmt], ast.AssignStmt] | None:
        """Match a perfect loop nest around a single array-element write."""
        loops: list[ast.ForStmt] = []
        cur: ast.Stmt = stmt
        while isinstance(cur, ast.ForStmt) and len(cur.body) == 1:
            if cur.step is not None and not (
                isinstance(cur.step, ast.IntLit) and cur.step.value == 1
            ):
                return None
            loops.append(cur)
            cur = cur.body[0]
        if isinstance(cur, ast.AssignStmt) and isinstance(cur.target, ast.Index):
            return loops, cur
        return None

    def _gen_for_fallback(self, stmt: ast.ForStmt, ctx: _Ctx) -> list[ir.NStmt]:
        """Keep the loop; resolve the body in place.

        When every statement in the body has the same solvable evaluator
        class on this loop variable, the bounds are still specialized
        ("each processor executes only required loop iterations").
        """
        inner = ctx.inside_loop(stmt.var)
        body = self.gen_body(stmt.body, inner)
        restricted = self._common_restriction(stmt, ctx)
        if restricted is not None:
            first, last, step = restricted
            return [ir.NFor(stmt.var, first, last, step, body)]
        lo = self.replicated_ir(stmt.lo, ctx)
        hi = self.replicated_ir(stmt.hi, ctx)
        step_ir = (
            NConst(1) if stmt.step is None else self.replicated_ir(stmt.step, ctx)
        )
        return [ir.NFor(stmt.var, lo, hi, step_ir, body)]

    def _common_restriction(self, stmt: ast.ForStmt, ctx: _Ctx):
        if stmt.step is not None and not (
            isinstance(stmt.step, ast.IntLit) and stmt.step.value == 1
        ):
            return None
        lo_sym = src_to_sym(stmt.lo, self.checked.consts)
        hi_sym = src_to_sym(stmt.hi, self.checked.consts)
        if lo_sym is None or hi_sym is None:
            return None
        facts = self.base_facts
        solution: StridedRange | None = None
        for sub in stmt.body:
            if not (
                isinstance(sub, ast.AssignStmt)
                and isinstance(sub.target, ast.Index)
            ):
                return None
            ev = self._owner_sym_of_index(sub.target, ctx)
            if ev is None:
                return None
            # All operands must be local for guard-free restriction to be
            # safe for communication; require replicated-only RHS.
            for node in ast.walk_exprs(sub.value):
                if isinstance(node, ast.Index):
                    return None
                if isinstance(node, ast.Name) and not self.is_replicated(
                    node.id, ctx.inside_loop(stmt.var)
                ):
                    return None
            sol = solve_membership(ev, _P, stmt.var, lo_sym, hi_sym, facts)
            if not isinstance(sol, StridedRange):
                return None
            if solution is None:
                solution = sol
            elif (solution.first, solution.last, solution.step) != (
                sol.first,
                sol.last,
                sol.step,
            ):
                return None
        if solution is None:
            return None
        return (
            sym_to_ir(solution.first),
            sym_to_ir(solution.last),
            sym_to_ir(solution.step),
        )

    # -- the kernel generator -------------------------------------------------------
    def gen_kernel(
        self,
        loops: list[ast.ForStmt],
        assign: ast.AssignStmt,
        ctx: _Ctx,
    ) -> list[ir.NStmt] | None:
        """Distribute a perfect nest around one array write (Figure 5).

        Returns None whenever the analysis is inconclusive, sending the
        caller to the guarded fallback.
        """
        consts = self.checked.consts
        target = assign.target
        assert isinstance(target, ast.Index)
        info = self.info(target.array, ctx)
        ev_sym = self._owner_sym_of_index(target, ctx)
        if ev_sym is None:
            return None

        bounds_sym: list[tuple[Expr, Expr]] = []
        for loop in loops:
            lo = src_to_sym(loop.lo, consts)
            hi = src_to_sym(loop.hi, consts)
            if lo is None or hi is None:
                return None
            bounds_sym.append((lo, hi))

        facts = self.base_facts
        for loop, (lo, hi) in zip(loops, bounds_sym):
            facts = facts.with_bound(loop.var, lo, hi)
        ev_sym = simplify(ev_sym, facts)

        operands = self._collect_operands(assign, ev_sym, ctx, facts)
        if operands is None:
            return None

        # Pick the split loop: the outermost whose variable the evaluator
        # depends on and that the solver can handle.
        split_idx = None
        ev_sol: StridedRange | None = None
        for li, loop in enumerate(loops):
            if loop.var not in ev_sym.free_vars():
                continue
            lo, hi = bounds_sym[li]
            sol = solve_membership(ev_sym, _P, loop.var, lo, hi, facts)
            if isinstance(sol, StridedRange):
                split_idx = li
                ev_sol = sol
                break
        if split_idx is None or ev_sol is None:
            return None
        split_var = loops[split_idx].var
        split_lo, split_hi = bounds_sym[split_idx]
        # The split loop's range is computed before it runs: a solution
        # whose bounds mention its own variable or one bound inside it
        # (a grid owner solved for one axis alone) is unsound.
        inner = frozenset(loop.var for loop in loops[split_idx:])
        if not _bounds_free_of(ev_sol, inner):
            return None

        # Solve each communicated operand's ownership on the split variable.
        for op in operands:
            if op.relation is True:
                continue
            if split_var in op.owner_sym.free_vars():
                sol = solve_membership(
                    op.owner_sym, _P, split_var, split_lo, split_hi, facts
                )
                if not isinstance(sol, StridedRange) or not _bounds_free_of(
                    sol, inner
                ):
                    return None
                op.solution = sol
            else:
                if op.is_flow:
                    return None  # cannot safely defer the send
                op.unrestricted = True

        cyclic = ev_sol.residue is not None
        if cyclic:
            for op in operands:
                if op.relation is True or op.unrestricted:
                    continue
                assert op.solution is not None
                if op.solution.residue is None or op.solution.modulus != ev_sol.modulus:
                    return None
                shift = self._find_shift(op.owner_sym, ev_sym, split_var, facts)
                if shift is None:
                    return None
                op.shift = shift
        else:
            # Block-style (contiguous) ranges: nests stay separate; they
            # must all be contiguous too.
            for op in operands:
                if op.relation is True or op.unrestricted:
                    continue
                assert op.solution is not None
                if op.solution.residue is not None and not isinstance(
                    op.solution.step, Const
                ):
                    return None

        ev_ir = sym_to_ir(ev_sym)
        inner_loops = loops[split_idx + 1 :]
        outer_loops = loops[:split_idx]

        pre_nests: list[list[ir.NStmt]] = []
        post_nests: list[list[ir.NStmt]] = []
        pre_shifts: list[int] = []
        post_shifts: list[int] = []
        unrestricted_nests: list[list[ir.NStmt]] = []

        for op in operands:
            if op.relation is True:
                continue
            leaf = self._send_leaf(op, ev_ir, ctx)
            nest = self._wrap_inner_loops(inner_loops, leaf, ctx)
            if op.unrestricted:
                owner_ir = sym_to_ir(op.owner_sym)
                guarded = [
                    ir.NIf(NBin("==", NMyNode(), owner_ir), nest)
                ]
                unrestricted_nests.append(guarded)
            elif op.is_flow:
                post_nests.append(nest)
                post_shifts.append(op.shift)
            else:
                pre_nests.append(nest)
                pre_shifts.append(op.shift)

        compute_leaf = self._compute_leaf(assign, info, operands, ev_ir, ctx)
        compute_nest = self._wrap_inner_loops(inner_loops, compute_leaf, ctx)

        if cyclic:
            split_construct = self._assemble_shared(
                split_var,
                split_lo,
                split_hi,
                ev_sol,
                pre_nests,
                pre_shifts,
                compute_nest,
                post_nests,
                post_shifts,
                facts,
            )
        else:
            split_construct = self._assemble_sequential(
                split_var,
                ev_sol,
                operands,
                pre_nests,
                compute_nest,
                post_nests,
            )
        if split_construct is None:
            return None

        # Unrestricted (loop-invariant-owner) sends precede everything:
        # their data pre-exists and FIFO order per channel is preserved.
        body = unrestricted_nests and [
            s for nest in unrestricted_nests for s in nest
        ] or []
        body = list(body) + split_construct

        # Outer loops wrap the whole construct unchanged.
        for loop in reversed(outer_loops):
            lo_ir = self.replicated_ir(loop.lo, ctx)
            hi_ir = self.replicated_ir(loop.hi, ctx)
            body = [ir.NFor(loop.var, lo_ir, hi_ir, NConst(1), body)]
        return body

    _MAX_SHIFT = 8

    def _find_shift(
        self, owner_sym: Expr, ev_sym: Expr, var: str, facts: Facts
    ) -> int | None:
        """Find constant s with ``owner(j) == ev(j + s)`` identically.

        The send nest for this operand then runs at shared iteration
        ``v`` on behalf of consumer iteration ``j = v - s`` (the
        re-indexing that puts every nest on Figure 5's shared
        ``for j = p to N by S`` loop).
        """
        owner_canon = simplify(owner_sym, facts)
        for s in range(-self._MAX_SHIFT, self._MAX_SHIFT + 1):
            candidate = simplify(
                ev_sym.subst({var: Var(var) + s}), facts
            )
            if candidate == owner_canon:
                return s
        return None

    # -- kernel pieces ---------------------------------------------------------
    def _owner_sym_of_index(self, node: ast.Index, ctx: _Ctx) -> Expr | None:
        info = self.array_info[ctx.proc.name].get(node.array)
        if info is None:
            return None
        idx_syms = []
        for idx in node.indices:
            converted = src_to_sym(idx, self.checked.consts)
            if converted is None:
                return None
            idx_syms.append(converted)
        return info.dist.owner_expr(tuple(idx_syms), _S, info.shape)

    def _collect_operands(
        self, assign: ast.AssignStmt, ev_sym: Expr, ctx: _Ctx, facts: Facts
    ) -> list[_Operand] | None:
        operands: list[_Operand] = []
        target_array = assign.target.array  # type: ignore[union-attr]

        for node in ast.walk_exprs(assign.value):
            if isinstance(node, ast.CallExpr) and node.func in self.checked.procs:
                return None  # procedure calls inside kernels: fallback
            if isinstance(node, ast.AllocExpr):
                return None
            if isinstance(node, ast.Index):
                owner = self._owner_sym_of_index(node, ctx)
                if owner is None:
                    return None
                owner = simplify(owner, facts)
                relation = decide(Eq(owner, ev_sym), facts)
                operands.append(
                    _Operand(
                        node=node,
                        owner_sym=owner,
                        relation=relation,
                        is_flow=(node.array == target_array),
                        temp=self.temps.fresh(),
                        channel=self.channel("x", node.uid),
                    )
                )
            elif isinstance(node, ast.Name) and not self.is_replicated(
                node.id, ctx
            ):
                placement = self.spec.placement_of(node.id)
                if not isinstance(placement, OnProc):
                    return None
                owner = simplify(placement.proc, facts)
                relation = decide(Eq(owner, ev_sym), facts)
                operands.append(
                    _Operand(
                        node=node,
                        owner_sym=owner,
                        relation=relation,
                        is_flow=False,
                        temp=self.temps.fresh(),
                        channel=self.channel("x", node.uid),
                    )
                )
        return operands

    def _send_leaf(
        self, op: _Operand, ev_ir: ir.NExpr, ctx: _Ctx
    ) -> list[ir.NStmt]:
        """The owner-side body: read the local value, send to the evaluator."""
        if isinstance(op.node, ast.Index):
            info = self.info(op.node.array, ctx)
            idx_ir = [self.replicated_ir(i, ctx) for i in op.node.indices]
            value: ir.NExpr = ir.NIsRead(
                op.node.array, self.local_ir(info, idx_ir)
            )
        else:
            value = NVar(op.node.id)  # type: ignore[union-attr]
        send = ir.NSend(ev_ir, op.channel, (value,))
        if op.relation is None:
            # Inconclusive locality: test at run time (e.g. S might be 1).
            return [ir.NIf(NBin("!=", ev_ir, NMyNode()), [send])]
        return [send]

    def _compute_leaf(
        self,
        assign: ast.AssignStmt,
        info: ArrayInfo,
        operands: list[_Operand],
        ev_ir: ir.NExpr,
        ctx: _Ctx,
    ) -> list[ir.NStmt]:
        by_uid = {op.node.uid: op for op in operands}
        out: list[ir.NStmt] = []
        for op in operands:
            if op.relation is True:
                continue
            owner_ir = sym_to_ir(op.owner_sym)
            if isinstance(op.node, ast.Index):
                op_info = self.info(op.node.array, ctx)
                idx_ir = [self.replicated_ir(i, ctx) for i in op.node.indices]
                local_value: ir.NExpr = ir.NIsRead(
                    op.node.array, self.local_ir(op_info, idx_ir)
                )
            else:
                local_value = NVar(op.node.id)  # type: ignore[union-attr]
            recv = ir.NRecv(owner_ir, op.channel, (VarLV(op.temp),))
            if op.relation is None:
                out.append(
                    ir.NIf(
                        NBin("==", owner_ir, NMyNode()),
                        [ir.NAssign(VarLV(op.temp), local_value)],
                        [recv],
                    )
                )
            else:
                out.append(recv)

        def rebuild(node: ast.Expr) -> ir.NExpr:
            op = by_uid.get(node.uid)
            if op is not None:
                if op.relation is True:
                    if isinstance(op.node, ast.Index):
                        op_info = self.info(op.node.array, ctx)
                        idx_ir = [
                            self.replicated_ir(i, ctx) for i in op.node.indices
                        ]
                        return ir.NIsRead(
                            op.node.array, self.local_ir(op_info, idx_ir)
                        )
                    return NVar(op.node.id)  # type: ignore[union-attr]
                return NVar(op.temp)
            if isinstance(node, ast.Unary):
                return ir.NUn(node.op, rebuild(node.operand))
            if isinstance(node, ast.Binary):
                return ir.NBin(node.op, rebuild(node.left), rebuild(node.right))
            if isinstance(node, ast.CallExpr):
                return ir.NCall(node.func, tuple(rebuild(a) for a in node.args))
            return src_to_ir(node, self.checked.consts)

        value_ir = rebuild(assign.value)
        tgt_idx_ir = [self.replicated_ir(i, ctx) for i in assign.target.indices]
        out.append(
            ir.NAssign(
                IsLV(assign.target.array, self.local_ir(info, tgt_idx_ir)),
                value_ir,
            )
        )
        return out

    def _wrap_inner_loops(
        self, inner_loops: list[ast.ForStmt], leaf: list[ir.NStmt], ctx: _Ctx
    ) -> list[ir.NStmt]:
        body = leaf
        for loop in reversed(inner_loops):
            lo = self.replicated_ir(loop.lo, ctx)
            hi = self.replicated_ir(loop.hi, ctx)
            body = [ir.NFor(loop.var, lo, hi, NConst(1), body)]
        return body

    # -- assembly ---------------------------------------------------------------
    def _assemble_shared(
        self,
        split_var: str,
        lo_sym: Expr,
        hi_sym: Expr,
        ev_sol: StridedRange,
        pre_nests: list[list[ir.NStmt]],
        pre_shifts: list[int],
        compute_nest: list[ir.NStmt],
        post_nests: list[list[ir.NStmt]],
        post_shifts: list[int],
        facts: Facts,
    ) -> list[ir.NStmt] | None:
        """One strided loop over this processor's residue class, Figure-5
        style, with every nest re-indexed onto it."""
        shifts = pre_shifts + [0] + post_shifts
        smin = min(shifts)
        smax = max(shifts)
        lo_shared = simplify(lo_sym + smin)
        hi_shared = simplify(hi_sym + smax)
        assert ev_sol.residue is not None and ev_sol.modulus is not None
        first = simplify(
            lo_shared + Mod(simplify(ev_sol.residue - lo_shared), ev_sol.modulus),
            facts,
        )

        def place(nest: list[ir.NStmt], shift: int) -> list[ir.NStmt]:
            # Consumer iteration j = v - shift must lie in [lo, hi].
            if shift != 0:
                nest = subst_body(
                    nest,
                    {split_var: NBin("-", NVar(split_var), NConst(shift))},
                )
            guards: list[ir.NExpr] = []
            if shift != smin:
                guards.append(
                    NBin(">=", NVar(split_var), sym_to_ir(simplify(lo_sym + shift)))
                )
            if shift != smax:
                guards.append(
                    NBin("<=", NVar(split_var), sym_to_ir(simplify(hi_sym + shift)))
                )
            if not guards:
                return nest
            cond = guards[0]
            for extra in guards[1:]:
                cond = NBin("and", cond, extra)
            return [ir.NIf(cond, nest)]

        body: list[ir.NStmt] = []
        for nest, shift in zip(pre_nests, pre_shifts):
            body.extend(place(nest, shift))
        body.extend(place(compute_nest, 0))
        for nest, shift in zip(post_nests, post_shifts):
            body.extend(place(nest, shift))

        return [
            ir.NFor(
                split_var,
                sym_to_ir(first),
                sym_to_ir(hi_shared),
                sym_to_ir(ev_sol.step),
                body,
            )
        ]

    def _assemble_sequential(
        self,
        split_var: str,
        ev_sol: StridedRange,
        operands: list[_Operand],
        pre_nests: list[list[ir.NStmt]],
        compute_nest: list[ir.NStmt],
        post_nests: list[list[ir.NStmt]],
    ) -> list[ir.NStmt] | None:
        """Contiguous (block) ownership: separate sequential loops at the
        split level — sends of pre-existing data, compute, deferred sends."""
        out: list[ir.NStmt] = []
        pre_ops = [
            op
            for op in operands
            if op.relation is not True and not op.unrestricted and not op.is_flow
        ]
        post_ops = [
            op
            for op in operands
            if op.relation is not True and not op.unrestricted and op.is_flow
        ]
        for nest, op in zip(pre_nests, pre_ops):
            sol = op.solution
            assert sol is not None
            out.append(
                ir.NFor(
                    split_var,
                    sym_to_ir(sol.first),
                    sym_to_ir(sol.last),
                    sym_to_ir(sol.step),
                    nest,
                )
            )
        out.append(
            ir.NFor(
                split_var,
                sym_to_ir(ev_sol.first),
                sym_to_ir(ev_sol.last),
                sym_to_ir(ev_sol.step),
                compute_nest,
            )
        )
        for nest, op in zip(post_nests, post_ops):
            sol = op.solution
            assert sol is not None
            out.append(
                ir.NFor(
                    split_var,
                    sym_to_ir(sol.first),
                    sym_to_ir(sol.last),
                    sym_to_ir(sol.step),
                    nest,
                )
            )
        return out
