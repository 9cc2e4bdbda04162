"""Affine access-function extraction from mini-Id loop nests.

The locality analyzer (:mod:`repro.analysis.locality`) reasons about
*access functions*: for each array reference ``A[f(i,j), g(i,j)]`` inside
a loop nest, the map from iteration space to data space. This module
extracts them directly from the checked AST — no simulation, no IR walk —
as simplified :mod:`repro.symbolic` expressions lifted by
:func:`repro.distrib.spec.lift` and accepted when every
:func:`~repro.symbolic.as_affine` term is a variable (integer-linear
combinations of loop variables and ``param`` symbols plus a constant).

Soundness rule: anything we cannot prove affine is *not* guessed at.
A subscript containing an indirect read (``a[idx[i]]``), a ``mod``, a
non-constant multiplier, an inexact ``div``, or a ``let``-bound scalar
comes back as ``None`` with a human-readable reason (from the lifter or
from the form's non-variable terms), and the analyzer treats the
reference as opaque. See LANGUAGE.md ("Analyzable access forms") for
the user-facing contract.

Extraction inlines procedure calls (``call copy_boundary(Old, New)``):
array formals are renamed to the caller's actuals and scalar formals are
substituted by the affine form of the actual argument, so references in
callees participate in the caller's alignment graph under their global
array names.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.distrib.spec import NotSymbolic, lift
from repro.lang import ast
from repro.lang.typecheck import CheckedProgram
from repro.symbolic import Const, Expr, Mod, Mul, Var, as_affine, simplify


def render(form: Expr) -> str:
    """An affine form as the LOC002/LOC003 messages spell it: terms
    sorted by name, then the constant (``-i + 2*j - 5``)."""
    terms, const = as_affine(form)
    text = ""
    for name, c in sorted((term.name, c) for term, c in terms.items()):
        mag = name if abs(c) == 1 else f"{abs(c)}*{name}"
        if not text:
            text = mag if c > 0 else f"-{mag}"
        else:
            text += f" + {mag}" if c > 0 else f" - {mag}"
    if not text:
        return str(const)
    if const:
        text += f" + {const}" if const > 0 else f" - {-const}"
    return text


def _why_not_affine(form: Expr) -> str | None:
    """None when every affine term of ``form`` is a variable, else why
    the first other term is not (its operands are searched first)."""
    for term in as_affine(form)[0]:
        if not isinstance(term, Var):
            for child in term.children():
                reason = _why_not_affine(child)
                if reason is not None:
                    return reason
            if isinstance(term, Mod):
                return "modulo subscript"
            if isinstance(term, Mul):
                return "non-constant multiplier"
            # The lifter builds one other operator: a division.
            if not isinstance(term.den, Const):
                return "non-constant divisor"
            if term.den.value <= 0:
                return f"division by non-positive constant {term.den.value}"
            return f"inexact integer division by {term.den.value}"
    return None


@dataclass(frozen=True)
class LoopInfo:
    """One loop of the nest enclosing a reference, outermost first.

    ``lo``/``hi`` are ``None`` when a bound is not affine.
    """

    var: str
    lo: Expr | None
    hi: Expr | None
    step: int
    line: int


@dataclass(frozen=True)
class Reference:
    """One array read/write with its per-dimension access functions."""

    array: str
    kind: str  # "read" | "write" | "accum"
    subs: tuple[Expr | None, ...]
    reasons: tuple[str | None, ...]  # why subs[k] is None, when it is
    line: int
    col: int

    @property
    def affine(self) -> bool:
        return all(s is not None for s in self.subs)

    def render(self) -> str:
        inner = ", ".join(
            render(s) if s is not None else f"<{r}>"
            for s, r in zip(self.subs, self.reasons)
        )
        return f"{self.array}[{inner}]"


@dataclass(frozen=True)
class StatementAccess:
    """All references of one statement, with its enclosing loop nest."""

    proc: str
    loops: tuple[LoopInfo, ...]
    write: Reference | None  # array write/accum target, if any
    reads: tuple[Reference, ...]
    line: int


@dataclass
class _Ctx:
    """Per-inlining walk context."""

    proc: str
    array_rename: dict[str, str] = field(default_factory=dict)
    scalar_subst: dict[str, Expr | None] = field(default_factory=dict)
    loop_vars: list[str] = field(default_factory=list)


class _Extractor:
    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.consts = {
            k: v
            for k, v in checked.consts.items()
            if isinstance(v, int) and not isinstance(v, bool)
        }
        self.params = set(checked.params)
        self.out: list[StatementAccess] = []

    # -- affine forms ------------------------------------------------

    def _binding(self, ctx: _Ctx) -> Callable[[ast.Name], Expr]:
        def bind(node: ast.Name) -> Expr:
            name = node.id
            if name in ctx.loop_vars:
                return Var(name)
            if name in ctx.scalar_subst:
                bound = ctx.scalar_subst[name]
                if bound is None:
                    raise NotSymbolic(
                        f"argument bound to {name!r} is not affine", node
                    )
                return bound
            if name in self.consts:
                return Const(self.consts[name])
            if name in self.params:
                return Var(name)
            raise NotSymbolic(f"depends on local scalar {name!r}", node)

        return bind

    def _affine(
        self, e: ast.Expr, ctx: _Ctx
    ) -> tuple[Expr | None, str | None]:
        """``(form, None)`` for an affine ``e``, else ``(None, reason)``."""
        try:
            form = simplify(lift(e, self._binding(ctx)))
        except NotSymbolic as exc:
            return None, exc.reason
        reason = _why_not_affine(form)
        return (None, reason) if reason else (form, None)

    # -- reference construction --------------------------------------

    def _make_ref(self, node: ast.Index, kind: str, ctx: _Ctx) -> Reference:
        subs, reasons = zip(*(self._affine(sub, ctx) for sub in node.indices))
        return Reference(
            array=ctx.array_rename.get(node.array, node.array),
            kind=kind,
            subs=subs,
            reasons=reasons,
            line=node.line,
            col=node.col,
        )

    def _reads(self, e: ast.Expr | None, ctx: _Ctx, loops) -> list[Reference]:
        """All Index reads under ``e``; user calls in expression
        position are inlined as a side effect."""
        refs: list[Reference] = []
        for node in ast.walk_exprs(e):
            if isinstance(node, ast.Index):
                refs.append(self._make_ref(node, "read", ctx))
            elif (
                isinstance(node, ast.CallExpr)
                and node.func in self.checked.procs
            ):
                self._enter_call(node.func, node.args, ctx, loops)
        return refs

    # -- statement walk ----------------------------------------------

    def _emit(self, ctx, loops, write, reads, line) -> None:
        if write is None and not reads:
            return
        self.out.append(
            StatementAccess(
                proc=ctx.proc,
                loops=tuple(loops),
                write=write,
                reads=tuple(reads),
                line=line,
            )
        )

    def _enter_call(self, func: str, args, ctx: _Ctx, loops, stack=()) -> None:
        callee = self.checked.procs.get(func)
        if callee is None or func in stack:
            return
        rename: dict[str, str] = {}
        subst: dict[str, Expr | None] = {}
        for formal, actual in zip(callee.params, args):
            if formal.type.is_array():
                if isinstance(actual, ast.Name):
                    rename[formal.name] = ctx.array_rename.get(
                        actual.id, actual.id
                    )
                else:
                    # Not a simple array name: keep the formal so the
                    # callee's references still surface, just unaligned
                    # with any declared map.
                    rename[formal.name] = formal.name
            else:
                subst[formal.name] = self._affine(actual, ctx)[0]
        inner = _Ctx(
            proc=func,
            array_rename=rename,
            scalar_subst=subst,
            loop_vars=list(ctx.loop_vars),
        )
        self._walk_body(callee.body, inner, loops, stack + (func,))

    def _walk_body(self, body, ctx: _Ctx, loops, stack) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ForStmt):
                step = 1
                if stmt.step is not None:
                    form = self._affine(stmt.step, ctx)[0]
                    step = form.value if isinstance(form, Const) else 1
                info = LoopInfo(
                    var=stmt.var,
                    lo=self._affine(stmt.lo, ctx)[0],
                    hi=self._affine(stmt.hi, ctx)[0],
                    step=max(1, step), line=stmt.line,
                )
                ctx.loop_vars.append(stmt.var)
                self._walk_body(stmt.body, ctx, loops + [info], stack)
                ctx.loop_vars.pop()
            elif isinstance(stmt, ast.AssignStmt):
                reads: list[Reference] = []
                write = None
                if isinstance(stmt.target, ast.Index):
                    write = self._make_ref(stmt.target, "write", ctx)
                    for sub in stmt.target.indices:
                        for node in ast.walk_exprs(sub):
                            if isinstance(node, ast.Index):
                                reads.append(
                                    self._make_ref(node, "read", ctx)
                                )
                reads.extend(self._reads(stmt.value, ctx, loops))
                self._emit(ctx, loops, write, reads, stmt.line)
            elif isinstance(stmt, ast.AccumStmt):
                write = self._make_ref(stmt.target, "accum", ctx)
                reads = []
                for sub in stmt.target.indices:
                    for node in ast.walk_exprs(sub):
                        if isinstance(node, ast.Index):
                            reads.append(self._make_ref(node, "read", ctx))
                reads.extend(self._reads(stmt.value, ctx, loops))
                self._emit(ctx, loops, write, reads, stmt.line)
            elif isinstance(stmt, ast.LetStmt):
                reads = self._reads(stmt.init, ctx, loops)
                self._emit(ctx, loops, None, reads, stmt.line)
            elif isinstance(stmt, ast.IfStmt):
                reads = self._reads(stmt.cond, ctx, loops)
                self._emit(ctx, loops, None, reads, stmt.line)
                self._walk_body(stmt.then_body, ctx, loops, stack)
                self._walk_body(stmt.else_body, ctx, loops, stack)
            elif isinstance(stmt, ast.CallStmt):
                reads = []
                for arg in stmt.args:
                    reads.extend(self._reads(arg, ctx, loops))
                self._emit(ctx, loops, None, reads, stmt.line)
                self._enter_call(stmt.func, stmt.args, ctx, loops, stack)
            elif isinstance(stmt, ast.ReturnStmt):
                reads = self._reads(stmt.value, ctx, loops)
                self._emit(ctx, loops, None, reads, stmt.line)


def extract_references(
    checked: CheckedProgram, entry: str
) -> list[StatementAccess]:
    """Extract every array reference reachable from ``entry``.

    Returns one :class:`StatementAccess` per reference-bearing statement
    (calls inlined, arrays renamed to caller actuals), in source order.
    """
    extractor = _Extractor(checked)
    ctx = _Ctx(proc=entry)
    extractor._walk_body(
        checked.proc(entry).body, ctx, [], (entry,)
    )
    return extractor.out
