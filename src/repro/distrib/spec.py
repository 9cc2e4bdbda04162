"""Decomposition specifications: variable name → placement/distribution.

The programmer supplies the domain decomposition either as ``map``
declarations in the source (the italicized annotations of Figure 1) or by
constructing a :class:`DecompositionSpec` directly through the API. Either
way the compiler consumes the same object.

Defaults follow the paper's conventions: scalars without a mapping are
replicated (``ALL`` — constants, loop bounds and problem parameters exist
everywhere), while arrays *must* be mapped, because an unmapped array has
no owner to compute its elements.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import MappingError
from repro.distrib.base import Distribution, OnAll, OnProc, Placement
from repro.distrib.builtin import distribution_by_name
from repro.lang import ast
from repro.lang.ast import Type
from repro.lang.typecheck import CheckedProgram
from repro.symbolic import Const, Expr, Var, simplify


class NotSymbolic(Exception):
    """A source expression has no symbolic integer form.

    ``reason`` says why in words (it is what the locality analyzer
    reports); ``node`` is the AST node that stopped the lift.
    """

    def __init__(self, reason: str, node: ast.Expr):
        super().__init__(reason)
        self.reason = reason
        self.node = node


_LIFT_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "div": operator.floordiv,
    "mod": operator.mod,
}


def lift(e: ast.Expr, bind: Callable[[ast.Name], Expr]) -> Expr:
    """The one lift of a source integer expression into :mod:`repro.symbolic`.

    ``bind`` gives each name its expression, or raises
    :class:`NotSymbolic`. Integer literals, unary minus and ``+ - * div
    mod`` lift node for node, unsimplified; anything else raises
    :class:`NotSymbolic`. Subscripts, loop bounds and mappings all enter
    the symbolic algebra here.
    """
    if isinstance(e, ast.IntLit):
        return Const(e.value)
    if isinstance(e, ast.Name):
        return bind(e)
    if isinstance(e, ast.Unary) and e.op == "-":
        return -lift(e.operand, bind)
    if isinstance(e, ast.Binary) and e.op in _LIFT_OPS:
        return _LIFT_OPS[e.op](lift(e.left, bind), lift(e.right, bind))
    if isinstance(e, ast.Index):
        raise NotSymbolic(f"indirect subscript via {e.array!r}", e)
    if isinstance(e, ast.CallExpr):
        raise NotSymbolic(f"call to {e.func!r} in subscript", e)
    if isinstance(e, (ast.Unary, ast.Binary)):
        raise NotSymbolic(f"operator {e.op!r}", e)
    raise NotSymbolic(type(e).__name__, e)


def bind_constants(
    consts: dict[str, int | float]
) -> Callable[[ast.Name], Expr]:
    """The binding that folds integer constants and keeps other names
    (params, loop variables, map parameters) symbolic."""

    def bind(name: ast.Name) -> Expr:
        if name.id not in consts:
            return Var(name.id)
        value = consts[name.id]
        if not isinstance(value, int):
            raise NotSymbolic(f"constant {name.id!r} is not an integer", name)
        return Const(value)

    return bind


def source_expr_to_sym(e: ast.Expr, consts: dict[str, int | float]) -> Expr:
    """:func:`lift` with constants folded, failing with a
    :class:`MappingError` (mappings are integer expressions)."""
    try:
        return lift(e, bind_constants(consts))
    except NotSymbolic as exc:
        if isinstance(exc.node, ast.Name):
            raise MappingError(
                f"{exc.reason}; mappings are integral"
            ) from None
        raise MappingError(
            f"expression not allowed in a mapping: {type(exc.node).__name__}"
        ) from None


@dataclass
class DecompositionSpec:
    """The full domain decomposition for one program."""

    placements: dict[str, Placement] = field(default_factory=dict)
    distributions: dict[str, Distribution] = field(default_factory=dict)

    # -- construction -------------------------------------------------------
    def place(self, name: str, placement: Placement) -> "DecompositionSpec":
        self.placements[name] = placement
        return self

    def distribute(self, name: str, dist: Distribution) -> "DecompositionSpec":
        self.distributions[name] = dist
        return self

    @classmethod
    def from_program(cls, checked: CheckedProgram) -> "DecompositionSpec":
        """Build the spec from the program's ``map`` declarations."""
        spec = cls()
        var_kinds = _variable_kinds(checked)
        for name, mapspec in checked.maps.items():
            kind = var_kinds.get(name)
            if isinstance(mapspec, ast.MapOnAll):
                if kind is not None and kind.is_array():
                    raise MappingError(
                        f"array {name!r} cannot be mapped 'on all'; give it "
                        "a distribution"
                    )
                spec.place(name, OnAll())
            elif isinstance(mapspec, ast.MapOnProc):
                if kind is not None and kind.is_array():
                    raise MappingError(
                        f"array {name!r} cannot live on a single processor "
                        "in this system; give it a distribution"
                    )
                proc = source_expr_to_sym(mapspec.proc, checked.consts)
                spec.place(name, OnProc(proc))
            elif isinstance(mapspec, ast.MapBy):
                if kind is not None and not kind.is_array():
                    raise MappingError(
                        f"scalar {name!r} cannot take distribution "
                        f"{mapspec.dist!r}"
                    )
                args = [_const_arg(a, checked.consts) for a in mapspec.args]
                dist = distribution_by_name(mapspec.dist, args)
                expected_rank = 2 if kind is Type.MATRIX else 1
                if kind is not None and dist.rank != expected_rank:
                    raise MappingError(
                        f"distribution {mapspec.dist!r} has rank {dist.rank} "
                        f"but {name!r} is a {kind.value}"
                    )
                spec.distribute(name, dist)
            else:
                raise MappingError(f"unknown map specification {mapspec!r}")
        return spec

    # -- queries -------------------------------------------------------------
    def placement_of(self, name: str) -> Placement:
        """The placement of a scalar; unmapped scalars are replicated."""
        if name in self.distributions:
            raise MappingError(f"{name!r} is an array, not a scalar")
        return self.placements.get(name, OnAll())

    def distribution_of(self, name: str) -> Distribution:
        """The distribution of an array; arrays must be mapped."""
        if name in self.placements:
            raise MappingError(f"{name!r} is a scalar, not an array")
        try:
            return self.distributions[name]
        except KeyError:
            raise MappingError(
                f"array {name!r} has no distribution; add a 'map {name} by "
                "...' declaration"
            ) from None

    def has_distribution(self, name: str) -> bool:
        return name in self.distributions

    def substituted(self, bindings: dict[str, Expr]) -> "DecompositionSpec":
        """A copy with map-parameter names substituted (for §5.1).

        Only single-processor placements mention map parameters, so only
        they change.
        """
        out = DecompositionSpec(
            placements=dict(self.placements),
            distributions=dict(self.distributions),
        )
        for name, placement in out.placements.items():
            if isinstance(placement, OnProc):
                out.placements[name] = OnProc(placement.proc.subst(bindings))
        return out


def _variable_kinds(checked: CheckedProgram) -> dict[str, Type]:
    """Best-effort variable name → type over the whole program."""
    kinds: dict[str, Type] = {}
    for proc_vars in checked.var_types.values():
        for name, type_ in proc_vars.items():
            kinds.setdefault(name, type_)
    return kinds


def _const_arg(e: ast.Expr, consts: dict[str, int | float]) -> int:
    folded = simplify(source_expr_to_sym(e, consts))
    if isinstance(folded, Const):
        return folded.value
    raise MappingError("distribution arguments must be compile-time constants")
