"""Symbolic integer expressions and boolean conditions.

Expressions are immutable trees. Arithmetic follows Python's integer
semantics: ``div`` is floor division and ``mod`` always returns a result
with the sign of the divisor, which matches the behaviour the paper's
mappings rely on (``j mod S`` is a valid processor number for any ``j``).

Every node class is **hash-consed**: constructing a node returns the one
canonical instance for its field values, so structurally equal trees are
pointer-equal and equality/hashing are O(1) identity operations. The
invariant holds inductively — children are interned before the parent's
intern-table key is built — and survives pickling (``__reduce__``
reconstructs through the constructor, re-interning in the receiving
process, which the parallel bench workers rely on).

The classes here are deliberately dumb containers; all algebraic
intelligence lives in :mod:`repro.symbolic.simplify` and
:mod:`repro.symbolic.solve`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields as _dc_fields

from repro.errors import SolverError

Env = Mapping[str, int]


class _InternMeta(type):
    """Metaclass interning every instance per (class, field values).

    The constructed object is used only to normalize arguments (positional
    or keyword) into the per-class key; if the key is already present the
    canonical instance is returned and the fresh one is dropped. The
    tables are *not* caches — they define node identity for the process
    lifetime and are never cleared (clearing would break pointer
    equality for canonical instances already held, e.g. the module-level
    ``TRUE``/``FALSE``).
    """

    _hits = 0
    _misses = 0

    def __call__(cls, *args, **kwargs):
        obj = super().__call__(*args, **kwargs)
        names = cls.__dict__.get("_intern_fields")
        if names is None:
            names = tuple(f.name for f in _dc_fields(cls))
            table: dict = {}
            cls._intern_fields = names
            cls._intern_table = table
        else:
            table = cls.__dict__["_intern_table"]
        key = tuple(getattr(obj, name) for name in names)
        canon = table.get(key)
        if canon is None:
            _InternMeta._misses += 1
            table[key] = obj
            return obj
        _InternMeta._hits += 1
        return canon


def intern_stats() -> dict[str, int]:
    """Global hash-consing statistics (all node classes combined)."""
    return {"hits": _InternMeta._hits, "misses": _InternMeta._misses}


def sym(value: "Expr | int | str") -> "Expr":
    """Coerce an int (to :class:`Const`) or str (to :class:`Var`)."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not integer expressions")
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, str):
        return Var(value)
    raise TypeError(f"cannot make a symbolic expression from {value!r}")


class Expr(metaclass=_InternMeta):
    """Base class for integer-valued symbolic expressions.

    Instances are interned (see :class:`_InternMeta`): equality and
    hashing are inherited from ``object`` — identity — which is exactly
    structural equality thanks to hash-consing.
    """

    __slots__ = ()

    def __reduce__(self):
        cls = type(self)
        return cls, tuple(getattr(self, n) for n in cls._intern_fields)

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other: "Expr | int") -> "Expr":
        return Add((self, sym(other)))

    def __radd__(self, other: "Expr | int") -> "Expr":
        return Add((sym(other), self))

    def __sub__(self, other: "Expr | int") -> "Expr":
        return Add((self, Mul((Const(-1), sym(other)))))

    def __rsub__(self, other: "Expr | int") -> "Expr":
        return Add((sym(other), Mul((Const(-1), self))))

    def __mul__(self, other: "Expr | int") -> "Expr":
        return Mul((self, sym(other)))

    def __rmul__(self, other: "Expr | int") -> "Expr":
        return Mul((sym(other), self))

    def __floordiv__(self, other: "Expr | int") -> "Expr":
        return FloorDiv(self, sym(other))

    def __mod__(self, other: "Expr | int") -> "Expr":
        return Mod(self, sym(other))

    def __neg__(self) -> "Expr":
        return Mul((Const(-1), self))

    # -- relations (return BoolExpr, not bool) ----------------------------
    def eq(self, other: "Expr | int") -> "Eq":
        return Eq(self, sym(other))

    def ne(self, other: "Expr | int") -> "Ne":
        return Ne(self, sym(other))

    def le(self, other: "Expr | int") -> "Le":
        return Le(self, sym(other))

    def lt(self, other: "Expr | int") -> "Lt":
        return Lt(self, sym(other))

    def ge(self, other: "Expr | int") -> "Ge":
        return Ge(self, sym(other))

    def gt(self, other: "Expr | int") -> "Gt":
        return Gt(self, sym(other))

    # -- core protocol -----------------------------------------------------
    def children(self) -> tuple["Expr", ...]:
        raise NotImplementedError

    def evaluate(self, env: Env) -> int:
        """Evaluate to a concrete integer; raise SolverError on free vars."""
        raise NotImplementedError

    def subst(self, env: Mapping[str, "Expr | int"]) -> "Expr":
        """Substitute expressions for variables."""
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        out: set[str] = set()
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                out.add(node.name)
            else:
                stack.extend(node.children())
        return frozenset(out)


@dataclass(frozen=True, slots=True, eq=False)
class Const(Expr):
    value: int

    def __post_init__(self):
        # Normalize bools before the intern key is built: True/False hash
        # like 1/0, so without this a ``Const(True)`` interned first would
        # become the canonical ``Const(1)`` and print as "True".
        if type(self.value) is bool:
            object.__setattr__(self, "value", int(self.value))

    def children(self) -> tuple[Expr, ...]:
        return ()

    def evaluate(self, env: Env) -> int:
        return self.value

    def subst(self, env: Mapping[str, Expr | int]) -> Expr:
        return self

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True, eq=False)
class Var(Expr):
    name: str

    def children(self) -> tuple[Expr, ...]:
        return ()

    def evaluate(self, env: Env) -> int:
        try:
            return env[self.name]
        except KeyError:
            raise SolverError(f"unbound symbolic variable {self.name!r}") from None

    def subst(self, env: Mapping[str, Expr | int]) -> Expr:
        if self.name in env:
            return sym(env[self.name])
        return self

    def __str__(self) -> str:
        return self.name


def _paren(e: Expr) -> str:
    text = str(e)
    if isinstance(e, (Const, Var)):
        return text
    return f"({text})"


@dataclass(frozen=True, slots=True, eq=False)
class Add(Expr):
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def evaluate(self, env: Env) -> int:
        return sum(a.evaluate(env) for a in self.args)

    def subst(self, env: Mapping[str, Expr | int]) -> Expr:
        return Add(tuple(a.subst(env) for a in self.args))

    def __str__(self) -> str:
        parts: list[str] = []
        for arg in self.args:
            text = _paren(arg)
            if parts and not text.startswith("-"):
                parts.append("+")
            elif parts:
                parts.append("+")  # negative handled by Mul rendering
            parts.append(text)
        return " ".join(parts)


@dataclass(frozen=True, slots=True, eq=False)
class Mul(Expr):
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def evaluate(self, env: Env) -> int:
        product = 1
        for a in self.args:
            product *= a.evaluate(env)
        return product

    def subst(self, env: Mapping[str, Expr | int]) -> Expr:
        return Mul(tuple(a.subst(env) for a in self.args))

    def __str__(self) -> str:
        return " * ".join(_paren(a) for a in self.args)


@dataclass(frozen=True, slots=True, eq=False)
class FloorDiv(Expr):
    num: Expr
    den: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.num, self.den)

    def evaluate(self, env: Env) -> int:
        d = self.den.evaluate(env)
        if d == 0:
            raise SolverError("symbolic division by zero")
        return self.num.evaluate(env) // d

    def subst(self, env: Mapping[str, Expr | int]) -> Expr:
        return FloorDiv(self.num.subst(env), self.den.subst(env))

    def __str__(self) -> str:
        return f"{_paren(self.num)} div {_paren(self.den)}"


@dataclass(frozen=True, slots=True, eq=False)
class Mod(Expr):
    num: Expr
    den: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.num, self.den)

    def evaluate(self, env: Env) -> int:
        d = self.den.evaluate(env)
        if d == 0:
            raise SolverError("symbolic modulo by zero")
        return self.num.evaluate(env) % d

    def subst(self, env: Mapping[str, Expr | int]) -> Expr:
        return Mod(self.num.subst(env), self.den.subst(env))

    def __str__(self) -> str:
        return f"{_paren(self.num)} mod {_paren(self.den)}"


@dataclass(frozen=True, slots=True, eq=False)
class Min(Expr):
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def evaluate(self, env: Env) -> int:
        return min(a.evaluate(env) for a in self.args)

    def subst(self, env: Mapping[str, Expr | int]) -> Expr:
        return Min(tuple(a.subst(env) for a in self.args))

    def __str__(self) -> str:
        return "min(" + ", ".join(str(a) for a in self.args) + ")"


@dataclass(frozen=True, slots=True, eq=False)
class Max(Expr):
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def evaluate(self, env: Env) -> int:
        return max(a.evaluate(env) for a in self.args)

    def subst(self, env: Mapping[str, Expr | int]) -> Expr:
        return Max(tuple(a.subst(env) for a in self.args))

    def __str__(self) -> str:
        return "max(" + ", ".join(str(a) for a in self.args) + ")"


# ---------------------------------------------------------------------------
# Boolean conditions
# ---------------------------------------------------------------------------


class BoolExpr(metaclass=_InternMeta):
    """Base class for boolean conditions over integer expressions.

    Interned exactly like :class:`Expr`: structural equality is pointer
    equality, and relation classes (``Eq`` vs ``Le``) never collide
    because the intern tables are per-class.
    """

    __slots__ = ()

    def __reduce__(self):
        cls = type(self)
        return cls, tuple(getattr(self, n) for n in cls._intern_fields)

    def and_(self, other: "BoolExpr") -> "BoolExpr":
        return And((self, other))

    def or_(self, other: "BoolExpr") -> "BoolExpr":
        return Or((self, other))

    def not_(self) -> "BoolExpr":
        return Not(self)

    def evaluate(self, env: Env) -> bool:
        raise NotImplementedError

    def subst(self, env: Mapping[str, Expr | int]) -> "BoolExpr":
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        raise NotImplementedError


@dataclass(frozen=True, slots=True, eq=False)
class BoolConst(BoolExpr):
    value: bool

    def evaluate(self, env: Env) -> bool:
        return self.value

    def subst(self, env: Mapping[str, Expr | int]) -> BoolExpr:
        return self

    def free_vars(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True, slots=True, eq=False)
class _Rel(BoolExpr):
    lhs: Expr
    rhs: Expr

    _symbol = "?"

    def _holds(self, a: int, b: int) -> bool:
        raise NotImplementedError

    def evaluate(self, env: Env) -> bool:
        return self._holds(self.lhs.evaluate(env), self.rhs.evaluate(env))

    def subst(self, env: Mapping[str, Expr | int]) -> BoolExpr:
        return type(self)(self.lhs.subst(env), self.rhs.subst(env))

    def free_vars(self) -> frozenset[str]:
        return self.lhs.free_vars() | self.rhs.free_vars()

    def __str__(self) -> str:
        return f"{self.lhs} {self._symbol} {self.rhs}"


class Eq(_Rel):
    _symbol = "="

    def _holds(self, a: int, b: int) -> bool:
        return a == b


class Ne(_Rel):
    _symbol = "!="

    def _holds(self, a: int, b: int) -> bool:
        return a != b


class Le(_Rel):
    _symbol = "<="

    def _holds(self, a: int, b: int) -> bool:
        return a <= b


class Lt(_Rel):
    _symbol = "<"

    def _holds(self, a: int, b: int) -> bool:
        return a < b


class Ge(_Rel):
    _symbol = ">="

    def _holds(self, a: int, b: int) -> bool:
        return a >= b


class Gt(_Rel):
    _symbol = ">"

    def _holds(self, a: int, b: int) -> bool:
        return a > b


@dataclass(frozen=True, slots=True, eq=False)
class And(BoolExpr):
    args: tuple[BoolExpr, ...]

    def evaluate(self, env: Env) -> bool:
        return all(a.evaluate(env) for a in self.args)

    def subst(self, env: Mapping[str, Expr | int]) -> BoolExpr:
        return And(tuple(a.subst(env) for a in self.args))

    def free_vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.free_vars()
        return out

    def __str__(self) -> str:
        return " and ".join(f"({a})" for a in self.args)


@dataclass(frozen=True, slots=True, eq=False)
class Or(BoolExpr):
    args: tuple[BoolExpr, ...]

    def evaluate(self, env: Env) -> bool:
        return any(a.evaluate(env) for a in self.args)

    def subst(self, env: Mapping[str, Expr | int]) -> BoolExpr:
        return Or(tuple(a.subst(env) for a in self.args))

    def free_vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.free_vars()
        return out

    def __str__(self) -> str:
        return " or ".join(f"({a})" for a in self.args)


@dataclass(frozen=True, slots=True, eq=False)
class Not(BoolExpr):
    arg: BoolExpr

    def evaluate(self, env: Env) -> bool:
        return not self.arg.evaluate(env)

    def subst(self, env: Mapping[str, Expr | int]) -> BoolExpr:
        return Not(self.arg.subst(env))

    def free_vars(self) -> frozenset[str]:
        return self.arg.free_vars()

    def __str__(self) -> str:
        return f"not ({self.arg})"
