"""Normalizing simplifier and three-valued decision procedure.

The simplifier puts integer expressions into an *affine normal form over
opaque terms*: a sum ``c0 + c1*t1 + ... + cn*tn`` where each ``ti`` is a
variable or an opaque node (``mod``, ``div``, ``min``, ``max``, or a product
of non-constants). On top of plain algebraic rewriting it can use *facts* —
variable bounds and congruences — which is how the compiler proves guards
such as ``(j mod S) = p`` redundant inside a loop specialized to
``j = p, p+S, p+2S, ...`` (paper §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from repro import perf
from repro.symbolic.expr import (
    Add,
    And,
    BoolConst,
    BoolExpr,
    Const,
    Eq,
    Expr,
    FloorDiv,
    Ge,
    Gt,
    Le,
    Lt,
    Max,
    Min,
    Mod,
    Mul,
    Ne,
    Not,
    Or,
    Var,
)

AffineTerms = dict[Expr, int]


@dataclass(frozen=True)
class Facts:
    """Knowledge the simplifier may assume.

    ``bounds`` maps a variable name to symbolic inclusive bounds
    (either end may be None). ``congruences`` maps a variable name to a
    ``(modulus, residue)`` pair meaning ``var ≡ residue (mod modulus)``.
    """

    bounds: dict[str, tuple[Expr | None, Expr | None]] = field(default_factory=dict)
    congruences: dict[str, tuple[Expr, Expr]] = field(default_factory=dict)

    def with_bound(self, name: str, lo: Expr | None, hi: Expr | None) -> "Facts":
        bounds = dict(self.bounds)
        bounds[name] = (lo, hi)
        return Facts(bounds=bounds, congruences=dict(self.congruences))

    def with_congruence(self, name: str, modulus: Expr, residue: Expr) -> "Facts":
        congruences = dict(self.congruences)
        congruences[name] = (modulus, residue)
        return Facts(bounds=dict(self.bounds), congruences=congruences)

    def fingerprint(self) -> tuple:
        """A hashable digest of this knowledge, used as a memoization key.

        Bound/congruence expressions are hash-consed, so the tuple hashes
        by pointer identity — O(size of the fact set), computed once.
        """
        fp = self.__dict__.get("_fp")
        if fp is None:
            fp = (
                tuple(sorted(self.bounds.items())),
                tuple(sorted(self.congruences.items())),
            )
            object.__setattr__(self, "_fp", fp)
        return fp


EMPTY_FACTS = Facts()

# ---------------------------------------------------------------------------
# Memoization tables
#
# All keys are built from interned expressions (identity hash) plus a
# Facts fingerprint; all functions below are pure, so the caches are
# semantics-free. Consulted through ``perf.memo`` only.
# ---------------------------------------------------------------------------

perf.register_cache("simplify", {})
perf.register_cache("affine", {})
perf.register_cache("prove_le", {})
perf.register_cache("decide", {})


# ---------------------------------------------------------------------------
# Affine normal form
# ---------------------------------------------------------------------------


def _term_key(e: Expr) -> str:
    return str(e)


def _affine_of(e: Expr) -> tuple[AffineTerms, int]:
    """Decompose an already-simplified expression into (terms, constant).

    Memoized per interned node; the cached terms are stored as an items
    tuple and rebuilt into a fresh dict so callers may treat the result
    as their own.
    """
    def build():
        terms, const = _affine_of_uncached(e)
        return tuple(terms.items()), const

    items, const = perf.memo("affine", e, build)
    return dict(items), const


def _affine_of_uncached(e: Expr) -> tuple[AffineTerms, int]:
    if isinstance(e, Const):
        return {}, e.value
    if isinstance(e, Add):
        terms: AffineTerms = {}
        const = 0
        for arg in e.args:
            sub_terms, sub_const = _affine_of(arg)
            const += sub_const
            for key, coeff in sub_terms.items():
                terms[key] = terms.get(key, 0) + coeff
        return {k: c for k, c in terms.items() if c != 0}, const
    if isinstance(e, Mul):
        coeff = 1
        rest: list[Expr] = []
        for arg in e.args:
            if isinstance(arg, Const):
                coeff *= arg.value
            else:
                rest.append(arg)
        if coeff == 0:
            return {}, 0
        if not rest:
            return {}, coeff
        key = rest[0] if len(rest) == 1 else Mul(tuple(rest))
        return {key: coeff}, 0
    return {e: 1}, 0


def _from_affine(terms: AffineTerms, const: int) -> Expr:
    parts: list[Expr] = []
    for key in sorted(terms, key=_term_key):
        coeff = terms[key]
        if coeff == 0:
            continue
        if coeff == 1:
            parts.append(key)
        elif isinstance(key, Mul):
            parts.append(Mul((Const(coeff),) + key.args))
        else:
            parts.append(Mul((Const(coeff), key)))
    if const != 0 or not parts:
        parts.append(Const(const))
    if len(parts) == 1:
        return parts[0]
    return Add(tuple(parts))


def as_affine(e: Expr, facts: Facts | None = None) -> tuple[AffineTerms, int]:
    """Return the affine normal form ``(terms, constant)`` of ``e``."""
    return _affine_of(simplify(e, facts))


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def simplify(e: Expr, facts: Facts | None = None) -> Expr:
    """Rewrite ``e`` into affine normal form, folding what the facts allow."""
    facts = facts or EMPTY_FACTS
    return _simplify(e, facts)


def _simplify(e: Expr, facts: Facts) -> Expr:
    if isinstance(e, (Const, Var)):
        return e
    return perf.memo(
        "simplify", (e, facts.fingerprint()),
        lambda: _simplify_uncached(e, facts),
    )


def _simplify_uncached(e: Expr, facts: Facts) -> Expr:
    if isinstance(e, Add):
        args = [_simplify(a, facts) for a in e.args]
        terms: AffineTerms = {}
        const = 0
        for arg in args:
            sub_terms, sub_const = _affine_of(arg)
            const += sub_const
            for key, coeff in sub_terms.items():
                terms[key] = terms.get(key, 0) + coeff
        return _from_affine({k: c for k, c in terms.items() if c != 0}, const)
    if isinstance(e, Mul):
        return _simplify_mul([_simplify(a, facts) for a in e.args], facts)
    if isinstance(e, FloorDiv):
        return _simplify_floordiv(_simplify(e.num, facts), _simplify(e.den, facts), facts)
    if isinstance(e, Mod):
        return _simplify_mod(_simplify(e.num, facts), _simplify(e.den, facts), facts)
    if isinstance(e, Min):
        return _simplify_minmax(Min, [_simplify(a, facts) for a in e.args], facts)
    if isinstance(e, Max):
        return _simplify_minmax(Max, [_simplify(a, facts) for a in e.args], facts)
    raise TypeError(f"unknown expression node {e!r}")


def _simplify_mul(args: list[Expr], facts: Facts) -> Expr:
    coeff = 1
    rest: list[Expr] = []
    for arg in args:
        if isinstance(arg, Const):
            coeff *= arg.value
        elif isinstance(arg, Mul):
            # Strip constant factors into the running coefficient so a
            # product never hides a constant (idempotence: -1 * (2*x)
            # must fold to -2*x, not Mul((-1, 2, x))).
            inner: list[Expr] = []
            for sub in arg.args:
                if isinstance(sub, Const):
                    coeff *= sub.value
                else:
                    inner.append(sub)
            if inner:
                rest.append(inner[0] if len(inner) == 1 else Mul(tuple(inner)))
        else:
            rest.append(arg)
    if coeff == 0:
        return Const(0)
    if not rest:
        return Const(coeff)
    # Distribute a constant * sum (keeps everything affine).
    if len(rest) == 1 and isinstance(rest[0], Add):
        terms, const = _affine_of(rest[0])
        return _from_affine({k: c * coeff for k, c in terms.items()}, const * coeff)
    if len(rest) == 1:
        if coeff == 1:
            return rest[0]
        return _from_affine({rest[0]: coeff}, 0)
    # Distribute products over a single sum operand, if any.
    for idx, r in enumerate(rest):
        if isinstance(r, Add):
            others = rest[:idx] + rest[idx + 1 :]
            pieces = [
                _simplify_mul([Const(coeff), term] + list(others), facts)
                for term in r.args
            ]
            return _simplify(Add(tuple(pieces)), facts)
    rest.sort(key=_term_key)
    key = Mul(tuple(rest))
    if coeff == 1:
        return key
    return _from_affine({key: coeff}, 0)


def _simplify_floordiv(num: Expr, den: Expr, facts: Facts) -> Expr:
    if isinstance(den, Const):
        if den.value == 1:
            return num
        if den.value == -1:
            return _simplify(Mul((Const(-1), num)), facts)
        if isinstance(num, Const) and den.value != 0:
            return Const(num.value // den.value)
        if den.value > 0:
            terms, const = _affine_of(num)
            if all(c % den.value == 0 for c in terms.values()) and const % den.value == 0:
                return _from_affine(
                    {k: c // den.value for k, c in terms.items()}, const // den.value
                )
    if isinstance(num, Const) and num.value == 0:
        return Const(0)
    # (x mod m) div m == 0 when m > 0 (the mod result is in [0, m)).
    if isinstance(num, Mod) and num.den == den and _provably_positive(den, facts):
        return Const(0)
    return FloorDiv(num, den)


def _divisible_by(key: Expr, coeff: int, den: Expr) -> bool:
    """True when ``coeff * key`` is a symbolic multiple of ``den``."""
    if key == den:
        return True
    if isinstance(key, Mul) and any(arg == den for arg in key.args):
        return True
    return False


def _simplify_mod(num: Expr, den: Expr, facts: Facts) -> Expr:
    if isinstance(den, Const):
        if den.value in (1, -1):
            return Const(0)
        if isinstance(num, Const) and den.value != 0:
            return Const(num.value % den.value)
    terms, const = _affine_of(num)
    changed = False
    if isinstance(den, Const) and den.value > 1:
        m = den.value
        new_terms: AffineTerms = {}
        for key, coeff in terms.items():
            reduced = coeff % m
            if reduced != coeff:
                changed = True
            if reduced:
                new_terms[key] = reduced
        new_const = const % m
        if new_const != const:
            changed = True
        terms, const = new_terms, new_const
    else:
        new_terms = {}
        for key, coeff in terms.items():
            if _divisible_by(key, coeff, den):
                changed = True
            else:
                new_terms[key] = coeff
        terms = new_terms
    # Apply congruence facts: replace var by its residue under this modulus.
    subst: dict[str, Expr] = {}
    for key in list(terms):
        if isinstance(key, Var) and key.name in facts.congruences:
            modulus, residue = facts.congruences[key.name]
            if modulus == den:
                subst[key.name] = residue
    if subst:
        replaced = _from_affine(terms, const).subst(subst)
        return _simplify_mod(_simplify(replaced, facts), den, facts)
    num2 = _from_affine(terms, const) if changed else num
    if isinstance(num2, Const) and isinstance(den, Const) and den.value != 0:
        return Const(num2.value % den.value)
    # x mod m == x when 0 <= x < m is provable.
    if _prove_le(Const(0), num2, facts) and _prove_lt(num2, den, facts):
        return num2
    # (x mod m) mod m == x mod m
    if isinstance(num2, Mod) and num2.den == den:
        return num2
    return Mod(num2, den)


def _simplify_minmax(cls: type, args: list[Expr], facts: Facts) -> Expr:
    flat: list[Expr] = []
    for a in args:
        if isinstance(a, cls):
            flat.extend(a.args)
        else:
            flat.append(a)
    consts = [a.value for a in flat if isinstance(a, Const)]
    rest: list[Expr] = []
    for a in flat:
        if not isinstance(a, Const) and a not in rest:
            rest.append(a)
    if consts:
        folded = min(consts) if cls is Min else max(consts)
        if not rest:
            return Const(folded)
        rest.append(Const(folded))
    if len(rest) == 1:
        return rest[0]
    # Drop operands that another operand provably dominates.
    kept: list[Expr] = []
    for a in rest:
        dominated = False
        for b in rest:
            if a is b:
                continue
            if cls is Min and _prove_le(b, a, facts) and not (
                _prove_le(a, b, facts) and _term_key(a) < _term_key(b)
            ):
                dominated = True
                break
            if cls is Max and _prove_le(a, b, facts) and not (
                _prove_le(b, a, facts) and _term_key(a) < _term_key(b)
            ):
                dominated = True
                break
        if not dominated:
            kept.append(a)
    if len(kept) == 1:
        return kept[0]
    kept.sort(key=_term_key)
    return cls(tuple(kept))


# ---------------------------------------------------------------------------
# Bound reasoning
# ---------------------------------------------------------------------------

_PROOF_DEPTH = 3


def _term_bound(term: Expr, facts: Facts, want_upper: bool) -> Expr | None:
    """A symbolic bound for an opaque term, or None when unknown."""
    if isinstance(term, Var):
        lo, hi = facts.bounds.get(term.name, (None, None))
        return hi if want_upper else lo
    if isinstance(term, Mod):
        if want_upper:
            if _provably_positive(term.den, facts):
                return Add((term.den, Const(-1)))
            return None
        if _provably_positive(term.den, facts):
            return Const(0)
        return None
    if isinstance(term, FloorDiv) and not want_upper:
        # a div b >= 1 when b >= 1 and a >= b (covers ceil-division block
        # widths like (N + S - 1) div S with N >= 1); >= 0 when a >= 0.
        if _provably_positive(term.den, facts):
            if _prove_le(term.den, term.num, facts, depth=1):
                return Const(1)
            if _prove_le(Const(0), term.num, facts, depth=1):
                return Const(0)
        return None
    if isinstance(term, Min):
        if want_upper:
            return None  # min <= each arg, but picking one loses info; skip
        return None
    return None


def _relaxations(e: Expr, facts: Facts, want_upper: bool) -> list[Expr]:
    """Candidate one-step relaxations of ``e``.

    Each candidate replaces *one* bounded term by its bound (then, as a last
    resort, all of them at once). Relaxing terms one at a time preserves
    correlations between terms — e.g. proving ``S - p - 1 >= 0`` from
    ``p <= S - 1`` must not simultaneously relax ``S`` to its lower bound.
    """
    terms, const = _affine_of(e)
    keys = sorted(terms, key=_term_key)
    replacements: dict[Expr, Expr] = {}
    for key in keys:
        coeff = terms[key]
        want = want_upper if coeff > 0 else not want_upper
        bound = _term_bound(key, facts, want)
        if bound is not None:
            replacements[key] = bound

    def build(replace: set[Expr]) -> Expr:
        result: Expr = Const(const)
        for key in keys:
            piece = replacements[key] if key in replace else key
            result = Add((result, Mul((Const(terms[key]), piece))))
        return result

    candidates = [build({key}) for key in replacements]
    if len(replacements) > 1:
        candidates.append(build(set(replacements)))
    return candidates


def _prove_le(a: Expr, b: Expr, facts: Facts, depth: int = _PROOF_DEPTH) -> bool:
    """True when ``a <= b`` is provable from the facts."""
    return perf.memo(
        "prove_le", (a, b, facts.fingerprint(), depth),
        lambda: _prove_le_uncached(a, b, facts, depth),
    )


def _prove_le_uncached(a: Expr, b: Expr, facts: Facts, depth: int) -> bool:
    diff = _simplify(Add((b, Mul((Const(-1), a)))), facts)
    if isinstance(diff, Const):
        return diff.value >= 0
    if depth <= 0:
        return False
    for relaxed in _relaxations(diff, facts, want_upper=False):
        if _prove_le(Const(0), _simplify(relaxed, facts), facts, depth - 1):
            return True
    return False


def _prove_lt(a: Expr, b: Expr, facts: Facts, depth: int = _PROOF_DEPTH) -> bool:
    return _prove_le(Add((a, Const(1))), b, facts, depth)


def _provably_positive(e: Expr, facts: Facts) -> bool:
    return _prove_le(Const(1), e, facts)


def prove_le(a: Expr, b: Expr, facts: Facts | None = None) -> bool:
    """Public wrapper: is ``a <= b`` provable from the facts?"""
    return _prove_le(a, b, facts or EMPTY_FACTS)


def prove_lt(a: Expr, b: Expr, facts: Facts | None = None) -> bool:
    """Public wrapper: is ``a < b`` provable from the facts?"""
    return _prove_lt(a, b, facts or EMPTY_FACTS)


# ---------------------------------------------------------------------------
# Boolean simplification / decision
# ---------------------------------------------------------------------------


def decide(cond: BoolExpr, facts: Facts | None = None) -> bool | None:
    """Three-valued truth of ``cond``: True, False, or None (inconclusive).

    This is the paper's compile-time guard evaluation: "Three outcomes are
    possible: true, false, and inconclusive" (§3.2).
    """
    facts = facts or EMPTY_FACTS
    return perf.memo(
        "decide", (cond, facts.fingerprint()),
        lambda: _decide_uncached(cond, facts),
    )


def _decide_uncached(cond: BoolExpr, facts: Facts) -> bool | None:
    if isinstance(cond, BoolConst):
        return cond.value
    if isinstance(cond, Not):
        sub = decide(cond.arg, facts)
        return None if sub is None else not sub
    if isinstance(cond, And):
        verdicts = [decide(a, facts) for a in cond.args]
        if any(v is False for v in verdicts):
            return False
        if all(v is True for v in verdicts):
            return True
        return None
    if isinstance(cond, Or):
        verdicts = [decide(a, facts) for a in cond.args]
        if any(v is True for v in verdicts):
            return True
        if all(v is False for v in verdicts):
            return False
        return None
    if isinstance(cond, Eq):
        lhs = _simplify(cond.lhs, facts)
        rhs = _simplify(cond.rhs, facts)
        le = _prove_le(lhs, rhs, facts)
        ge = _prove_le(rhs, lhs, facts)
        if le and ge:
            return True
        if _prove_lt(lhs, rhs, facts) or _prove_lt(rhs, lhs, facts):
            return False
        # Congruence rule: (a mod m) = (b mod m) is decided by a - b when
        # |a - b| < m (e.g. neighbouring columns are on distinct processors
        # whenever S >= 2). This is how compile-time resolution knows an
        # operand is always remote.
        if (
            isinstance(lhs, Mod)
            and isinstance(rhs, Mod)
            and lhs.den == rhs.den
        ):
            diff = _simplify(
                Add((lhs.num, Mul((Const(-1), rhs.num)))), facts
            )
            if isinstance(diff, Const):
                if diff.value == 0:
                    return True
                if _prove_lt(Const(abs(diff.value)), lhs.den, facts):
                    return False
        return None
    if isinstance(cond, Ne):
        sub = decide(Eq(cond.lhs, cond.rhs), facts)
        return None if sub is None else not sub
    if isinstance(cond, Le):
        if _prove_le(cond.lhs, cond.rhs, facts):
            return True
        if _prove_lt(cond.rhs, cond.lhs, facts):
            return False
        return None
    if isinstance(cond, Lt):
        if _prove_lt(cond.lhs, cond.rhs, facts):
            return True
        if _prove_le(cond.rhs, cond.lhs, facts):
            return False
        return None
    if isinstance(cond, Ge):
        return decide(Le(cond.rhs, cond.lhs), facts)
    if isinstance(cond, Gt):
        return decide(Lt(cond.rhs, cond.lhs), facts)
    raise TypeError(f"unknown condition node {cond!r}")


def simplify_bool(cond: BoolExpr, facts: Facts | None = None) -> BoolExpr:
    """Simplify a condition, folding decidable parts to constants."""
    facts = facts or EMPTY_FACTS
    verdict = decide(cond, facts)
    if verdict is not None:
        return BoolConst(verdict)
    if isinstance(cond, Not):
        inner = simplify_bool(cond.arg, facts)
        if isinstance(inner, BoolConst):
            return BoolConst(not inner.value)
        return Not(inner)
    if isinstance(cond, And):
        kept: list[BoolExpr] = []
        for arg in cond.args:
            sub = simplify_bool(arg, facts)
            if isinstance(sub, BoolConst):
                if not sub.value:
                    return BoolConst(False)
                continue
            kept.append(sub)
        if not kept:
            return BoolConst(True)
        if len(kept) == 1:
            return kept[0]
        return And(tuple(kept))
    if isinstance(cond, Or):
        kept = []
        for arg in cond.args:
            sub = simplify_bool(arg, facts)
            if isinstance(sub, BoolConst):
                if sub.value:
                    return BoolConst(True)
                continue
            kept.append(sub)
        if not kept:
            return BoolConst(False)
        if len(kept) == 1:
            return kept[0]
        return Or(tuple(kept))
    if isinstance(cond, (Eq, Ne, Le, Lt, Ge, Gt)):
        return type(cond)(_simplify(cond.lhs, facts), _simplify(cond.rhs, facts))
    return cond


def modular_inverse(a: int, m: int) -> int | None:
    """Inverse of ``a`` modulo ``m``, or None when gcd(a, m) != 1."""
    a %= m
    if gcd(a, m) != 1:
        return None
    return pow(a, -1, m)
