"""Solving mapping equations for loop variables.

Given a loop ``for v = lo to hi`` and a guard ``owner(v, ...) = p``, the
compile-time resolution pass asks which iterations satisfy the guard. "To
compute the required set of iterations for a given processor, we set the
equations in the evaluators equal to the processor name and solve for the
loop variable" (paper §3.2). :func:`solve_membership` implements exactly
that for the equation shapes the built-in distributions produce:

* affine:        ``a*v + b = p``            (single-owner placements)
* cyclic:        ``(a*v + b) mod S = p``    (wrapped rows/columns)
* block:         ``(v + b) div B = p``      (contiguous blocks)
* block-cyclic:  ``((v + b) div B) mod S = p``

Anything else yields ``None`` — the paper's *inconclusive* outcome, which
forces the caller to fall back to a run-time guard.
"""

from __future__ import annotations

from math import gcd

from repro import perf
from repro.symbolic.expr import Add, Const, Expr, FloorDiv, Max, Min, Mod, Mul
from repro.symbolic.ranges import (
    UNCONSTRAINED,
    BlockedRange,
    SolveResult,
    StridedRange,
)
from repro.symbolic.simplify import (
    Facts,
    as_affine,
    modular_inverse,
    prove_le,
    simplify,
)


def _split_var(
    terms: dict[Expr, int], var: str
) -> tuple[int, list[Expr], dict[Expr, int]]:
    """Split affine terms into (linear coefficient of var, opaque terms
    containing var, terms free of var)."""
    from repro.symbolic.expr import Var

    coeff = 0
    opaque: list[Expr] = []
    rest: dict[Expr, int] = {}
    for key, c in terms.items():
        if var in key.free_vars():
            if isinstance(key, Var) and key.name == var:
                coeff = c
            else:
                opaque.append(key)
        else:
            rest[key] = c
    return coeff, opaque, rest


def _rebuild(terms: dict[Expr, int], const: int) -> Expr:
    expr: Expr = Const(const)
    for key, c in terms.items():
        expr = Add((expr, Mul((Const(c), key))))
    return simplify(expr)


def solve_membership(
    target: Expr,
    rhs: Expr,
    var: str,
    lo: Expr,
    hi: Expr,
    facts: Facts | None = None,
) -> SolveResult:
    """Solve ``target = rhs`` for ``var`` ranging over ``lo..hi`` (step 1).

    ``rhs`` must not mention ``var``. The result describes the satisfying
    subset of the range, or UNCONSTRAINED when ``target`` does not mention
    ``var``, or None when the equation shape is out of scope (inconclusive).
    """
    facts = facts or Facts()
    return perf.memo(
        "solve", (target, rhs, var, lo, hi, facts.fingerprint()),
        lambda: _solve_membership_uncached(target, rhs, var, lo, hi, facts),
    )


perf.register_cache("solve", {})


def _solve_membership_uncached(
    target: Expr,
    rhs: Expr,
    var: str,
    lo: Expr,
    hi: Expr,
    facts: Facts,
) -> SolveResult:
    target = simplify(target, facts)
    rhs = simplify(rhs, facts)
    if var in rhs.free_vars():
        return None
    if var not in target.free_vars():
        return UNCONSTRAINED

    terms, const = as_affine(target, facts)
    coeff, opaque, rest = _split_var(terms, var)

    # Shape 1: affine in var (no opaque occurrences).
    if coeff != 0 and not opaque:
        return _solve_affine(coeff, rest, const, rhs, lo, hi)

    # Shape 2/3/4: exactly one opaque term containing var, coefficient 1,
    # and no linear occurrence of var outside it.
    if coeff == 0 and len(opaque) == 1 and terms[opaque[0]] == 1:
        key = opaque[0]
        outer_rhs = simplify(rhs - _rebuild(rest, const), facts)
        if isinstance(key, Mod):
            return _solve_mod(key, outer_rhs, var, lo, hi, facts)
        if isinstance(key, FloorDiv):
            return _solve_div(key, outer_rhs, var, lo, hi, facts)
    return None


def _solve_affine(
    coeff: int, rest: dict[Expr, int], const: int, rhs: Expr, lo: Expr, hi: Expr
) -> SolveResult:
    """Solve ``coeff*var + rest + const = rhs`` → a (possibly empty) point."""
    remainder = simplify(rhs - _rebuild(rest, const))
    if coeff in (1, -1):
        point = simplify(remainder * coeff)  # coeff == -1 negates
        first = simplify(Max((lo, point)))
        last = simplify(Min((hi, point)))
        return StridedRange(first, last, Const(1))
    if isinstance(remainder, Const):
        if remainder.value % coeff != 0:
            return StridedRange(Const(1), Const(0), Const(1))  # empty
        point = Const(remainder.value // coeff)
        return StridedRange(simplify(Max((lo, point))), simplify(Min((hi, point))), Const(1))
    return None


def _affine_in_var(e: Expr, var: str, facts: Facts) -> tuple[int, Expr] | None:
    """Decompose ``e`` as ``a*var + b`` where b does not mention var."""
    terms, const = as_affine(e, facts)
    coeff, opaque, rest = _split_var(terms, var)
    if coeff == 0 or opaque:
        return None
    offset = _rebuild(rest, const)
    return coeff, offset


def _solve_mod(
    key: Mod, rhs: Expr, var: str, lo: Expr, hi: Expr, facts: Facts
) -> SolveResult:
    """Solve ``(a*var + b) mod m = rhs`` over lo..hi."""
    modulus = key.den
    inner = key.num
    decomp = _affine_in_var(inner, var, facts)
    if decomp is not None:
        a, b = decomp
        return _solve_linear_congruence(a, b, modulus, rhs, var, lo, hi, facts)
    # Block-cyclic: inner is itself a floordiv of an affine expression.
    if isinstance(inner, FloorDiv):
        block = inner.den
        sub = _affine_in_var(inner.num, var, facts)
        if sub is None:
            return None
        a, b = sub
        if a != 1:
            return None
        # ((var + b) div B) mod m = rhs  →  t ≡ rhs (mod m) over block index t
        if not _positive(modulus, facts) or not _positive(block, facts):
            return None
        t_lo = simplify(FloorDiv(simplify(lo + b), block), facts)
        t_hi = simplify(FloorDiv(simplify(hi + b), block), facts)
        t_first = simplify(t_lo + Mod(simplify(rhs - t_lo), modulus), facts)
        return BlockedRange(
            t_first=t_first,
            t_last=t_hi,
            t_step=simplify(modulus),
            block=simplify(block),
            shift=simplify(b),
            lo=simplify(lo),
            hi=simplify(hi),
        )
    return None


def _positive(e: Expr, facts: Facts) -> bool:
    return prove_le(Const(1), e, facts)


def _solve_linear_congruence(
    a: int,
    b: Expr,
    modulus: Expr,
    rhs: Expr,
    var: str,
    lo: Expr,
    hi: Expr,
    facts: Facts,
) -> SolveResult:
    """Solve ``(a*var + b) mod m = rhs`` for var in lo..hi."""
    if not _positive(modulus, facts):
        return None
    if isinstance(modulus, Const):
        m = modulus.value
        g = gcd(a % m, m) if a % m else m
        if g == m:
            # a ≡ 0 (mod m): membership independent of var.
            return UNCONSTRAINED
        if g != 1:
            diff = simplify(rhs - b, facts)
            if isinstance(diff, Const):
                if diff.value % g != 0:
                    return StridedRange(Const(1), Const(0), Const(1))  # empty
                # Reduce to a' var ≡ d' (mod m/g) with gcd(a', m/g) = 1.
                a2, d2, m2 = a // g, diff.value // g, m // g
                inv = modular_inverse(a2, m2)
                if inv is None:
                    return None
                residue: Expr = Const((inv * d2) % m2)
                return _strided_from_residue(residue, Const(m2), lo, hi, facts)
            return None
        inv = modular_inverse(a, m)
        if inv is None:
            return None
        residue = simplify(Mod(simplify((rhs - b) * inv), modulus), facts)
        return _strided_from_residue(residue, modulus, lo, hi, facts)
    # Symbolic modulus: only coefficient ±1 is tractable.
    if a == 1:
        residue = simplify(Mod(simplify(rhs - b), modulus), facts)
        return _strided_from_residue(residue, modulus, lo, hi, facts)
    if a == -1:
        residue = simplify(Mod(simplify(b - rhs), modulus), facts)
        return _strided_from_residue(residue, modulus, lo, hi, facts)
    return None


def _strided_from_residue(
    residue: Expr, modulus: Expr, lo: Expr, hi: Expr, facts: Facts
) -> StridedRange:
    """Iterations ≥ lo congruent to residue (mod modulus), clamped to hi."""
    first = simplify(lo + Mod(simplify(residue - lo), modulus), facts)
    return StridedRange(
        first=first,
        last=simplify(hi, facts),
        step=simplify(modulus),
        residue=simplify(residue, facts),
        modulus=simplify(modulus, facts),
    )


def _solve_div(
    key: FloorDiv, rhs: Expr, var: str, lo: Expr, hi: Expr, facts: Facts
) -> SolveResult:
    """Solve ``(a*var + b) div B = rhs`` over lo..hi (block ownership)."""
    block = key.den
    if not _positive(block, facts):
        return None
    decomp = _affine_in_var(key.num, var, facts)
    if decomp is None:
        return None
    a, b = decomp
    if a != 1:
        return None
    # var + b in [rhs*B, rhs*B + B - 1]
    base = simplify(rhs * block - b)
    first = simplify(Max((lo, base)), facts)
    last = simplify(Min((hi, simplify(base + block - 1))), facts)
    return StridedRange(first=first, last=last, step=Const(1))
