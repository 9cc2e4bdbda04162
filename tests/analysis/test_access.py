"""Affine access-function extraction: AST walk, rendering, round-trip.

The hypothesis suite is the load-bearing part: it generates loop nests
with *known* affine subscripts, renders them to mini-Id source, runs the
full parse -> check -> extract pipeline, and then compares each
extracted symbolic ``Expr`` against a brute-force concrete-enumeration
oracle — evaluating both the form and the original coefficients at
every point of a small iteration box. Extraction is correct iff the two
agree everywhere.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.access import extract_references, render
from repro.core.polymorphism import monomorphize
from repro.lang import check_program, parse_program
from repro.symbolic import Const, Var, simplify


def _checked(source: str):
    return check_program(monomorphize(parse_program(source)))


def test_render_spells_terms_by_name_then_the_constant():
    i, j = Var("i"), Var("j")
    assert render(simplify(2 * j - 5 - i)) == "-i + 2*j - 5"
    assert render(Const(0)) == "0"


class TestExtraction:
    def test_jacobi_stencil(self):
        from repro.apps import jacobi

        checked = _checked(jacobi.SOURCE_WRAPPED)
        stmts = extract_references(checked, "jacobi_step")
        stencil = [
            s for s in stmts
            if s.write is not None and len(s.loops) == 2
            and s.proc == "jacobi_step"
        ]
        assert len(stencil) == 1
        (stmt,) = stencil
        assert [l.var for l in stmt.loops] == ["j", "i"]
        assert stmt.write.array == "New"
        assert [str(s) for s in stmt.write.subs] == ["i", "j"]
        rendered = sorted(r.render() for r in stmt.reads)
        assert rendered == [
            "Old[i + 1, j]", "Old[i - 1, j]",
            "Old[i, j + 1]", "Old[i, j - 1]",
        ]

    def test_call_inlining_renames_arrays(self):
        """References inside ``copy_boundary(Old, New)`` surface under
        the caller's array names, inside the callee's own loops."""
        from repro.apps import jacobi

        checked = _checked(jacobi.SOURCE_WRAPPED)
        stmts = extract_references(checked, "jacobi_step")
        inlined = [s for s in stmts if s.proc == "copy_boundary"]
        assert inlined
        arrays = {
            ref.array
            for s in inlined
            for ref in s.reads + ((s.write,) if s.write else ())
        }
        assert arrays == {"Old", "New"}

    def test_non_affine_reasons(self):
        source = """
        param N;
        map A by wrapped_cols;
        map idx by wrapped;
        procedure f(A: matrix, idx: vector) returns matrix {
            let B = matrix(N, N);
            for i = 1 to N {
                for j = 1 to N {
                    B[i, j] = A[idx[i], j] + A[i mod 2, j] + A[i * j, j];
                }
            }
            return B;
        }
        """
        checked = _checked(source)
        stmts = extract_references(checked, "f")
        reads = [
            r for s in stmts for r in s.reads if r.array == "A"
        ]
        reasons = {r.reasons[0] for r in reads if not r.affine}
        assert any("indirect subscript" in r for r in reasons)
        assert any("modulo" in r for r in reasons)
        assert any("non-constant multiplier" in r for r in reasons)
        # The well-formed column subscript survives on every reference.
        assert all(str(r.subs[1]) == "j" for r in reads)

    def test_param_and_const_subscripts(self):
        source = """
        param N;
        const k = 3;
        map A by wrapped_cols;
        procedure f(A: matrix) returns matrix {
            let B = matrix(N, N);
            for i = 1 to N {
                B[i, N] = A[i, k];
            }
            return B;
        }
        """
        checked = _checked(source)
        stmts = extract_references(checked, "f")
        (stmt,) = [s for s in stmts if s.write is not None]
        assert str(stmt.write.subs[1]) == "N"
        assert stmt.reads[0].subs[1] == Const(3)

    def test_accum_target_is_a_write(self):
        from repro.apps import matmul

        checked = _checked(matmul.SOURCE)
        stmts = extract_references(checked, "matmul")
        writes = [s.write for s in stmts if s.write is not None]
        assert any(w.array == "C" and w.kind == "write" for w in writes)


# ---------------------------------------------------------------------------
# Hypothesis round-trip
# ---------------------------------------------------------------------------

_COEFF = st.integers(min_value=-3, max_value=3)


def _render(ci: int, cj: int, c0: int) -> str:
    """Affine subscript text for ``ci*i + cj*j + c0``, without relying
    on a canonical term order (the parser must normalize)."""
    parts = []
    for coeff, var in ((ci, "i"), (cj, "j")):
        if coeff == 0:
            continue
        mag = var if abs(coeff) == 1 else f"{abs(coeff)} * {var}"
        if not parts:
            parts.append(mag if coeff > 0 else f"-{mag}")
        else:
            parts.append(f"+ {mag}" if coeff > 0 else f"- {mag}")
    if c0 or not parts:
        if not parts:
            parts.append(str(c0))
        else:
            parts.append(f"+ {c0}" if c0 > 0 else f"- {abs(c0)}")
    return " ".join(parts)


@st.composite
def _nest_case(draw):
    """Coefficients for one write and one read, both 2-D affine."""
    return [
        tuple(draw(_COEFF) for _ in range(3)) for _ in range(4)
    ]  # (ci, cj, c0) x [write-row, write-col, read-row, read-col]


@given(case=_nest_case())
@settings(max_examples=60, deadline=None)
def test_roundtrip_against_concrete_enumeration(case):
    (wr, wc, rr, rc) = case
    source = f"""
    param N;
    map A by wrapped_cols;
    map B by wrapped_cols;
    procedure kernel(A: matrix) returns matrix {{
        let B = matrix(N, N);
        for i = 1 to N {{
            for j = 1 to N {{
                B[{_render(*wr)}, {_render(*wc)}] =
                    A[{_render(*rr)}, {_render(*rc)}] + 1;
            }}
        }}
        return B;
    }}
    """
    checked = _checked(source)
    stmts = extract_references(checked, "kernel")
    (stmt,) = [s for s in stmts if s.write is not None]
    assert stmt.write.affine and all(r.affine for r in stmt.reads)
    subs = list(stmt.write.subs) + list(stmt.reads[0].subs)
    # Brute force: every point of a small box must agree with the
    # drawn coefficients evaluated directly.
    for i in range(1, 5):
        for j in range(1, 5):
            env = {"i": i, "j": j}
            for form, (ci, cj, c0) in zip(subs, (wr, wc, rr, rc)):
                assert form.evaluate(env) == ci * i + cj * j + c0


@given(
    ci=st.integers(min_value=-2, max_value=2),
    cn=st.integers(min_value=-2, max_value=2),
    c0=st.integers(min_value=-4, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_with_param_symbol(ci, cn, c0):
    """Subscripts mixing a loop var and the ``N`` param round-trip; the
    oracle substitutes concrete values for both."""
    parts = [_render(ci, 0, 0) if ci else "", ""]
    term_n = (
        "" if cn == 0
        else f"{'+' if cn > 0 and ci else ''}"
             f"{'' if abs(cn) == 1 else str(abs(cn)) + ' * '}N"
        if cn > 0
        else f"- {'' if cn == -1 else str(abs(cn)) + ' * '}N"
    )
    expr = " ".join(p for p in (parts[0], term_n) if p)
    if not expr:
        expr = "0"
    if c0:
        expr += f" + {c0}" if c0 > 0 else f" - {abs(c0)}"
    source = f"""
    param N;
    map A by wrapped_cols;
    map B by wrapped_cols;
    procedure kernel(A: matrix) returns matrix {{
        let B = matrix(N, N);
        for i = 1 to N {{
            B[i, {expr}] = A[i, 1];
        }}
        return B;
    }}
    """
    checked = _checked(source)
    stmts = extract_references(checked, "kernel")
    (stmt,) = [s for s in stmts if s.write is not None]
    form = stmt.write.subs[1]
    assert form is not None
    for i in range(1, 4):
        for n in range(4, 7):
            assert form.evaluate({"i": i, "N": n}) == ci * i + cn * n + c0
