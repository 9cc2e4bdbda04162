"""One digest over everything the locality analyzer says about a corpus.

Covers every ``SOURCE*`` program in :mod:`repro.apps` plus a small
corpus of subscripts and bounds at the edge of the affine contract
(indirect, ``mod``, a product of loop variables, exact and inexact
``div``, a reversed bound, a scaled offset, a local scalar, a
non-affine call argument). Per source it hashes the candidates,
the JSON diagnostics report, and per statement the rendered references,
their abstention reasons and the rendered loop bounds.

A digest change is a change of the analyzer's output: derived maps,
message texts or reasons. ``python -m tests.analysis.test_locality_pin``
prints the current digest.
"""

import hashlib
import importlib
import json
import pkgutil

from repro.analysis import analyze, extract_references, render_json
from repro.analysis.access import Reference
from repro.core.compiler import default_entry
from repro.core.polymorphism import monomorphize
from repro.lang import check_program, parse_program

PIN = "39fb6165dee3eab0e6fe4187512a005bbc729c6935f631dadcbbacb9c4282fcc"

CORPUS = (
    """
    param N;
    const k = 3;
    map A by wrapped_cols;
    map B by wrapped_cols;
    procedure f(A: matrix) returns matrix {
        let B = matrix(N, N);
        for i = 1 to N {
            let x = i + 1;
            for j = 1 to N - i {
                B[i, j] = A[i mod 2, j] + A[i * j, j] + A[x, j]
                    + A[(i + 1) div 2, j] + A[(2 * i + 2) div 2, j]
                    + A[N - i, 3 * j - 2] + A[i, k];
            }
        }
        call g(A, B, N * N);
        return B;
    }
    procedure g(A: matrix, B: matrix, n: int) {
        for j = 1 to N {
            B[n, j] = A[j, n];
        }
    }
    """,
    """
    param N;
    map a by wrapped;
    map y by wrapped;
    procedure f(a: vector, idx: vector) returns vector {
        let y = vector(N);
        for i = 1 to N {
            y[i] = a[idx[i]] + a[i - 1];
        }
        return y;
    }
    """,
    """
    param N;
    map A by block_cols;
    procedure fill() returns matrix {
        let A = matrix(N, N);
        for j = 1 to N {
            for i = j to 2 * N - j by 2 {
                A[i, j] = A[i - 1, j + 1];
            }
        }
        return A;
    }
    """,
)


def _sources():
    import repro.apps

    for info in sorted(
        pkgutil.iter_modules(repro.apps.__path__), key=lambda m: m.name
    ):
        module = importlib.import_module(f"repro.apps.{info.name}")
        for name in sorted(vars(module)):
            value = getattr(module, name)
            if name.startswith("SOURCE") and isinstance(value, str):
                yield f"{info.name}.{name}", value
    for n, source in enumerate(CORPUS):
        yield f"corpus{n}", source


def _render(ref):
    if ref is None:
        return None
    return [ref.kind, ref.render(), list(ref.reasons), ref.line, ref.col]


def _bounds(loop) -> str:
    # Rendered through Reference.render, so the spelling is the one the
    # LOC002/LOC003 messages use, whatever type the bounds are held as.
    holder = Reference("", "read", (loop.lo, loop.hi), (None, None), 0, 0)
    return holder.render()


def _facts(source: str) -> dict:
    checked = check_program(monomorphize(parse_program(source)))
    entry = default_entry(checked)
    result = analyze(source)
    return {
        "candidates": [c.to_json() for c in result.candidates],
        "report": render_json(result.report),
        "statements": [
            [
                stmt.proc, stmt.line,
                [[l.var, _bounds(l), l.step, l.line] for l in stmt.loops],
                _render(stmt.write),
                [_render(r) for r in stmt.reads],
            ]
            for stmt in extract_references(checked, entry)
        ],
    }


def _digest() -> str:
    facts = {name: _facts(source) for name, source in _sources()}
    text = json.dumps(facts, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_locality_output_is_pinned():
    assert _digest() == PIN


if __name__ == "__main__":
    print(_digest())
