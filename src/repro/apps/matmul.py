"""Matrix multiply: the compiler's inconclusive path, on purpose.

``C[i,j] = sum_k A[i,k] * B[k,j]`` accumulates into a scalar, which
breaks the single-assignment perfect-nest pattern the loop distributor
handles — so the compiler falls back to dynamic coerces, statement by
statement (the paper's "run-time resolution must be applied" outcome).
The result is correct under any decomposition; the traffic is awful,
which is exactly the lesson: owner-computes with a 1-D decomposition and
no analysis help is no match for a tuned kernel.
"""

from __future__ import annotations

SOURCE = """
-- C = A * B, all three wrapped by column; acc accumulates on the owner
-- of the C column being produced... approximated here by replication.
param N;

map A by wrapped_cols;
map B by wrapped_cols;
map C by wrapped_cols;
map acc on all;

procedure matmul(A: matrix, B: matrix) returns matrix {
    let C = matrix(N, N);
    for j = 1 to N {
        for i = 1 to N {
            let acc = 0;
            for k = 1 to N {
                acc = acc + A[i, k] * B[k, j];
            }
            C[i, j] = acc;
        }
    }
    return C;
}
"""

ENTRY = "matmul"

ENTRY_SHAPES = {"A": ("N", "N"), "B": ("N", "N")}


def reference_rows(n: int, a: list[list[int]], b: list[list[int]]):
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
