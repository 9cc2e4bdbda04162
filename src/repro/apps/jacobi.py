"""Jacobi relaxation: the all-old-operand stencil.

Unlike Gauss-Seidel, every operand reads the *previous* iterate, so there
is no wavefront: once each processor holds its neighbours' ``Old``
columns, all columns compute independently — the "matrix algorithms"
class the paper's introduction motivates. Offered under both cyclic and
block column mappings, which trade message count against surface area:
with block columns only the block edges communicate.
"""

from __future__ import annotations

SOURCE_WRAPPED = """
-- Jacobi step with wrapped (cyclic) columns.
param N;
const c = 1;

map Old by wrapped_cols;
map New by wrapped_cols;
map c on all;

procedure jacobi_step(Old: matrix) returns matrix {
    let New = matrix(N, N);
    call copy_boundary(Old, New);
    for j = 2 to N - 1 {
        for i = 2 to N - 1 {
            New[i, j] = c * (Old[i - 1, j] + Old[i, j - 1]
                             + Old[i + 1, j] + Old[i, j + 1]);
        }
    }
    return New;
}

procedure copy_boundary(Old: matrix, New: matrix) {
    for i = 1 to N {
        New[i, 1] = Old[i, 1];
        New[i, N] = Old[i, N];
    }
    for j = 2 to N - 1 {
        New[1, j] = Old[1, j];
        New[N, j] = Old[N, j];
    }
}
"""

ENTRY = "jacobi_step"

ENTRY_SHAPES = {"Old": ("N", "N")}

SOURCE_BLOCK = SOURCE_WRAPPED.replace("wrapped_cols", "block_cols")
SOURCE_ROWS = SOURCE_WRAPPED.replace("wrapped_cols", "wrapped_rows")


def reference_rows(n: int, old: list[list[int]], c: int = 1):
    """Sequential oracle, 0-based nested rows."""
    new: list[list[int | None]] = [[None] * n for _ in range(n)]
    for k in range(n):
        new[k][0] = old[k][0]
        new[k][n - 1] = old[k][n - 1]
        new[0][k] = old[0][k]
        new[n - 1][k] = old[n - 1][k]
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            new[i][j] = c * (
                old[i - 1][j] + old[i][j - 1] + old[i + 1][j] + old[i][j + 1]
            )
    return new
