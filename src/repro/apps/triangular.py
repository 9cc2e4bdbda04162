"""A skewed workload for the load-balancing study (§5.4).

Column ``j`` costs O(j) work (a triangular iteration space), so a block
decomposition concentrates work on the highest-numbered processor. The
experiment runs more processes than processors and compares placements:
blocked processes placed blockwise (worst), dealt round-robin, and
repacked by the paper's move-the-process-with-its-data balancer from
observed loads.
"""

from __future__ import annotations

# Triangular fill: column j writes j elements. The entry allocates its
# own matrix, so it takes no parameter.
SOURCE = """
param N;

map A by block_cols;

procedure fill() returns matrix {
    let A = matrix(N, N);
    for j = 1 to N {
        for i = 1 to j {
            A[i, j] = i * 1000 + j;
        }
    }
    return A;
}
"""

ENTRY = "fill"

ENTRY_SHAPES: dict[str, tuple] = {}


def reference_cells(n: int) -> dict[tuple[int, int], int]:
    """Expected defined cells (1-based)."""
    return {
        (i, j): i * 1000 + j
        for j in range(1, n + 1)
        for i in range(1, j + 1)
    }
