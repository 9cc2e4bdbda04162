"""Built-in distributions.

All distributions map onto a ring of ``S`` processors numbered ``0..S-1``
and use the source language's 1-based array indices. The paper's wrapped
columns — "wrap the columns of the matrix around a ring like a dealer
deals cards" — is :class:`WrappedCols`.
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.distrib.base import Distribution, block, block_cyclic, cyclic, whole


class WrappedCols(Distribution):
    """Cyclic (card-dealt) columns: column ``j`` lives on ``(j-1) mod S``.

    The paper's ``Column = <col-map, col-local, col-alloc>`` with
    ``col-map(i, j) = j mod s`` adjusted for 1-based indexing.
    """

    name = "wrapped_cols"
    axes = (whole, cyclic)


class WrappedRows(Distribution):
    """Cyclic rows: row ``i`` lives on ``(i-1) mod S``."""

    name = "wrapped_rows"
    axes = (cyclic, whole)


class BlockCols(Distribution):
    """Contiguous column blocks of width ``ceil(N2/S)``."""

    name = "block_cols"
    axes = (whole, block)


class BlockRows(Distribution):
    """Contiguous row blocks of height ``ceil(N1/S)``."""

    name = "block_rows"
    axes = (block, whole)


class BlockCyclicCols(Distribution):
    """Column blocks of a fixed width ``b``, dealt cyclically."""

    name = "block_cyclic_cols"
    axes = (whole, block_cyclic)
    arg = ("block", "block width")


class BlockCyclicRows(Distribution):
    """Row blocks of a fixed height ``b``, dealt cyclically.

    The row-axis twin of :class:`BlockCyclicCols`, completing the axis
    symmetry of the builtin registry (cyclic/block existed for both axes,
    block-cyclic only for columns)."""

    name = "block_cyclic_rows"
    axes = (block_cyclic, whole)
    arg = ("block", "block height")


class WrappedVector(Distribution):
    """Cyclic elements of a vector: element ``i`` on ``(i-1) mod S``."""

    name = "wrapped"
    axes = (cyclic,)


class BlockVector(Distribution):
    """Contiguous vector blocks of length ``ceil(N/S)``."""

    name = "block"
    axes = (block,)


class BlockGrid(Distribution):
    """2-D blocks on a Q x (S div Q) processor grid, linearized onto the
    ring: element (i, j) lives on ``rowblock * (S div Q) + colblock``.

    ``q`` is the number of processor rows; the ring needs at least ``q``
    processors, and ranks past ``q * (S div q)`` own nothing. The owner
    expression mixes two floor divisions, which is beyond the loop-bound
    solver — this distribution deliberately exercises the compiler's
    inconclusive fallback path.
    """

    name = "block_grid"
    axes = (block, block)
    arg = ("q", "grid rows")


# Registry used by ``map A by <name>`` declarations.
DISTRIBUTIONS: dict[str, type] = {
    "wrapped_cols": WrappedCols,
    "wrapped_rows": WrappedRows,
    "block_cols": BlockCols,
    "block_rows": BlockRows,
    "block_cyclic_cols": BlockCyclicCols,
    "block_cyclic_rows": BlockCyclicRows,
    "block_grid": BlockGrid,
    "wrapped": WrappedVector,
    "block": BlockVector,
}


# The 1-D layouts searched for each array rank, as ``(axis, layout,
# dist)`` rows: the tuner's default space is the matrix rows' ``dist``
# column, and the locality analyzer offers a program every row of its
# rank. ``block_grid`` is left out: the loop-bound solver solves its
# owner for one loop at a time, whose range then depends on the other
# axis's loop, so compile-time resolution of a grid nest falls back to
# the guarded loop and prices like the runtime strategy.
LAYOUTS: dict[int, tuple[tuple[str, str, str], ...]] = {
    2: (
        ("cols", "wrapped", "wrapped_cols"),
        ("rows", "wrapped", "wrapped_rows"),
        ("cols", "block", "block_cols"),
        ("rows", "block", "block_rows"),
        ("cols", "block_cyclic", "block_cyclic_cols(4)"),
        ("rows", "block_cyclic", "block_cyclic_rows(4)"),
    ),
    1: (
        ("elems", "wrapped", "wrapped"),
        ("elems", "block", "block"),
    ),
}


def distribution_by_name(name: str, args: list[int]) -> Distribution:
    """Instantiate a registered distribution from a ``map ... by`` clause."""
    cls = DISTRIBUTIONS.get(name)
    if cls is None:
        known = ", ".join(sorted(DISTRIBUTIONS))
        raise MappingError(f"unknown distribution {name!r} (known: {known})")
    try:
        return cls(*args)
    except TypeError:
        raise MappingError(
            f"wrong arguments for distribution {name!r}: {args!r}"
        ) from None
