"""Distribution (<map, local, alloc>) tests."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.distrib import (
    BlockCols,
    BlockCyclicCols,
    BlockCyclicRows,
    BlockGrid,
    BlockRows,
    BlockVector,
    WrappedCols,
    WrappedRows,
    WrappedVector,
    distribution_by_name,
)

ALL_2D = [
    WrappedCols(), WrappedRows(), BlockCols(), BlockRows(), BlockCyclicCols(3),
    BlockCyclicRows(2), BlockGrid(2),
]
ALL_1D = [WrappedVector(), BlockVector()]


class TestWrappedCols:
    """The paper's running decomposition."""

    def test_dealing_order(self):
        dist = WrappedCols()
        owners = [dist.owner((1, j), 4, (8, 8)) for j in range(1, 9)]
        assert owners == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_row_index_irrelevant(self):
        dist = WrappedCols()
        assert dist.owner((1, 5), 4, (8, 8)) == dist.owner((7, 5), 4, (8, 8))

    def test_local_columns_packed(self):
        dist = WrappedCols()
        # Processor 0 owns columns 1, 5 of an 8-column matrix (S=4):
        assert dist.local((3, 1), 4, (8, 8)) == (3, 1)
        assert dist.local((3, 5), 4, (8, 8)) == (3, 2)

    def test_alloc(self):
        assert WrappedCols().alloc_shape((8, 8), 4) == (8, 2)
        assert WrappedCols().alloc_shape((8, 7), 4) == (8, 2)  # ceil

    def test_single_processor_owns_everything(self):
        dist = WrappedCols()
        assert all(
            dist.owner((i, j), 1, (4, 4)) == 0
            for i in range(1, 5)
            for j in range(1, 5)
        )


class TestBlockCols:
    def test_contiguous_blocks(self):
        dist = BlockCols()
        owners = [dist.owner((1, j), 4, (8, 8)) for j in range(1, 9)]
        assert owners == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_local(self):
        dist = BlockCols()
        assert dist.local((2, 3), 4, (8, 8)) == (2, 1)
        assert dist.local((2, 4), 4, (8, 8)) == (2, 2)

    def test_uneven_split(self):
        dist = BlockCols()
        owners = [dist.owner((1, j), 3, (7, 7)) for j in range(1, 8)]
        # width = ceil(7/3) = 3 -> 3,3,1 split
        assert owners == [0, 0, 0, 1, 1, 1, 2]


class TestBlockCyclic:
    def test_block_dealing(self):
        dist = BlockCyclicCols(2)
        owners = [dist.owner((1, j), 2, (8, 8)) for j in range(1, 9)]
        assert owners == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_local_packing(self):
        dist = BlockCyclicCols(2)
        # proc 0 owns cols 1,2,5,6 -> local cols 1,2,3,4
        locals_ = [dist.local((1, j), 2, (8, 8))[1] for j in (1, 2, 5, 6)]
        assert locals_ == [1, 2, 3, 4]

    def test_bad_block_width(self):
        with pytest.raises(MappingError, match="positive"):
            BlockCyclicCols(0)


class TestVectors:
    def test_wrapped_vector(self):
        dist = WrappedVector()
        assert [dist.owner((i,), 3, (7,)) for i in range(1, 8)] == [
            0, 1, 2, 0, 1, 2, 0,
        ]

    def test_block_vector(self):
        dist = BlockVector()
        assert [dist.owner((i,), 3, (7,)) for i in range(1, 8)] == [
            0, 0, 0, 1, 1, 1, 2,
        ]

    def test_rank_checked(self):
        with pytest.raises(MappingError, match="indices"):
            WrappedVector().owner((1, 2), 3, (7,))


class TestRegistry:
    def test_lookup(self):
        dist = distribution_by_name("wrapped_cols", [])
        assert isinstance(dist, WrappedCols)

    def test_lookup_with_args(self):
        dist = distribution_by_name("block_cyclic_cols", [4])
        assert dist.block == 4

    def test_unknown_name(self):
        with pytest.raises(MappingError, match="unknown distribution"):
            distribution_by_name("zigzag", [])

    def test_wrong_args(self):
        with pytest.raises(MappingError, match="wrong arguments"):
            distribution_by_name("wrapped_cols", [1, 2])


# ---------------------------------------------------------------------------
# Properties every distribution must satisfy.
# ---------------------------------------------------------------------------

_shapes_2d = st.tuples(st.integers(1, 12), st.integers(1, 12))
_nprocs = st.integers(1, 6)


@pytest.mark.parametrize("dist", ALL_2D, ids=str)
@given(shape=_shapes_2d, nprocs=_nprocs)
def test_owner_in_range(dist, shape, nprocs):
    assume(nprocs >= (dist.q or 1))
    for i in range(1, shape[0] + 1):
        for j in range(1, shape[1] + 1):
            assert 0 <= dist.owner((i, j), nprocs, shape) < nprocs


@pytest.mark.parametrize("dist", ALL_2D, ids=str)
@given(shape=_shapes_2d, nprocs=_nprocs)
def test_local_fits_alloc(dist, shape, nprocs):
    assume(nprocs >= (dist.q or 1))
    alloc = dist.alloc_shape(shape, nprocs)
    for i in range(1, shape[0] + 1):
        for j in range(1, shape[1] + 1):
            local = dist.local((i, j), nprocs, shape)
            assert all(1 <= l <= a for l, a in zip(local, alloc))


@pytest.mark.parametrize("dist", ALL_2D, ids=str)
@given(shape=_shapes_2d, nprocs=_nprocs)
def test_owner_local_injective(dist, shape, nprocs):
    """(owner, local) uniquely identifies an element — no aliasing."""
    assume(nprocs >= (dist.q or 1))
    seen = {}
    for i in range(1, shape[0] + 1):
        for j in range(1, shape[1] + 1):
            key = (dist.owner((i, j), nprocs, shape),
                   dist.local((i, j), nprocs, shape))
            assert key not in seen, f"{(i, j)} aliases {seen[key]} at {key}"
            seen[key] = (i, j)


@pytest.mark.parametrize("dist", ALL_1D, ids=str)
@given(n=st.integers(1, 40), nprocs=_nprocs)
def test_vector_owner_local_injective(dist, n, nprocs):
    seen = {}
    alloc = dist.alloc_shape((n,), nprocs)
    for i in range(1, n + 1):
        owner = dist.owner((i,), nprocs, (n,))
        local = dist.local((i,), nprocs, (n,))
        assert 0 <= owner < nprocs
        assert 1 <= local[0] <= alloc[0]
        key = (owner, local)
        assert key not in seen
        seen[key] = i


@pytest.mark.parametrize("dist", ALL_2D + ALL_1D, ids=str)
@given(extents=_shapes_2d, nprocs=_nprocs)
def test_symbolic_concrete_agreement(dist, extents, nprocs):
    """The axis rules on ints (``tile``) give what the symbolic forms
    evaluate to (``owner`` / ``local`` / ``alloc_shape``)."""
    import itertools

    assume(nprocs >= (dist.q or 1))
    shape = extents[:dist.rank]
    alloc = dist.alloc_shape(shape, nprocs)
    for cell in itertools.product(*(range(1, n + 1) for n in shape)):
        assert dist.tile(cell, nprocs, shape) == (
            dist.owner(cell, nprocs, shape),
            dist.local(cell, nprocs, shape),
            alloc,
        )
