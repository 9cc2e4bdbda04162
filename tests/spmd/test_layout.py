"""Tests for scatter/gather between global arrays and local parts."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.distrib import (
    BlockCols,
    BlockCyclicCols,
    BlockCyclicRows,
    BlockGrid,
    BlockRows,
    BlockVector,
    Distribution,
    WrappedCols,
    WrappedRows,
    WrappedVector,
)
from repro.distrib.base import ceil_div, whole
from repro.errors import MappingError
from repro.runtime import IStructure
from repro.spmd.layout import _cells, gather, make_full, scatter

DISTS = [
    WrappedCols(), WrappedRows(), BlockCols(), BlockRows(), BlockCyclicCols(2),
    BlockCyclicRows(3), BlockGrid(2), WrappedVector(), BlockVector(),
]


class TestMakeFull:
    def test_constant_fill(self):
        a = make_full((2, 3), 7)
        assert a.to_nested() == [[7, 7, 7], [7, 7, 7]]

    def test_callable_fill(self):
        a = make_full((2, 2), lambda i, j: 10 * i + j)
        assert a.to_nested() == [[11, 12], [21, 22]]

    def test_vector(self):
        v = make_full((3,), lambda i: i * i)
        assert v.to_list() == [1, 4, 9]


class TestRoundTrip:
    @pytest.mark.parametrize("dist", DISTS, ids=str)
    @given(
        rows=st.integers(1, 7),
        cols=st.integers(1, 7),
        nprocs=st.integers(1, 4),
    )
    def test_scatter_gather_identity(self, dist, rows, cols, nprocs):
        assume(nprocs >= (dist.q or 1))
        shape = (rows, cols)[:dist.rank]
        source = make_full(shape, lambda *cell: cell)
        parts = scatter(source, dist, nprocs)
        back = gather(parts, dist, nprocs, shape)
        assert back.to_nested() == source.to_nested()

    @pytest.mark.parametrize("dist", DISTS, ids=str)
    @given(
        rows=st.integers(0, 7),
        cols=st.integers(0, 7),
        nprocs=st.integers(1, 4),
        holes=st.integers(1, 5),
    )
    def test_scatter_matches_per_element_reference(
        self, dist, rows, cols, nprocs, holes
    ):
        """The per-axis plan puts every element where ``owner()`` and
        ``local()`` — the symbolic map, evaluated — say it lives."""
        assume(nprocs >= (dist.q or 1))
        shape = (rows, cols)[:dist.rank]
        source = IStructure(shape, name="src")
        reference = [
            IStructure(dist.alloc_shape(shape, nprocs), name="ref")
            for _ in range(nprocs)
        ]
        for cell in _cells(shape):
            if sum(cell) % holes:  # leave some elements undefined
                source.write(*cell, cell)
                reference[dist.owner(cell, nprocs, shape)].write(
                    *dist.local(cell, nprocs, shape), cell
                )
        parts = scatter(source, dist, nprocs)
        assert [p.to_list() for p in parts] == [
            r.to_list() for r in reference
        ]
        assert [p.defined_count for p in parts] == [
            r.defined_count for r in reference
        ]

    def test_partial_definition_preserved(self):
        source = IStructure((3, 3), name="partial")
        source.write(1, 1, 5)
        source.write(3, 2, 6)
        dist = WrappedCols()
        parts = scatter(source, dist, 2)
        back = gather(parts, dist, 2, (3, 3))
        assert back.is_defined(1, 1) and back.read(1, 1) == 5
        assert back.is_defined(3, 2) and back.read(3, 2) == 6
        assert back.defined_count == 2

    def test_vector_round_trip(self):
        dist = WrappedVector()
        source = make_full((9,), lambda i: -i)
        parts = scatter(source, dist, 4)
        back = gather(parts, dist, 4, (9,))
        assert back.to_list() == source.to_list()

    def test_scatter_wrong_rank(self):
        with pytest.raises(
            MappingError, match="wrapped expects 1 indices, got 2"
        ):
            scatter(make_full((2, 2), 1), WrappedVector(), 2)

    def test_gather_wrong_part_count(self):
        dist = WrappedCols()
        parts = scatter(make_full((2, 2), 1), dist, 2)
        with pytest.raises(MappingError, match="parts"):
            gather(parts, dist, 3, (2, 2))

    def test_parts_sized_by_alloc(self):
        dist = WrappedCols()
        parts = scatter(make_full((4, 6), 0), dist, 4)
        for part in parts:
            assert part.shape == dist.alloc_shape((4, 6), 4)


class TestTransferPlanPaths:
    """The cached transfer plan must agree with the per-element path and
    fall back to it whenever anything is irregular."""

    def test_plan_and_fallback_agree(self):
        # A subclassed source defeats the plan's exact-type guard, so
        # scatter takes the per-element path; results must match.
        class OddIStructure(IStructure):
            pass

        dist = WrappedCols()
        plain = make_full((4, 5), lambda i, j: 10 * i + j)
        odd = OddIStructure((4, 5), name="odd")
        for i in range(1, 5):
            for j in range(1, 6):
                odd.write(i, j, 10 * i + j)
        fast = scatter(plain, dist, 3)
        slow = scatter(odd, dist, 3)
        assert [p.to_list() for p in fast] == [p.to_list() for p in slow]

    def test_gather_falls_back_on_shape_mismatch(self):
        # Parts with an unexpected shape must not be mis-mapped by the
        # cached plan (whose offsets assume the alloc shape).
        dist = WrappedVector()
        source = make_full((6,), lambda i: i)
        parts = scatter(source, dist, 2)
        padded = []
        for part in parts:
            bigger = IStructure((part.shape[0] + 1,), name=part.name)
            for k in range(1, part.shape[0] + 1):
                if part.is_defined(k):
                    bigger.write(k, part.read(k))
            padded.append(bigger)
        back = gather(padded, dist, 2, (6,))
        assert back.to_list() == source.to_list()

    def test_hand_written_forms_take_the_per_element_path(self):
        # A distribution that writes its symbolic forms itself, with no
        # axis rules, is mapped by those forms.
        class Reversed(Distribution):
            name = "reversed"
            rank = 1

            def owner_expr(self, indices, nprocs, shape):
                return (shape[0] - indices[0]) % nprocs

            def local_expr(self, indices, nprocs, shape):
                return ((shape[0] - indices[0]) // nprocs + 1,)

            def alloc_shape_expr(self, shape, nprocs):
                return (ceil_div(shape[0], nprocs),)

        source = make_full((5,), lambda i: i)
        parts = scatter(source, Reversed(), 2)
        assert [p.to_list() for p in parts] == [[5, 3, 1], [4, 2, None]]
        back = gather(parts, Reversed(), 2, (5,))
        assert back.to_list() == source.to_list()

    def test_scatter_preserves_second_write_error(self):
        from repro.errors import IStructureError

        # Two global cells mapping to one local cell must still raise
        # the exact second-write error: the plan refuses the axis and
        # the per-element path writes.
        def piled(i, n, p, b):  # every index to processor 0, local 1
            return (i - 1) // n, (i - 1) // n + 1, ceil_div(n, n)

        class Piled(Distribution):
            name = "piled"
            axes = (whole, piled)

        with pytest.raises(IStructureError, match=r"second write .*\(1, 1\)"):
            scatter(make_full((2, 2), 7), Piled(), 2)
