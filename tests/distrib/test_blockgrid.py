"""Tests for the 2-D block-grid distribution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.compiler import Strategy, compile_program
from repro.core.runner import execute
from repro.errors import MappingError
from repro.distrib import BlockGrid
from repro.machine import MachineParams
from repro.spmd.layout import make_full

FREE = MachineParams.free_messages()


class TestMapping:
    def test_two_by_two_grid(self):
        d = BlockGrid(2)
        owners = [
            [d.owner((i, j), 4, (4, 4)) for j in range(1, 5)]
            for i in range(1, 5)
        ]
        assert owners == [
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [2, 2, 3, 3],
            [2, 2, 3, 3],
        ]

    def test_one_row_grid_degenerates_to_block_cols(self):
        from repro.distrib import BlockCols

        grid = BlockGrid(1)
        cols = BlockCols()
        for j in range(1, 9):
            assert grid.owner((1, j), 4, (8, 8)) == cols.owner((1, j), 4, (8, 8))

    def test_bad_rows(self):
        with pytest.raises(MappingError, match="positive"):
            BlockGrid(0)

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        q=st.integers(1, 3),
        pcols=st.integers(1, 3),
    )
    def test_owner_local_injective(self, rows, cols, q, pcols):
        nprocs = q * pcols
        d = BlockGrid(q)
        seen = {}
        alloc = d.alloc_shape((rows, cols), nprocs)
        for i in range(1, rows + 1):
            for j in range(1, cols + 1):
                owner = d.owner((i, j), nprocs, (rows, cols))
                local = d.local((i, j), nprocs, (rows, cols))
                assert 0 <= owner < nprocs
                assert all(1 <= l <= a for l, a in zip(local, alloc))
                key = (owner, local)
                assert key not in seen
                seen[key] = (i, j)


class TestCompilation:
    SOURCE = """
    param N;
    const c = 1;
    map Old by block_grid(2);
    map New by block_grid(2);
    procedure step(Old: matrix) returns matrix {
        let New = matrix(N, N);
        call edges(Old, New);
        for j = 2 to N - 1 {
            for i = 2 to N - 1 {
                New[i, j] = c * (Old[i - 1, j] + Old[i, j - 1]
                                 + Old[i + 1, j] + Old[i, j + 1]);
            }
        }
        return New;
    }
    procedure edges(Old: matrix, New: matrix) {
        for i = 1 to N { New[i, 1] = Old[i, 1]; New[i, N] = Old[i, N]; }
        for j = 2 to N - 1 { New[1, j] = Old[1, j]; New[N, j] = Old[N, j]; }
    }
    """

    def _expected(self, n):
        from repro.apps.jacobi import reference_rows

        old = [[(i + 1) * 5 + (j + 1) for j in range(n)] for i in range(n)]
        return reference_rows(n, old)

    @pytest.mark.parametrize("nprocs", [2, 3, 4])
    def test_jacobi_on_grid(self, nprocs):
        # At S=3 the grid is 2 x 1 and rank 2 owns nothing.
        compiled = compile_program(
            self.SOURCE,
            strategy=Strategy.COMPILE_TIME,
            entry="step",
            entry_shapes={"Old": ("N", "N")},
        )
        n = 8
        old = make_full((n, n), lambda i, j: i * 5 + j, name="Old")
        out = execute(
            compiled, nprocs, inputs={"Old": old}, params={"N": n}, machine=FREE
        )
        assert out.value.to_nested() == self._expected(n)

    @pytest.mark.parametrize("backend", ["compiled", "replay"])
    def test_ring_smaller_than_grid_is_a_mapping_error(self, backend):
        compiled = compile_program(
            self.SOURCE,
            strategy=Strategy.COMPILE_TIME,
            entry="step",
            entry_shapes={"Old": ("N", "N")},
        )
        old = make_full((8, 8), 1, name="Old")
        with pytest.raises(MappingError, match=r"block_grid\(2\).* ring of 1"):
            execute(compiled, 1, inputs={"Old": old}, params={"N": 8},
                    backend=backend)

    def test_ring_smaller_than_grid_without_input_arrays(self):
        from repro.apps.triangular import SOURCE
        from repro.tune.space import retarget_source

        compiled = compile_program(
            retarget_source(SOURCE, "block_grid(2)"), entry="fill"
        )
        with pytest.raises(MappingError, match=r"block_grid\(2\).* ring of 1"):
            execute(compiled, 1, params={"N": 8})

    def test_falls_back_but_is_inconclusive_not_wrong(self):
        from repro.spmd import pretty_program

        compiled = compile_program(
            self.SOURCE,
            strategy=Strategy.COMPILE_TIME,
            entry="step",
            entry_shapes={"Old": ("N", "N")},
        )
        # The two-floordiv owner expression defeats the solver: dynamic
        # coerces remain (the documented inconclusive path).
        assert "coerce(" in pretty_program(compiled.program)


class TestGridUnderCompileTimeResolution:
    """Compile-time resolution must not split a loop on a range whose
    bounds mention a variable bound inside it: a grid owner solved for
    one loop alone (``block_grid(1)`` always; ``block_grid(2)`` once
    ``S >= 2`` may be assumed) gives such a range, which would leave the
    inner loop's variable unbound in the node program. Such nests take
    the guarded fallback, whose values are the sequential program's."""

    N = 8

    @staticmethod
    def _inputs(arrays, n):
        return {a: make_full((n, n), lambda i, j: i * 5 + j, name=a)
                for a in arrays}

    @pytest.mark.parametrize("app", ["gauss_seidel", "jacobi", "triangular"])
    @pytest.mark.parametrize("dist, assume", [
        ("block_grid(1)", 1), ("block_grid(1)", 2), ("block_grid(2)", 2),
    ])
    @pytest.mark.parametrize("strategy", ["compile", "optI", "optII",
                                          "optIII"])
    def test_values_equal_the_sequential_program(self, app, dist, assume,
                                                 strategy):
        from repro.errors import DeadlockError
        from repro.lang import check_program, parse_program, run_sequential
        from repro.tune.space import STRATEGIES, retarget_source
        from tests.spmd.test_compiled_rows import APPS, JAMMED

        source, entry, arrays = APPS[app]
        source = retarget_source(source, dist)
        n = self.N
        expected = run_sequential(
            check_program(parse_program(source)), entry,
            args=list(self._inputs(arrays, n).values()), params={"N": n},
        ).value.to_nested()
        strat, opt_level = STRATEGIES[strategy]
        compiled = compile_program(
            source, entry=entry, strategy=strat, opt_level=opt_level,
            entry_shapes={a: ("N", "N") for a in arrays} or None,
            assume_nprocs_min=assume,
        )
        for nprocs in (2, 3, 4, 16):
            for backend in ("compiled", "interp"):
                run = lambda: execute(  # noqa: E731
                    compiled, nprocs, inputs=self._inputs(arrays, n),
                    params={"N": n}, extra_globals={"blksize": 4},
                    machine=FREE, backend=backend,
                )
                try:
                    value = run().value
                except DeadlockError:
                    # Loop jamming assumes the wavefront dependence,
                    # which jacobi does not have.
                    assert (app, strategy) in JAMMED
                    continue
                assert value.to_nested() == expected, (nprocs, backend)
