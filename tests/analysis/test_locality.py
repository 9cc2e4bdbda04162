"""Static locality analyzer: candidate maps, diagnostics, opt-in pass.

The analyzer does not rank: every program gets the whole layout family
of its array rank, in table order, each candidate carrying its axis's
findings as rationale — jacobi's nearest-neighbour offsets, the
Gauss-Seidel wavefront, the triangular fill's imbalance, matmul's
unaligned operands. The cost model orders them (``bench maps``,
``tune``).
"""

import pytest

from repro.analysis import Severity, analyze, verify_compiled
from repro.core.compiler import (
    OptLevel,
    Strategy,
    compile_program,
)
from repro.errors import CompileError
from repro.tune.space import DEFAULT_DISTS


def _rationales(result) -> dict[str, str]:
    return {c.dist: c.rationale for c in result.candidates}


class TestDerivedMaps:
    def test_candidates_are_the_matrix_family_in_table_order(self):
        from repro.apps import jacobi

        result = analyze(jacobi.SOURCE_WRAPPED, entry="jacobi_step")
        assert result.array_rank == 2
        assert result.dists == DEFAULT_DISTS
        assert [(c.axis, c.layout) for c in result.candidates] == [
            ("cols", "wrapped"), ("rows", "wrapped"),
            ("cols", "block"), ("rows", "block"),
            ("cols", "block_cyclic"), ("rows", "block_cyclic"),
        ]
        assert not any(
            key in result.candidates[0].to_json()
            for key in ("score", "rank")
        )

    def test_jacobi_rationale_names_the_offsets(self):
        from repro.apps import jacobi

        result = analyze(jacobi.SOURCE_WRAPPED, entry="jacobi_step")
        why = _rationales(result)
        assert why["block_cols"] == "axis cols: residual offset -1, offset 1"
        assert why["block_rows"] == "axis rows: residual offset -1, offset 1"
        # One rationale per axis, whatever the layout.
        assert why["wrapped_cols"] == why["block_cyclic_cols(4)"]

    def test_gauss_seidel_keeps_the_block_layouts(self):
        from repro.apps import gauss_seidel

        result = analyze(gauss_seidel.SOURCE)
        assert {"block_rows", "block_cols", "wrapped_cols"} <= set(
            result.dists
        )
        assert _rationales(result)["block_rows"] == (
            "axis rows: residual offset -1 (wavefront), offset 1"
        )

    def test_matmul_every_axis_unaligned(self):
        from repro.apps import matmul

        result = analyze(matmul.SOURCE)
        assert "wrapped_cols" in result.dists
        assert {c.rationale.split(": ", 1)[1] for c in result.candidates} == {
            "residual unaligned"
        }

    def test_triangular_communication_free_but_imbalanced(self):
        from repro.apps import triangular

        result = analyze(triangular.SOURCE)
        assert "block_cols" in result.dists
        for cand in result.candidates:
            assert cand.rationale == (
                f"axis {cand.axis}: triangular nest at line 10"
            )
        imbalance = result.report.by_code("LOC004")
        assert imbalance
        assert {d.severity for d in imbalance} == {Severity.INFO}

    def test_aligned_program_is_communication_free(self):
        source = """
        param N;
        map A by wrapped_cols;
        map B by wrapped_cols;
        procedure f(A: matrix) returns matrix {
            let B = matrix(N, N);
            for j = 1 to N {
                for i = 1 to N {
                    B[i, j] = A[i, j];
                }
            }
            return B;
        }
        """
        result = analyze(source, entry="f")
        assert set(_rationales(result).values()) == {
            "axis cols: communication-free alignment",
            "axis rows: communication-free alignment",
        }

    def test_loc001_names_dist_and_rationale_only(self):
        from repro.apps import jacobi

        result = analyze(jacobi.SOURCE_WRAPPED, entry="jacobi_step")
        announced = result.report.by_code("LOC001")
        assert [d.message for d in announced] == [
            f"candidate map: {c.dist} — {c.rationale}"
            for c in result.candidates
        ]
        for diag in announced:
            assert "position" not in diag.details
            assert "score" not in diag.details

    def test_loc002_names_the_forcing_pair(self):
        from repro.apps import jacobi

        result = analyze(jacobi.SOURCE_WRAPPED, entry="jacobi_step")
        residuals = result.report.by_code("LOC002")
        assert residuals
        msgs = " ".join(d.message for d in residuals)
        assert "New[i, j]" in msgs
        assert "Old[i - 1, j]" in msgs
        assert "constant offset" in msgs

    def test_candidates_and_report(self):
        from repro.apps import gauss_seidel

        result = analyze(gauss_seidel.SOURCE)
        assert [c.dist for c in result.candidates] == list(result.dists)
        assert "LOC001" in {d.code for d in result.report.diagnostics}

    def test_analysis_is_deterministic(self):
        from repro.apps import jacobi

        a = analyze(jacobi.SOURCE_WRAPPED, entry="jacobi_step")
        b = analyze(jacobi.SOURCE_WRAPPED, entry="jacobi_step")
        assert [c.to_json() for c in a.candidates] == [
            c.to_json() for c in b.candidates
        ]


class TestAbstention:
    def test_no_distributed_arrays(self):
        source = """
        param N;
        procedure f() returns int {
            return N;
        }
        """
        result = analyze(source, entry="f")
        assert result.candidates == []
        assert result.array_rank is None
        assert result.report.by_code("LOC003")

    def test_mixed_rank_abstains(self):
        source = """
        param N;
        map A by wrapped_cols;
        map x by wrapped;
        procedure f(A: matrix, x: vector) returns matrix {
            let B = matrix(N, N);
            for i = 1 to N {
                for j = 1 to N {
                    B[i, j] = A[i, j] + x[i];
                }
            }
            return B;
        }
        """
        result = analyze(source, entry="f")
        assert result.candidates == []
        (diag,) = result.report.by_code("LOC003")
        assert "mixed rank" in diag.message

    def test_vector_programs_get_vector_dists(self):
        source = """
        param N;
        map x by wrapped;
        map y by wrapped;
        procedure f(x: vector) returns vector {
            let y = vector(N);
            for i = 2 to N {
                y[i] = x[i - 1];
            }
            return y;
        }
        """
        result = analyze(source, entry="f")
        assert result.array_rank == 1
        assert result.dists == ("wrapped", "block")

    def test_indirect_reference_reported_not_fatal(self):
        source = """
        param N;
        map A by wrapped_cols;
        map B by wrapped_cols;
        map idx on all;
        procedure f(A: matrix, idx: vector) returns matrix {
            let B = matrix(N, N);
            for i = 1 to N {
                for j = 1 to N {
                    B[i, j] = A[idx[i], j];
                }
            }
            return B;
        }
        """
        result = analyze(source, entry="f")
        assert result.abstained >= 1
        diags = result.report.by_code("LOC003")
        assert any("indirect subscript" in d.message for d in diags)
        # Abstention is per-reference: candidates still derive from the
        # aligned B[i, j] write, and say what was left out.
        assert result.candidates
        assert all(
            "1 reference(s) abstained" in c.rationale
            for c in result.candidates
        )


class TestOptInPass:
    def _compiled(self):
        from repro.apps import gauss_seidel as gs

        return compile_program(
            gs.SOURCE,
            strategy=Strategy.COMPILE_TIME,
            opt_level=OptLevel.NONE,
            entry_shapes={"Old": ("N", "N")},
            assume_nprocs_min=2,
        )

    def test_default_verify_stays_silent(self):
        report = verify_compiled(self._compiled(), 4, params={"N": 12})
        assert not any(
            d.code.startswith("LOC") for d in report.diagnostics
        )

    def test_extra_passes_opts_in(self):
        report = verify_compiled(
            self._compiled(), 4, params={"N": 12},
            extra_passes=("locality",),
        )
        codes = {d.code for d in report.diagnostics}
        assert "LOC001" in codes
        assert not report.has_errors

    def test_unknown_extra_pass_rejected(self):
        with pytest.raises(CompileError, match="unknown analysis pass"):
            verify_compiled(
                self._compiled(), 4, params={"N": 12},
                extra_passes=("no-such-pass",),
            )


class TestCellLimitEnv:
    """Satellite: the footprint cell-set threshold honours
    REPRO_ANALYSIS_CELLSET_MAX per Tracker, without module reloads."""

    def test_default(self, monkeypatch):
        from repro.analysis.footprint import CELL_LIMIT, Tracker, cell_limit

        monkeypatch.delenv("REPRO_ANALYSIS_CELLSET_MAX", raising=False)
        assert cell_limit() == CELL_LIMIT
        tracker = Tracker("A", (8, 8), rank=0)
        assert tracker._written is not None  # materialized fast path

    def test_env_override_forces_symbolic_path(self, monkeypatch):
        from repro.analysis.footprint import Tracker, cell_limit

        monkeypatch.setenv("REPRO_ANALYSIS_CELLSET_MAX", "16")
        assert cell_limit() == 16
        small = Tracker("A", (4, 4), rank=0)
        large = Tracker("B", (5, 5), rank=0)
        assert small._written is not None
        assert large._written is None  # symbolic progression algebra

    def test_junk_value_falls_back(self, monkeypatch):
        from repro.analysis.footprint import CELL_LIMIT, cell_limit

        monkeypatch.setenv("REPRO_ANALYSIS_CELLSET_MAX", "not-a-number")
        assert cell_limit() == CELL_LIMIT

    def test_isolated_per_tracker(self, monkeypatch):
        """Flipping the env between constructions changes behaviour —
        proof the limit is read per Tracker, not captured at import."""
        from repro.analysis.footprint import Tracker

        monkeypatch.setenv("REPRO_ANALYSIS_CELLSET_MAX", "0")
        symbolic = Tracker("A", (4, 4), rank=0)
        monkeypatch.delenv("REPRO_ANALYSIS_CELLSET_MAX")
        materialized = Tracker("A", (4, 4), rank=0)
        assert symbolic._written is None
        assert materialized._written is not None
