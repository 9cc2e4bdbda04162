"""Tests for the measurement harness, report formatting, and CLI."""

import pytest

from repro.bench import (
    STRATEGY_ORDER,
    MeasurePoint,
    format_series,
    format_table,
    measure,
    sweep_nprocs,
)
from repro.bench.cli import main
from repro.machine import MachineParams

FREE = MachineParams.free_messages()


class TestMeasure:
    def test_all_strategies_run_and_verify(self):
        for strategy in STRATEGY_ORDER:
            point = measure(strategy, 8, 2, blksize=2, machine=FREE)
            assert point.strategy == strategy
            assert point.time_us >= 0.0

    def test_verification_is_real(self):
        # measure() checks results against the oracle; a wrong grid must
        # raise, which we provoke with a corrupted source program.
        from repro.apps.gauss_seidel import SOURCE

        broken = SOURCE.replace("+ Old[i + 1, j]", "+ Old[i + 1, j] + 1")
        with pytest.raises(AssertionError, match="wrong grid"):
            measure("compile", 8, 2, machine=FREE, source=broken)

    def test_known_message_counts(self):
        assert measure("runtime", 10, 2, machine=FREE).messages == 128
        assert measure("optIII", 10, 2, blksize=8, machine=FREE).messages == 16

    def test_time_ms_property(self):
        point = MeasurePoint("x", 8, 2, 4, 1500.0, 3, 12)
        assert point.time_ms == 1.5

    def test_sweep_shape(self):
        series = sweep_nprocs(["handwritten"], 8, [1, 2], blksize=2, machine=FREE)
        assert list(series) == ["handwritten"]
        assert [p.nprocs for p in series["handwritten"]] == [1, 2]


class TestReport:
    def _series(self):
        return {
            "a": [
                MeasurePoint("a", 8, 2, 4, 1000.0, 5, 20),
                MeasurePoint("a", 8, 4, 4, 500.0, 5, 20),
            ],
            "b": [MeasurePoint("b", 8, 2, 4, 2000.0, 9, 36)],
        }

    def test_format_series_time(self):
        text = format_series(self._series(), "time_ms", "title")
        assert "title" in text
        assert "S=2" in text and "S=4" in text
        assert "1.0" in text and "0.5" in text

    def test_missing_points_dashed(self):
        text = format_series(self._series(), "messages")
        assert "-" in text.splitlines()[-1]

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="unknown value column"):
            format_series(self._series(), "zzz")

    def test_format_table(self):
        text = format_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], ["a", "b"], "T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "22" in text and "yy" in text


class TestCli:
    def test_help_exits(self):
        with pytest.raises(SystemExit):
            main(["--help"])


class TestUtilizationFractions:
    def test_fractions_recorded_and_bounded(self):
        point = measure("optIII", 10, 2, blksize=4)
        assert 0.0 <= point.comm_frac <= 1.0
        assert 0.0 <= point.idle_frac <= 1.0
        assert point.comm_frac + point.idle_frac <= 1.0 + 1e-9
        # iPSC/2 messaging costs dominate this problem size.
        assert point.comm_frac > 0.0

    def test_free_messages_have_no_comm_fraction(self):
        point = measure("handwritten", 8, 2, blksize=2, machine=FREE)
        assert point.comm_frac == 0.0

    def test_flat_fig6_curves_are_an_idle_story(self):
        # EXPERIMENTS.md §F6: unoptimized compile-time resolution barely
        # speeds up with more processors because added ranks mostly wait
        # on the serial wavefront — idle share must grow with S.
        small = measure("compile", 12, 2, blksize=4)
        large = measure("compile", 12, 4, blksize=4)
        assert large.idle_frac > small.idle_frac


class TestBackend:
    def test_backend_recorded_and_results_identical(self):
        interp = measure("optII", 8, 2, blksize=2, backend="interp")
        compiled = measure("optII", 8, 2, blksize=2, backend="compiled")
        assert interp.backend == "interp"
        assert compiled.backend == "compiled"
        assert (interp.time_us, interp.messages, interp.bytes) == (
            compiled.time_us, compiled.messages, compiled.bytes,
        )

    def test_sweep_passes_backend_through(self):
        series = sweep_nprocs(
            ["handwritten"], 8, [2], blksize=2, machine=FREE,
            backend="interp",
        )
        assert all(
            p.backend == "interp" for p in series["handwritten"]
        )
