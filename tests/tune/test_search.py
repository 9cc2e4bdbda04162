"""Search driver behavior: ranking, pruning, infeasible capture, caches.

The correctness of the *numbers* is covered by tests/tune/test_model.py;
here we check the driver's economics (it must simulate far fewer
configurations than it ranks) and bookkeeping."""

import pytest

from repro import perf
from repro.apps import gauss_seidel as gs
from repro.apps import jacobi
from repro.errors import TuneError
from repro.tune import (
    TuneConfig,
    default_space,
    retarget_source,
    spearman,
    tune,
)


def small_axes(strategies=("runtime", "compile", "optI", "optIII")):
    return dict(
        proc_counts=(2, 4),
        dists=("wrapped_cols", "wrapped_rows", "block_cols"),
        strategies=strategies,
        blksizes=(2, 4),
    )


class TestTune:
    def test_prunes_and_ranks(self):
        axes = small_axes()
        report = tune(
            gs.SOURCE, 10, **axes, top_k=3, oracle=gs.reference_rows
        )
        assert report.space_size == len(default_space(**axes))
        # The whole point: far fewer simulations than configurations.
        assert report.simulations <= 3 < report.space_size
        assert report.best is not None
        assert report.best.measured is not None
        # The best candidate is measured-best among everything confirmed.
        assert report.best.measured_us == min(
            c.measured_us for c in report.confirmed
        )
        # Feasible candidates come first, sorted by predicted makespan.
        predicted = [
            c.predicted_us for c in report.candidates if c.feasible
        ]
        assert predicted == sorted(predicted)
        # The model is exact, so prediction == measurement on this machine.
        for cand in report.confirmed:
            assert cand.predicted_us == cand.measured_us
        assert report.spearman == 1.0

    def test_chosen_spec_names_the_distribution(self):
        report = tune(gs.SOURCE, 8, **small_axes(), top_k=1)
        spec = report.chosen_spec
        assert spec is not None
        assert spec.distributions["Old"].name == report.best.config.dist

    def test_infeasible_candidates_keep_their_error(self):
        # jacobi under loop jamming genuinely deadlocks: it must be
        # reported, not crash the search.
        report = tune(
            jacobi.SOURCE_WRAPPED, 8, entry="jacobi_step", proc_counts=(2,),
            dists=("wrapped_cols", "block_grid(2)"),
            strategies=("compile", "optII"), top_k=2,
        )
        infeasible = [c for c in report.candidates if not c.feasible]
        assert infeasible
        assert all(c.error for c in infeasible)
        assert all(c.measured is None for c in infeasible)
        # Infeasible candidates sort after every feasible one.
        flags = [c.feasible for c in report.candidates]
        assert flags == sorted(flags, reverse=True)
        assert report.best is not None
        assert report.best.config.strategy == "compile"

    @pytest.mark.parametrize(
        "axis", ["proc_counts", "dists", "strategies", "blksizes"]
    )
    def test_empty_axis_rejected(self, axis):
        """An empty axis is an error, not a request for the default."""
        with pytest.raises(TuneError, match=f"empty search space: no {axis}"):
            tune(gs.SOURCE, 8, **{axis: ()})

    def test_measurements_are_memoized(self):
        axes = small_axes(strategies=("compile", "optI"))
        first = tune(gs.SOURCE, 9, **axes, top_k=2)
        assert first.simulations > 0
        again = tune(gs.SOURCE, 9, **axes, top_k=2)
        assert again.simulations == 0
        assert again.best.config == first.best.config
        assert again.best.measured_us == first.best.measured_us

    def test_parallel_confirmation_matches_serial(self):
        axes = small_axes(strategies=("compile", "optIII"))
        results = {}
        for jobs in (1, 2):
            perf.reset(clear_cache_tables=True)  # drop tune_measure
            report = tune(gs.SOURCE, 10, **axes, top_k=3, jobs=jobs)
            results[jobs] = [
                (c.config, c.measured_us) for c in report.confirmed
            ]
            assert report.simulations == 3
        assert results[1] == results[2]

    def test_worker_counters_merged(self):
        # Only confirmation compiles the SPMD closures, so with jobs=2
        # the parent sees that work only through the workers' merged
        # snapshots.
        counts = {}
        for jobs in (1, 2):
            perf.reset(clear_cache_tables=True)
            tune(gs.SOURCE, 8, proc_counts=(2,), top_k=2, jobs=jobs)
            counts[jobs] = {
                name: value
                for name, value in perf.snapshot()["counters"].items()
                if name.startswith("spmd_compile.")
            }
        assert counts[1]
        assert counts[2] == counts[1]


class TestSpace:
    def test_retarget_rewrites_every_map(self):
        out = retarget_source(gs.SOURCE, "block_cyclic_rows(4)")
        assert "wrapped_cols" not in out
        assert out.count("block_cyclic_rows(4)") == 2

    def test_retarget_rejects_junk(self):
        with pytest.raises(TuneError, match="unknown distribution"):
            retarget_source(gs.SOURCE, "no_such_dist")
        with pytest.raises(TuneError, match="malformed"):
            retarget_source(gs.SOURCE, "block(")

    def test_config_validation(self):
        with pytest.raises(TuneError, match="unknown strategy"):
            TuneConfig("wrapped_cols", "optIX", 4)
        with pytest.raises(TuneError, match="nprocs"):
            TuneConfig("wrapped_cols", "optI", 0)
        with pytest.raises(TuneError, match="blksize"):
            TuneConfig("wrapped_cols", "optIII", 4, 0)
        with pytest.raises(TuneError, match="unknown distribution"):
            TuneConfig("bogus", "optI", 4)

    def test_blksize_only_swept_for_optIII(self):
        space = default_space(
            (2, 4), dists=("wrapped_cols",),
            strategies=("compile", "optIII"), blksizes=(2, 4, 8),
        )
        by_strategy = {}
        for config in space:
            by_strategy.setdefault(config.strategy, []).append(config)
        assert len(by_strategy["compile"]) == 2  # one per ring size
        assert len(by_strategy["optIII"]) == 6  # ring sizes x blksizes


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_perfect_disagreement(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_ties_use_average_ranks(self):
        assert spearman([1, 2, 2, 3], [1, 2, 2, 3]) == 1.0

    def test_degenerate_constant_series(self):
        assert spearman([5, 5, 5], [1, 2, 3]) == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spearman([1], [1])
        with pytest.raises(ValueError):
            spearman([1, 2], [1])
