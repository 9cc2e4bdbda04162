"""Tuning irregular programs: the predictor abstains, measurement decides.

The analytic model cannot rank inspector-strategy candidates — their
communication schedule depends on array contents the walk does not have
— so ``predict`` raises ``ModelError`` and the driver must keep the
candidate *feasible* (``Candidate.abstained`` set, not ``error``) and
confirm it on the real simulator.
"""

from repro.tune import tune
from repro.tune.space import DEFAULT_STRATEGIES, STRATEGIES

GATHER = """
param N;
map a by block;
map idx by block;
map y by block;
procedure f(a: vector, idx: vector) returns vector {
    let y = vector(N);
    for i = 1 to N {
        y[i] = a[idx[i]];
    }
    return y;
}
"""

SHAPES = {"a": ("N",), "idx": ("N",)}


def tune_gather(proc_counts, strategies, top_k=2):
    return tune(
        GATHER, 16, entry="f", proc_counts=proc_counts, dists=("block",),
        strategies=strategies, top_k=top_k, entry_shapes=SHAPES,
    )


class TestMeasuredFallback:
    def test_abstained_candidates_stay_feasible_and_get_measured(self):
        report = tune_gather((2, 4), ("inspector",))
        for cand in report.candidates:
            assert cand.feasible
            assert cand.error is None
            assert cand.abstained is not None
            assert "ModelError" in cand.abstained
            assert "indirect access" in cand.abstained
            assert cand.predicted is None
            assert cand.measured is not None  # confirmed by simulation
        assert report.simulations == 2

    def test_best_is_measured_best(self):
        report = tune_gather((2, 4), ("inspector",))
        assert report.best is not None
        assert report.best.measured_us == min(
            c.measured_us for c in report.confirmed
        )

    def test_non_inspector_strategy_on_irregular_code_is_infeasible(self):
        """The contrast case: a strategy that cannot compile the gather
        is *infeasible* with a CompileError, not silently dropped — and
        never simulated."""
        report = tune_gather((2,), ("runtime", "inspector"))
        by_strategy = {c.config.strategy: c for c in report.candidates}
        runtime = by_strategy["runtime"]
        assert not runtime.feasible
        assert runtime.error is not None and "CompileError" in runtime.error
        assert runtime.measured is None
        assert by_strategy["inspector"].measured is not None
        assert report.best is by_strategy["inspector"]


class TestDefaultSweep:
    def test_inspector_not_in_default_sweep(self):
        """Every strategy is *accepted*; the default tuning run sweeps
        only the ones that pay off on regular programs."""
        assert "inspector" in STRATEGIES
        assert "inspector" not in DEFAULT_STRATEGIES
