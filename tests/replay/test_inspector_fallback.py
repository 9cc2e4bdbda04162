"""Replay-backend abstention on inspector-strategy programs.

The skeleton extractor cannot replicate data-dependent communication,
so ``backend="replay"`` must fall back to the compiled simulator —
*cleanly*: a specific ``fallback_reason`` naming the indirect access,
one bump of the ``replay.fallback`` counter, and results bit-identical
to the interp backend. A replay run that silently produced wrong
numbers (or crashed) here would be a soundness bug.
"""

import pytest

from repro import perf
from repro.core.compiler import OptLevel, Strategy, compile_program
from repro.core.runner import execute
from tests.replay.conftest import assert_replayed

FALLBACK_REASON = (
    "rank 0: ModelError: indirect access: "
    "communication schedule depends on array data"
)


@pytest.fixture
def histogram_case():
    from repro.apps import histogram

    compiled = compile_program(
        histogram.SOURCE,
        entry=histogram.ENTRY,
        entry_shapes=histogram.ENTRY_SHAPES,
        strategy=Strategy.INSPECTOR,
        opt_level=OptLevel.NONE,
    )
    n, m = 24, 6
    expected = histogram.reference(n, m, histogram.generate(n, m))

    def run(backend):
        return execute(
            compiled, 2,
            inputs=histogram.make_inputs(n, m),
            params={"N": n, "M": m},
            backend=backend,
        )

    return run, expected


class TestReplayFallback:
    def test_falls_back_with_specific_reason(self, histogram_case):
        run, _ = histogram_case
        outcome = run("replay")
        assert outcome.spmd.backend == "compiled"
        assert outcome.spmd.fallback_reason == FALLBACK_REASON

    def test_fallback_counter_bumped_once(self, histogram_case):
        run, _ = histogram_case
        before = perf.counter("replay.fallback")
        run("replay")
        assert perf.counter("replay.fallback") == before + 1

    def test_fallback_results_bit_identical_to_interp(self, histogram_case):
        run, expected = histogram_case
        run("replay")  # warm the schedule cache so both runs compare warm
        replayed = run("replay")
        interp = run("interp")
        assert replayed.value.to_list() == expected
        assert interp.value.to_list() == expected
        assert replayed.makespan_us == interp.makespan_us
        assert replayed.total_messages == interp.total_messages

    def test_affine_strategy_does_not_fall_back(self):
        """The abstention is specific to indirect access: a regular
        program on the same backend still replays."""
        from repro.apps import gauss_seidel as gs

        compiled = compile_program(
            gs.SOURCE,
            strategy=Strategy.COMPILE_TIME,
            opt_level=OptLevel.VECTORIZE,
            entry_shapes={"Old": ("N", "N")},
            assume_nprocs_min=2,
        )
        from repro.spmd.layout import make_full

        outcome = execute(
            compiled, 2,
            inputs={"Old": make_full((8, 8), 1, name="Old")},
            params={"N": 8},
            extra_globals={"blksize": 4},
            backend="replay",
        )
        assert_replayed(outcome.spmd)
