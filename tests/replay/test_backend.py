"""Backend-selection behavior: fallback policy, caching, CLI plumbing.

Replay is an opportunistic fast path: anything it cannot model falls
back to the compiled backend *per run*, with the reason recorded on the
result — never silently diverging, never erroring where compiled would
succeed. The one deliberate exception is a missing numpy, which raises
an actionable ReproError instead of quietly running every "replay"
request on the slow path forever.
"""

import pytest

pytest.importorskip("numpy")

from repro import perf
from repro.apps import gauss_seidel as gs
from repro.core.compiler import Strategy, compile_program_cached
from repro.core.runner import execute
from repro.errors import ReproError, SimulationError
from repro.spmd.interp import _replay_unsupported, run_spmd
from repro.spmd.layout import make_full, scatter
from tests.replay.conftest import assert_replayed


def _wavefront_run(nprocs=2, n=9, **kwargs):
    program = gs.handwritten_wavefront()
    parts = scatter(make_full((n, n), 1), gs.DISTRIBUTION, nprocs)
    return run_spmd(
        program,
        nprocs,
        lambda rank: [parts[rank]],
        globals_={"N": n, "blksize": 4, "c": 1, "bval": 1},
        backend="replay",
        **kwargs,
    )


def test_unsupported_feature_reasons():
    assert _replay_unsupported(True, None, 50_000_000) == "trace requested"
    assert (
        _replay_unsupported(False, [1, 0], 50_000_000)
        == "non-identity placement"
    )
    # Identity placement spelled out explicitly is fine.
    assert _replay_unsupported(False, [0, 1, 2], 50_000_000) is None
    assert _replay_unsupported(False, None, 1000) == "custom max_steps"
    assert _replay_unsupported(False, None, 50_000_000) is None


@pytest.mark.parametrize("backend", ["interp", "compiled", "replay"])
@pytest.mark.parametrize("placement, message", [
    ([0, 1], "placement has 2 entries for 3 processes"),
    ([0, 2, 3, 1], "placement has 4 entries for 3 processes"),
    ([0, -1, 1], r"bad placement \[0, -1, 1\]"),
])
def test_a_malformed_placement_is_rejected_on_every_backend(
    backend, placement, message
):
    """Replay used to clock a placement that names fewer processes than
    the run has as if it were the identity."""
    n = 9
    parts = scatter(make_full((n, n), 1), gs.DISTRIBUTION, 3)
    with pytest.raises(SimulationError, match=message):
        run_spmd(
            gs.handwritten_wavefront(), 3, lambda rank: [parts[rank]],
            globals_={"N": n, "blksize": 4, "c": 1, "bval": 1},
            placement=placement, backend=backend,
        )


def test_trace_request_falls_back_to_compiled():
    result = _wavefront_run(trace=True)
    assert result.backend == "compiled"
    assert result.fallback_reason == "trace requested"
    assert result.sim.traced  # the fallback honoured the trace request
    assert result.returned[0] is not None  # and computed real values


def test_custom_max_steps_falls_back():
    result = _wavefront_run(max_steps=10_000_000)
    assert result.backend == "compiled"
    assert result.fallback_reason == "custom max_steps"


def test_data_dependent_control_falls_back_with_model_error():
    source = """
    param N;
    map Old by wrapped_cols;
    map New by wrapped_cols;
    procedure step(Old: matrix) returns matrix {
        let New = matrix(N, N);
        for j = 2 to N - 1 {
            for i = 2 to N - 1 {
                if Old[i, j] > 0 {
                    New[i, j] = Old[i, j - 1];
                }
            }
        }
        return New;
    }
    """
    compiled = compile_program_cached(
        source,
        strategy=Strategy.COMPILE_TIME,
        entry_shapes={"Old": ("N", "N")},
        assume_nprocs_min=2,
    )
    n = 8
    outcome = execute(
        compiled,
        2,
        inputs={"Old": make_full((n, n), 1, name="Old")},
        params={"N": n},
        backend="replay",
    )
    assert outcome.spmd.backend == "compiled"
    assert "ModelError" in outcome.spmd.fallback_reason
    assert "depends on array data" in outcome.spmd.fallback_reason
    # The fallback is a full compiled run: values exist and are correct.
    assert outcome.value is not None


def test_fallback_increments_perf_counter():
    before = perf.counter("replay.fallback")
    _wavefront_run(trace=True)
    assert perf.counter("replay.fallback") == before + 1


def test_replay_produces_no_values():
    result = _wavefront_run()
    assert_replayed(result)
    assert result.returned == [None, None]


def test_skeleton_cache_hits_on_second_run():
    # A grid size no other test uses, so the first run must miss.
    n = 23
    h_before = perf.counter("replay_skeleton.hit")
    m_before = perf.counter("replay_skeleton.miss")
    first = _wavefront_run(n=n)
    assert perf.counter("replay_skeleton.miss") == m_before + 1
    assert perf.counter("replay_skeleton.hit") == h_before
    second = _wavefront_run(n=n)
    assert perf.counter("replay_skeleton.hit") == h_before + 1
    assert perf.counter("replay_skeleton.miss") == m_before + 1
    assert second.sim.makespan_us == first.sim.makespan_us


def test_missing_numpy_raises_actionable_error(monkeypatch):
    monkeypatch.setattr("repro.replay.skeleton.np", None)
    monkeypatch.setattr("repro.replay.engine.np", None)
    with pytest.raises(ReproError) as exc_info:
        _wavefront_run()
    message = str(exc_info.value)
    assert "requires numpy" in message
    assert "compiled" in message  # points at the backends that still work


def test_tuner_confirms_on_replay_backend():
    """tune(backend="replay") times candidates on the fast path; the
    oracle check is skipped (replay computes no values) but the
    measured point carries the backend that produced it."""
    from repro.tune.search import tune

    report = tune(
        gs.SOURCE, 12, proc_counts=(2,), dists=("wrapped_cols",),
        strategies=("optI", "optIII"), blksizes=(4,), top_k=2,
        backend="replay", oracle=gs.reference_rows,
    )
    assert report.best is not None
    assert report.best.measured.backend == "replay"
    assert all(c.measured.backend == "replay" for c in report.confirmed)


def test_cli_rejects_unknown_backend():
    from repro.bench.cli import main

    with pytest.raises(SystemExit) as exc_info:
        main(["msgcount", "--backend", "bogus"])
    assert exc_info.value.code == 2


def test_cli_accepts_replay_backend(capsys):
    from repro.bench.cli import main

    rc = main(["blocksize", "--n", "12", "--nprocs", "2",
               "--backend", "replay"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "blksize" in out
