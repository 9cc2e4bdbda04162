"""Auto-derived decomposition maps: tuner integration and soundness.

Two contracts. First, ``tune(auto_maps=True)`` replaces the
distribution axis with the locality analyzer's candidates — the whole
layout family of the program's rank, ranked by the cost model like any
other axis — records the provenance on the report, and its winner is no
worse than searching the hand-written map. Second — the differential gate — every derived map
must actually *work*: compile, verify clean under the static safety
passes, and execute bit-identically across the interp, compiled, and
replay backends.
"""

import pytest

from repro.analysis import analyze, verify_compiled
from repro.apps import gauss_seidel as gs
from repro.apps import jacobi
from repro.core.compiler import compile_program_cached
from repro.core.runner import execute
from repro.errors import TuneError
from repro.spmd.layout import make_full
from repro.tune import default_space, tune
from repro.tune.serialize import report_payload
from repro.tune.space import DEFAULT_DISTS, STRATEGIES, retarget_source


class TestTuneAutoMaps:
    def test_auto_maps_replaces_dist_axis(self):
        report = tune(
            gs.SOURCE, 10, auto_maps=True, top_k=1,
            strategies=("compile",), blksizes=(8,),
        )
        assert report.auto_maps is not None
        derived = [m["dist"] for m in report.auto_maps]
        assert derived == list(analyze(gs.SOURCE).dists)
        assert {c.config.dist for c in report.candidates} <= set(derived)
        assert report.best is not None
        # Provenance carries the rationale of every candidate map.
        assert all(m["rationale"] for m in report.auto_maps)

    def test_auto_maps_searches_every_matrix_layout(self):
        report = tune(
            gs.SOURCE, 10, auto_maps=True, top_k=1,
            strategies=("compile",), blksizes=(8,),
        )
        assert [m["dist"] for m in report.auto_maps] == list(DEFAULT_DISTS)
        assert {c.config.dist for c in report.candidates} == set(
            DEFAULT_DISTS
        )

    def test_winner_no_worse_than_hand_map(self):
        """Acceptance: the auto-derived winner must be at least as fast
        as tuning over only the hand-written distribution."""
        auto = tune(
            gs.SOURCE, 10, auto_maps=True, top_k=1,
            strategies=("compile",), blksizes=(8,),
        )
        hand = tune(
            gs.SOURCE, 10,
            space=default_space(
                (4,), dists=("wrapped_cols",),
                strategies=("compile",), blksizes=(8,),
            ),
            top_k=1,
        )
        assert auto.best is not None and hand.best is not None
        assert auto.best.measured_us <= hand.best.measured_us

    def test_payload_carries_auto_maps_only_when_derived(self):
        report = tune(
            gs.SOURCE, 8, auto_maps=True, top_k=0,
            strategies=("compile",), blksizes=(8,),
        )
        payload = report_payload(report, command="tune")
        assert payload["auto_maps"] == report.auto_maps
        plain = tune(
            gs.SOURCE, 8,
            space=default_space(
                (2,), dists=("wrapped_cols",),
                strategies=("compile",), blksizes=(8,),
            ),
            top_k=0,
        )
        assert "auto_maps" not in report_payload(plain)

    def test_conflicting_arguments_rejected(self):
        space = default_space((2,), dists=("wrapped_cols",))
        with pytest.raises(TuneError, match="auto_maps"):
            tune(gs.SOURCE, 8, auto_maps=True, space=space)
        with pytest.raises(TuneError, match="auto_maps"):
            tune(gs.SOURCE, 8, auto_maps=True, dists=("wrapped_cols",))
        with pytest.raises(TuneError, match="not both"):
            tune(gs.SOURCE, 8, space=space, strategies=("compile",))

    def test_underivable_program_raises(self):
        source = """
        param N;
        procedure f() returns int {
            return N;
        }
        """
        with pytest.raises(TuneError, match="no candidate maps"):
            tune(source, 8, entry="f", auto_maps=True)


# ---------------------------------------------------------------------------
# Differential gate over every derived map
# ---------------------------------------------------------------------------

N = 8
_APPS = {
    "gauss_seidel": (gs.SOURCE, {}, dict(entry_shapes={"Old": ("N", "N")})),
    "jacobi": (
        jacobi.SOURCE_WRAPPED,
        dict(entry="jacobi_step"),
        dict(entry="jacobi_step", entry_shapes={"Old": ("N", "N")}),
    ),
}


def _inputs_for(compiled, n):
    env = {**compiled.checked.consts, "N": n, "S": 2}
    inputs = {}
    for pname in compiled.entry_array_params:
        info = compiled.array_info[compiled.entry][pname]
        shape = tuple(d.evaluate(env) for d in info.shape)
        inputs[pname] = make_full(shape, 1, name=pname)
    return inputs


@pytest.mark.parametrize("app", sorted(_APPS))
def test_every_derived_map_is_sound(app):
    """Each auto-derived map compiles, verifies clean, and runs
    bit-identically on every backend (values interp vs compiled; clock
    and traffic on replay, which carries no values)."""
    source, analyze_kwargs, compile_extra = _APPS[app]
    result = analyze(source, **analyze_kwargs)
    assert result.candidates
    strategy, opt_level = STRATEGIES["compile"]
    for cand in result.candidates:
        label = f"{app} {cand.dist}"
        compiled = compile_program_cached(
            retarget_source(source, cand.dist),
            strategy=strategy,
            opt_level=opt_level,
            assume_nprocs_min=2,
            **compile_extra,
        )
        report = verify_compiled(compiled, 2, params={"N": N})
        assert not report.diagnostics, f"{label}: {report.summary()}"

        inputs = _inputs_for(compiled, N)
        runs = {
            backend: execute(
                compiled, 2, inputs=inputs, params={"N": N},
                backend=backend,
            )
            for backend in ("interp", "compiled", "replay")
        }
        base = runs["compiled"]
        assert base.sim.undelivered_count == 0, label
        assert (
            runs["interp"].value.to_list() == base.value.to_list()
        ), f"{label}: interp and compiled values diverge"
        for backend in ("interp", "replay"):
            other = runs[backend]
            assert (
                other.makespan_us, other.total_messages,
            ) == (
                base.makespan_us, base.total_messages,
            ), f"{label}: {backend} clock/traffic diverges from compiled"
