"""Derived decomposition maps: tuner integration and soundness.

Two contracts. First, ``tune()`` without ``dists`` searches the
locality analyzer's candidates — the whole layout family of the
program's rank, ranked by the cost model like any other axis — records
the provenance on the report, and its winner is no worse than searching
the hand-written map. Second — the differential gate — every derived map
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
from repro.tune import tune
from repro.tune.serialize import report_payload
from repro.tune.space import DEFAULT_DISTS, STRATEGIES, retarget_source

COMPILE_ONLY = dict(strategies=("compile",), blksizes=(8,))


class TestTuneDerivedMaps:
    def test_default_dist_axis_is_derived(self):
        report = tune(gs.SOURCE, 10, top_k=1, **COMPILE_ONLY)
        assert report.derived_maps is not None
        derived = [m["dist"] for m in report.derived_maps]
        assert derived == list(analyze(gs.SOURCE).dists)
        assert {c.config.dist for c in report.candidates} <= set(derived)
        assert report.best is not None
        # Provenance carries the rationale of every candidate map.
        assert all(m["rationale"] for m in report.derived_maps)

    def test_derived_axis_is_every_matrix_layout(self):
        report = tune(gs.SOURCE, 10, top_k=1, **COMPILE_ONLY)
        assert [m["dist"] for m in report.derived_maps] == list(
            DEFAULT_DISTS
        )
        assert {c.config.dist for c in report.candidates} == set(
            DEFAULT_DISTS
        )

    def test_winner_no_worse_than_hand_map(self):
        """Acceptance: the derived winner must be at least as fast as
        tuning over only the hand-written distribution."""
        derived = tune(gs.SOURCE, 10, top_k=1, **COMPILE_ONLY)
        hand = tune(
            gs.SOURCE, 10, dists=("wrapped_cols",), top_k=1, **COMPILE_ONLY
        )
        assert derived.best is not None and hand.best is not None
        assert derived.best.measured_us <= hand.best.measured_us

    def test_payload_carries_derived_maps_only_when_derived(self):
        report = tune(gs.SOURCE, 8, top_k=0, **COMPILE_ONLY)
        payload = report_payload(report, command="tune")
        assert payload["derived_maps"] == report.derived_maps
        plain = tune(
            gs.SOURCE, 8, proc_counts=(2,), dists=("wrapped_cols",),
            top_k=0, **COMPILE_ONLY,
        )
        assert plain.derived_maps is None
        assert "derived_maps" not in report_payload(plain)

    def test_underivable_program_raises(self):
        source = """
        param N;
        procedure f() returns int {
            return N;
        }
        """
        with pytest.raises(TuneError, match="no candidate maps"):
            tune(source, 8, entry="f")


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
