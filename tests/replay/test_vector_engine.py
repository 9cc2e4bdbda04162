"""The vectorized clock engine against the scalar oracle walk.

The differential suite (test_differential) pins replay against the
*compiled backend*; this file pins the vectorized engine against the
scalar per-event walk directly, at the ``replay(engine=...)`` level —
same skeleton, same plan, two propagation loops that must agree float
for float on every observable.

The interesting machinery only engages on runs longer than
:data:`repro.replay.vector.VEC_MIN` (and some tiers only on specific
epoch shapes), so alongside the default thresholds every comparison is
repeated under adversarial forcings that push tiny test programs down
each code path: all-vector dispatch, and the long jump out of stepped
advance into one accumulate per epoch.
"""

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.compiler import OptLevel, Strategy, compile_program_cached
from repro.errors import DeadlockError, ReproError
from repro.machine import MachineParams
from repro.replay import vector
from repro.replay.engine import replay
from tests.replay.test_differential import (
    compile_config,
    run_backend,
    stencil_source,
)

MACHINE = MachineParams.ipsc2()

#: name -> attribute overrides on repro.replay.vector. Each forcing
#: routes small programs down a path only large runs take by default.
FORCINGS = {
    "default": {},
    "all-vector": {"VEC_MIN": 1},
    "long-jump": {"VEC_MIN": 1, "_INDIV_MAX": 0, "_STEP_MAX": 0},
}


def forced(name):
    """Context manager applying one forcing to the vector module."""
    import contextlib

    @contextlib.contextmanager
    def _apply():
        overrides = FORCINGS[name]
        saved = {attr: getattr(vector, attr) for attr in overrides}
        for attr, value in overrides.items():
            setattr(vector, attr, value)
        try:
            yield
        finally:
            for attr, value in saved.items():
                setattr(vector, attr, value)

    return _apply()


def skeleton_for(compiled, nprocs, n):
    """Extract one skeleton by running the replay backend once.

    Returns None when replay abstained (fell back to compiled) — there
    is then no skeleton to compare engines on. Deadlocking runs still
    produce a skeleton (extraction succeeds; the walk deadlocks).
    """
    from repro.replay.skeleton import _skeleton_cache

    _skeleton_cache.clear()
    kind, outcome = run_backend(compiled, nprocs, "replay", n=n)
    if kind == "ok" and outcome.spmd.backend != "replay":
        return None
    values = list(_skeleton_cache.values())
    return values[-1] if values else None


def run_engine(skeleton, engine):
    try:
        return "ok", replay(skeleton, MACHINE, engine=engine)
    except ReproError as exc:
        return "raise", exc


def assert_engines_identical(skeleton, label):
    """Both engines on one skeleton: observables equal bit for bit."""
    ref_kind, ref = run_engine(skeleton, "scalar")
    got_kind, got = run_engine(skeleton, "vector")
    assert got_kind == ref_kind, (
        f"{label}: scalar -> {ref_kind}, vector -> {got_kind}"
    )
    if ref_kind == "ok":
        assert got.finish_times_us == ref.finish_times_us, label
        assert got.busy_times_us == ref.busy_times_us, label
        assert got.comm_times_us == ref.comm_times_us, label
        assert got.cpu_finish_us == ref.cpu_finish_us, label
        assert got.cpu_busy_us == ref.cpu_busy_us, label
        assert got.stats.per_channel == ref.stats.per_channel, label
        assert got.stats.total_bytes == ref.stats.total_bytes, label
        assert got.undelivered == ref.undelivered, label
    else:
        assert type(got) is type(ref), label
        assert str(got) == str(ref), label
        if isinstance(ref, DeadlockError):
            assert got.blocked == ref.blocked, label
            assert got.wait_for == ref.wait_for, label
            assert got.undelivered == ref.undelivered, label
    return ref_kind


CONFIGS = [
    ("gauss_seidel", "wrapped_cols", "optI", 4, 16),
    ("gauss_seidel", "wrapped_cols", "optIII", 4, 16),
    ("gauss_seidel", "wrapped_rows", "optII", 2, 12),
    ("triangular", "wrapped_cols", "optIII", 4, 12),
    ("jacobi", "wrapped_cols", "optI", 8, 16),
    ("jacobi", "wrapped_cols", "optII", 2, 8),  # jammed: deadlocks
]


@pytest.mark.parametrize("forcing", sorted(FORCINGS))
@pytest.mark.parametrize(
    "app, dist, strategy, nprocs, n",
    CONFIGS,
    ids=[f"{a}-{d}-{s}-S{p}" for a, d, s, p, _ in CONFIGS],
)
def test_engines_agree(app, dist, strategy, nprocs, n, forcing):
    compiled = compile_config(app, dist, strategy)
    assert compiled is not None
    skeleton = skeleton_for(compiled, nprocs, n)
    assert skeleton is not None
    with forced(forcing):
        assert_engines_identical(
            skeleton, f"{app} {dist} {strategy} S={nprocs} N={n} [{forcing}]"
        )


def test_jammed_jacobi_deadlock_forensics_match_across_engines():
    compiled = compile_config("jacobi", "wrapped_cols", "optII")
    skeleton = skeleton_for(compiled, 2, 8)
    assert skeleton is not None
    with forced("all-vector"):
        kind = assert_engines_identical(skeleton, "jammed jacobi")
    assert kind == "raise"


def test_vector_paths_actually_run():
    """The forcing matrix is only meaningful if the array paths engage:
    pin nonzero path counters on a fire-heavy wavefront."""
    compiled = compile_config("gauss_seidel", "wrapped_cols", "optI")
    skeleton = skeleton_for(compiled, 8, 24)
    assert skeleton is not None
    with forced("all-vector"):
        before = {
            name: perf.counter(f"replay.vector.{name}")
            for name in ("runs", "fire_runs", "scalar_runs")
        }
        replay(skeleton, MACHINE, engine="vector")
        fired = sum(
            perf.counter(f"replay.vector.{name}") - count
            for name, count in before.items()
            if name != "scalar_runs"
        )
    assert fired > 0, "no vectorized window ever executed"


def test_unknown_engine_rejected():
    compiled = compile_config("gauss_seidel", "wrapped_cols", "optIII")
    skeleton = skeleton_for(compiled, 2, 8)
    assert skeleton is not None
    with pytest.raises(ValueError):
        replay(skeleton, MACHINE, engine="bogus")


def test_env_forced_scalar_reports_engine(monkeypatch):
    compiled = compile_config("gauss_seidel", "wrapped_cols", "optIII")
    skeleton = skeleton_for(compiled, 2, 8)
    monkeypatch.setenv("REPRO_REPLAY_SCALAR", "1")
    info = {}
    replay(skeleton, MACHINE, info=info)
    assert info == {"engine": "scalar", "reason": "REPRO_REPLAY_SCALAR=1"}
    monkeypatch.setenv("REPRO_REPLAY_SCALAR", "0")
    info = {}
    replay(skeleton, MACHINE, info=info)
    assert info == {"engine": "vector", "reason": None}


# --- hypothesis: the segment arithmetic across random programs ---------

_offsets = st.tuples(st.integers(-1, 1), st.integers(-1, 1))


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    dist=st.sampled_from(
        ["wrapped_cols", "wrapped_rows", "block_cols", "block_rows"]
    ),
    taps=st.lists(_offsets, min_size=1, max_size=4),
    n=st.integers(5, 12),
    nprocs=st.sampled_from((2, 4, 8)),
    level=st.sampled_from(
        [OptLevel.NONE, OptLevel.VECTORIZE, OptLevel.JAM, OptLevel.STRIPMINE]
    ),
)
def test_random_affine_stencils_engines_identical(
    dist, taps, n, nprocs, level
):
    """Random affine stencils, every opt level, S in {2, 4, 8}: the
    segment-cumsum arithmetic must match the scalar walk bit for bit,
    with the all-vector forcing so tiny programs exercise it at all."""
    source = stencil_source(dist, taps)
    try:
        compiled = compile_program_cached(
            source,
            strategy=Strategy.COMPILE_TIME,
            opt_level=level,
            entry_shapes={"Old": ("N", "N")},
            assume_nprocs_min=2,
        )
    except ReproError:
        return
    skeleton = skeleton_for(compiled, nprocs, n)
    if skeleton is None:
        return  # replay abstained; nothing to compare
    label = f"stencil {dist} taps={list(taps)} n={n} S={nprocs} {level}"
    with forced("all-vector"):
        assert_engines_identical(skeleton, label)
    with forced("long-jump"):
        assert_engines_identical(skeleton, f"{label} [long-jump]")
