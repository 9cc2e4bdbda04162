"""Differential tests: the replay backend against the compiled backend.

The replay backend's contract (ISSUE 6) is *bit-identity*, not
approximation: for every configuration it accepts, the columnar clock
walk must reproduce the compiled simulator's makespan, per-rank finish /
busy / communication times, message statistics, and undelivered-message
census exactly — float-for-float — and must surface the *same* failures
(DeadlockError with the same forensics, NodeRuntimeError with the same
text) for configurations that misbehave.

The matrix mirrors the verifier's differential suite: app x distribution
x strategy, ring sizes S in {2, 4, 8} inside each test so compilation is
shared, plus hypothesis-driven random affine stencils to push beyond the
fixed example apps.
"""

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compiler import OptLevel, Strategy, compile_program_cached
from repro.core.runner import execute
from repro.errors import DeadlockError, ReproError
from repro.spmd.layout import make_full
from repro.tune.space import DEFAULT_DISTS, STRATEGIES, retarget_source
from tests.replay.conftest import assert_replayed

N = 8
RING_SIZES = (2, 4, 8)
BLKSIZE = 4


def app_config(app):
    if app == "gauss_seidel":
        from repro.apps import gauss_seidel as mod

        return mod.SOURCE, dict(entry_shapes={"Old": ("N", "N")})
    if app == "jacobi":
        from repro.apps import jacobi as mod

        return mod.SOURCE_WRAPPED, dict(
            entry="jacobi_step", entry_shapes={"Old": ("N", "N")}
        )
    from repro.apps import triangular as mod

    return mod.SOURCE, {}


def compile_config(app, dist, strategy):
    """Compile one configuration; None when compilation itself fails
    (there is then nothing to replay)."""
    source, extra = app_config(app)
    strat, opt_level = STRATEGIES[strategy]
    try:
        return compile_program_cached(
            retarget_source(source, dist),
            strategy=strat,
            opt_level=opt_level,
            assume_nprocs_min=2,
            **extra,
        )
    except ReproError:
        return None


def run_backend(compiled, nprocs, backend, n=N):
    """('ok', outcome) or ('raise', exception) for one backend run."""
    env = {**compiled.checked.consts, "N": n, "S": nprocs}
    inputs = {}
    for pname in compiled.entry_array_params:
        info = compiled.array_info[compiled.entry][pname]
        shape = tuple(d.evaluate(env) for d in info.shape)
        inputs[pname] = make_full(shape, 1, name=pname)
    try:
        outcome = execute(
            compiled,
            nprocs,
            inputs=inputs,
            params={"N": n},
            extra_globals={"blksize": BLKSIZE},
            backend=backend,
        )
    except ReproError as exc:
        return "raise", exc
    return "ok", outcome


def assert_sims_identical(label, ref, got):
    """Every observable of the two SimResults, compared exactly."""
    assert got.makespan_us == ref.makespan_us, label
    assert got.finish_times_us == ref.finish_times_us, label
    assert got.busy_times_us == ref.busy_times_us, label
    assert got.cpu_finish_us == ref.cpu_finish_us, label
    assert got.cpu_busy_us == ref.cpu_busy_us, label
    assert got.comm_times_us == ref.comm_times_us, label
    assert got.stats.per_channel == ref.stats.per_channel, label
    assert got.stats.per_channel_bytes == ref.stats.per_channel_bytes, label
    assert got.stats.total_messages == ref.stats.total_messages, label
    assert got.stats.total_bytes == ref.stats.total_bytes, label
    assert got.undelivered == ref.undelivered, label


def assert_errors_identical(label, ref, got):
    assert type(got) is type(ref), (
        f"{label}: compiled raised {type(ref).__name__}, "
        f"replay raised {type(got).__name__}"
    )
    assert str(got) == str(ref), label
    if isinstance(ref, DeadlockError):
        assert got.blocked == ref.blocked, label
        assert got.wait_for == ref.wait_for, label
        assert got.undelivered == ref.undelivered, label


def check_identity(app, dist, strategy, nprocs, n=N):
    """Run one configuration under both backends and compare verdicts.

    Returns the shared verdict ('ok'/'raise') or 'uncompilable'.
    """
    compiled = compile_config(app, dist, strategy)
    if compiled is None:
        return "uncompilable"
    label = f"{app} {dist} {strategy} S={nprocs} N={n}"
    ref_kind, ref = run_backend(compiled, nprocs, "compiled", n)
    got_kind, got = run_backend(compiled, nprocs, "replay", n)
    assert got_kind == ref_kind, (
        f"{label}: compiled -> {ref_kind}, replay -> {got_kind}"
    )
    if ref_kind == "ok":
        assert_replayed(got.spmd, label)
        assert ref.spmd.backend == "compiled", label
        assert_sims_identical(label, ref.sim, got.sim)
    else:
        assert_errors_identical(label, ref, got)
    return ref_kind


MATRIX = [
    (app, dist, strategy)
    for app in ("gauss_seidel", "jacobi", "triangular")
    for dist in DEFAULT_DISTS
    for strategy in STRATEGIES
]


@pytest.mark.parametrize(
    "app, dist, strategy", MATRIX,
    ids=[f"{a}-{d}-{s}" for a, d, s in MATRIX],
)
def test_replay_matches_compiled(app, dist, strategy):
    verdicts = {S: check_identity(app, dist, strategy, S) for S in RING_SIZES}
    # At least one ring size must produce a real comparison, otherwise
    # the configuration silently dropped out of the matrix.
    assert set(verdicts.values()) & {"ok", "raise", "uncompilable"}, verdicts


def test_jammed_jacobi_deadlock_forensics_identical():
    """The loop-jamming deadlock (ISSUE 6's named acceptance case): the
    replay backend must surface the same DeadlockError — same blocked
    set, same wait-for graph, same undelivered census — not merely fail."""
    compiled = compile_config("jacobi", "wrapped_cols", "optII")
    assert compiled is not None
    ref_kind, ref = run_backend(compiled, 2, "compiled")
    got_kind, got = run_backend(compiled, 2, "replay")
    assert ref_kind == got_kind == "raise"
    assert isinstance(ref, DeadlockError)
    assert_errors_identical("jammed jacobi", ref, got)


def test_comm_times_identical_across_all_three_backends():
    """comm_times_us is the newest SimResult observable; pin it equal
    across interp, compiled, and replay on the same configuration."""
    compiled = compile_config("gauss_seidel", "wrapped_cols", "optI")
    assert compiled is not None
    for nprocs in RING_SIZES:
        runs = {
            backend: run_backend(compiled, nprocs, backend)
            for backend in ("interp", "compiled", "replay")
        }
        assert {kind for kind, _ in runs.values()} == {"ok"}
        ref = runs["compiled"][1].sim
        for backend, (_, outcome) in runs.items():
            assert outcome.sim.comm_times_us == ref.comm_times_us, (
                f"{backend} S={nprocs}"
            )
            assert outcome.sim.makespan_us == ref.makespan_us, (
                f"{backend} S={nprocs}"
            )


def test_handwritten_strategy_replays_bit_identically():
    """The paper's hand-written wavefront program (plain SPMD source,
    not compiler output) also goes through extraction."""
    from repro.apps import gauss_seidel as gs
    from repro.spmd.interp import run_spmd
    from repro.spmd.layout import scatter

    program = gs.handwritten_wavefront()
    n = 11
    globals_ = {"N": n, "blksize": BLKSIZE, "c": 1, "bval": 1}
    parts = scatter(make_full((n, n), 1), gs.DISTRIBUTION, 4)
    make_args = lambda rank: [parts[rank]]  # noqa: E731

    ref = run_spmd(program, 4, make_args, globals_=globals_,
                   backend="compiled")
    got = run_spmd(program, 4, make_args, globals_=globals_,
                   backend="replay")
    assert_replayed(got)
    assert_sims_identical("handwritten S=4", ref.sim, got.sim)


# --- hypothesis: beyond the example apps -------------------------------

_offsets = st.tuples(st.integers(-1, 1), st.integers(-1, 1))


def stencil_source(dist: str, taps) -> str:
    terms = " + ".join(
        f"Old[i + {di}, j + {dj}]".replace("+ -", "- ") for di, dj in taps
    )
    return f"""
    param N;
    map Old by {dist};
    map New by {dist};
    procedure step(Old: matrix) returns matrix {{
        let New = matrix(N, N);
        for j = 2 to N - 1 {{
            for i = 2 to N - 1 {{
                New[i, j] = {terms};
            }}
        }}
        return New;
    }}
    """


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    dist=st.sampled_from(
        ["wrapped_cols", "wrapped_rows", "block_cols", "block_rows"]
    ),
    taps=st.lists(_offsets, min_size=1, max_size=4),
    n=st.integers(5, 12),
    nprocs=st.sampled_from(RING_SIZES),
    level=st.sampled_from(
        [OptLevel.NONE, OptLevel.VECTORIZE, OptLevel.JAM, OptLevel.STRIPMINE]
    ),
)
def test_random_affine_stencils_replay_identically(
    dist, taps, n, nprocs, level
):
    """Random affine stencil programs, every optimization level: replay
    must track compiled bit-for-bit on configurations it accepts, and
    agree verdict-for-verdict on ones that misbehave."""
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
    label = f"stencil {dist} taps={list(taps)} n={n} S={nprocs} {level}"
    ref_kind, ref = run_backend(compiled, nprocs, "compiled", n=n)
    got_kind, got = run_backend(compiled, nprocs, "replay", n=n)
    assert got_kind == ref_kind, label
    if ref_kind == "ok":
        assert_replayed(got.spmd, label)
        assert_sims_identical(label, ref.sim, got.sim)
    else:
        assert_errors_identical(label, ref, got)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    app=st.sampled_from(["gauss_seidel", "jacobi", "triangular"]),
    dist=st.sampled_from(DEFAULT_DISTS),
    strategy=st.sampled_from(sorted(STRATEGIES)),
    nprocs=st.sampled_from(RING_SIZES),
    n=st.integers(min_value=4, max_value=14),
)
def test_identity_on_sampled_sizes(app, dist, strategy, nprocs, n):
    """Grid sizes beyond the fixed matrix N: deadlocks and message
    traffic are N-dependent (strip boundaries), so bit-identity must
    hold across sizes, not just at N=8."""
    check_identity(app, dist, strategy, nprocs, n=n)
