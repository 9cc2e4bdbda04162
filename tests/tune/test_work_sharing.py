"""One ``tune()`` call does each piece of work once.

The six candidates of one distribution are one source text, two
resolutions (run-time, compile-time) and at most five node programs
(fewer when a pass finds nothing to rewrite and returns its input);
every distinct program and binding is walked once, by the verifier, and
the predictor prices that walk. The counters below are how that is observed — the same ones
``bench tune --profile`` prints — and the last tests are the sharing's
safety net: with every cache off the answer is the same, and two
compilations that share a front half do not see each other.
"""

import pickle
from dataclasses import replace

import pytest

from repro import perf
from repro.analysis import verify_compiled
from repro.apps import gauss_seidel as gs
from repro.apps import jacobi
from repro.core.compiler import OptLevel, Strategy, compile_program
from repro.core.runner import execute
from repro.spmd.layout import make_full
from repro.tune import retarget_source, tune


@pytest.fixture
def fresh(tmp_path, monkeypatch):
    """Empty caches and an empty store: the state perfbench times."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    perf.reset(clear_cache_tables=True)
    yield
    perf.reset(clear_cache_tables=True)


def rank(source=gs.SOURCE, dist="block_rows", **extra):
    return tune(
        source, n=10, proc_counts=(4,), dists=(dist,), blksizes=(4, 8),
        **extra
    )


def test_each_piece_of_work_is_done_once(fresh):
    report = rank()

    labels = [c.config.label for c in report.candidates]
    assert len(labels) == 6 and all(c.predicted for c in report.candidates)
    # One parse + check: the six candidates retarget to one source text.
    assert perf.counter("frontend.miss") == 1
    # Two resolutions: run-time, and the compile-time one that the
    # unoptimized program and Optimized I-III all start from.
    assert perf.counter("resolve.miss") == 2
    assert perf.counter("resolve.hit") == 3
    assert perf.counter("compile.miss") == 5
    # Block rows leave nothing to vectorize, jam or strip-mine, and a
    # pass that rewrites nothing returns its input: the compile-time
    # program, Optimized I, II and both block sizes of III are one
    # object. So two walk compilations, the run-time program's and
    # theirs — the observing flavour only: the predictor owns no walk,
    # so nothing compiles the plain one.
    assert perf.counter("walk_code.miss") == 2
    # Every distinct (program, bindings) is walked once, by the
    # verifier, and the predictor finds that walk: the run-time program,
    # the shared one at blksize 8 (what every candidate but optIII blk=4
    # binds) and the shared one at blksize 4. The other three candidates
    # are that object again and hit the identity-keyed tables in memory,
    # never reaching the store.
    assert perf.counter("rank_walks.miss") == 3
    assert perf.counter("rank_walks.hit") == 3
    assert perf.counter("verify.hit") == 3
    assert perf.counter("tune_predict.hit") == 3
    assert perf.counter("store.verify.hit") == 0


def test_programs_a_pass_did_rewrite_stay_distinct(fresh):
    # Wrapped columns give every pass something to do: five programs,
    # five walk compilations, six walks, nothing shared by identity.
    rank(dist="wrapped_cols")
    assert perf.counter("walk_code.miss") == 5
    assert perf.counter("rank_walks.miss") == 6
    assert perf.counter("verify.hit") == 0


@pytest.mark.parametrize("app", ["gauss_seidel", "jacobi"])
def test_same_answer_with_every_cache_off(fresh, app):
    source, extra = {
        "gauss_seidel": (gs.SOURCE, {}),
        # Jammed jacobi on wrapped columns deadlocks: the verifier's
        # DL001 prunes optII and both optIII candidates.
        "jacobi": (jacobi.SOURCE_WRAPPED,
                   {"dist": "wrapped_cols", "entry": "jacobi_step"}),
    }[app]

    def numbered(per_channel):
        """Channel names carry parse-order uids: number them instead."""
        names = list(dict.fromkeys(key.channel for key in per_channel))
        return {
            (key.src, key.dst, names.index(key.channel)): count
            for key, count in per_channel.items()
        }

    def outcome():
        report = rank(source, **extra)
        return [
            (c.config, c.error, c.abstained,
             c.predicted and replace(
                 c.predicted,
                 per_channel=numbered(c.predicted.per_channel),
                 per_channel_bytes=numbered(c.predicted.per_channel_bytes),
             ),
             c.measured and (c.measured.time_us, c.measured.messages))
            for c in report.candidates
        ], report.best.config

    shared = outcome()
    with perf.caches_disabled():
        assert outcome() == shared
    pruned = [error for _, error, *_ in shared[0] if error]
    assert len(pruned) == (3 if app == "jacobi" else 0)


def test_compilations_sharing_a_front_half_are_not_coupled(fresh):
    source = retarget_source(gs.SOURCE, "wrapped_cols")
    shapes = {"Old": ("N", "N")}

    def build(opt_level):
        return compile_program(
            source, strategy=Strategy.COMPILE_TIME, opt_level=opt_level,
            entry_shapes=shapes, assume_nprocs_min=2,
        )

    def use(compiled):
        n, nprocs = 8, 4
        report = verify_compiled(compiled, nprocs, params={"N": n})
        run = execute(
            compiled, nprocs, params={"N": n},
            inputs={"Old": make_full((n, n), 1, name="Old")},
            extra_globals={"blksize": 4},
        )
        return (
            [d.format() for d in report.diagnostics], run.makespan_us,
            run.total_messages, run.value.to_nested(),
        )

    def shared_state():
        return pickle.dumps((
            plain.checked, plain.spec, plain.array_info,
            repr(plain.program), repr(strip.program),
        ))

    plain, strip = build(OptLevel.NONE), build(OptLevel.STRIPMINE)
    assert plain.checked is strip.checked  # they do share
    assert plain.array_info is strip.array_info
    before = shared_state()

    used = use(plain), use(strip)

    assert shared_state() == before
    perf.clear_caches()  # two unrelated compilations give the same
    assert (use(build(OptLevel.NONE)), use(build(OptLevel.STRIPMINE))) == used
