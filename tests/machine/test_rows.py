"""The reference row scheduler against the live simulator.

:func:`repro.machine.rows.run_rows` is what the tuner's prediction, the
replay oracle and the verifier's deadlock pass all read, so it is pinned
directly against :class:`~repro.machine.Simulator` driven by generator
processes that yield the same Compute/Send/Recv stream — float for
float, on the iPSC/2 preset and on a non-dyadic ``op_us`` where any
re-association of the clock chain would show in the last ulp.

Repeat markers are stepped, not expanded: on random flat streams and on
a receive that blocks in the middle of a repeat, the compact rows clock
exactly like their expansion (:func:`repro.machine.rows.expand`, the
marker's meaning).

The last tests close the loop end to end: for real compiled programs
``predict``, both replay engines and the compiled backend agree on every
timing and traffic observable, and the rows ``predict`` clocks (the
verifier's walk, :func:`repro.analysis.walk_ranks`) are the rows a plain
``Walker`` records and skeleton extraction stores.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.machine import Compute, MachineParams, Recv, Send, Simulator
from repro.machine.rows import (
    KIND_COMPUTE,
    KIND_RECV,
    KIND_REPEAT,
    KIND_SEND,
    expand,
    run_rows,
)

MACHINES = {
    "ipsc2": MachineParams.ipsc2(),
    "op_us=0.3": MachineParams.ipsc2().with_(op_us=0.3),
}


def compute(ops, mems=0):
    return (KIND_COMPUTE, -1, -1, 0, ops, mems)


def send(dst, chan, plen=1):
    return (KIND_SEND, dst, chan, plen, 0, 0)


def recv(src, chan):
    return (KIND_RECV, src, chan, 0, 0, 0)


def simulate(per_rank_rows, params):
    """The same rows as generator processes on the live engine."""

    def factory(rank):
        for kind, peer, chan, plen, ops, mems in per_rank_rows[rank]:
            if kind == KIND_COMPUTE:
                yield Compute(ops * params.op_us + mems * params.mem_us)
            elif kind == KIND_SEND:
                yield Send(peer, chan, (0,) * plen)
            else:
                yield Recv(peer, chan)

    return Simulator(len(per_rank_rows), params).run(factory)


def channel_names(per_rank_rows):
    """Identity table: these rows spell channels by name."""
    return {row[2]: row[2] for rows in per_rank_rows for row in rows}


def wavefront(nprocs=4, sweeps=3):
    """A pipelined sweep: every rank waits on its left neighbour, works,
    feeds its right neighbour — uneven work so some receives wait and
    some find their message queued — plus a second channel, varying
    payload lengths and one message nobody ever receives."""
    ranks = []
    for rank in range(nprocs):
        rows = [compute(7 * (rank + 1), 3)]
        for sweep in range(sweeps):
            if rank > 0:
                rows.append(recv(rank - 1, "edge"))
            rows.append(compute(50 + 13 * ((rank + sweep) % 3), 5 + sweep))
            if rank < nprocs - 1:
                rows.append(send(rank + 1, "edge", plen=1 + sweep))
        if rank > 0:
            rows.append(send(0, "done", plen=2))
        ranks.append(rows)
    ranks[0] += [recv(rank, "done") for rank in range(nprocs - 1, 0, -1)]
    ranks[1].append(send(2, "stray", plen=5))
    return ranks


@pytest.mark.parametrize("machine", MACHINES.values(), ids=MACHINES)
def test_completed_run_matches_simulator(machine):
    rows = wavefront()
    sim = simulate(rows, machine)
    run = run_rows(rows, len(rows), machine)

    assert run.stuck == []
    assert run.cursor == [len(r) for r in rows]
    assert run.clock == sim.finish_times_us
    assert run.busy == sim.busy_times_us
    assert run.comm == sim.comm_times_us
    stats = run.stats(channel_names(rows), machine.scalar_bytes)
    assert stats.per_channel == sim.stats.per_channel
    assert stats.per_channel_bytes == sim.stats.per_channel_bytes
    assert stats.total_messages == sim.stats.total_messages
    assert stats.total_bytes == sim.stats.total_bytes
    assert run.queued == sim.undelivered == {(1, 2, "stray"): 1}


def test_interned_channel_ids_are_named_by_the_table():
    """Rows may spell channels as ids; ``stats`` names them."""
    machine = MACHINES["ipsc2"]
    run = run_rows(
        [[send(1, 0, plen=3), send(1, 1)], [recv(0, 1), recv(0, 0)]],
        2, machine,
    )
    stats = run.stats(["left", "right"], machine.scalar_bytes)
    assert stats.per_channel == {(0, 1, "left"): 1, (0, 1, "right"): 1}
    assert stats.per_channel_bytes == {
        (0, 1, "left"): 3 * machine.scalar_bytes,
        (0, 1, "right"): machine.scalar_bytes,
    }


def assert_same_stuck_state(rows, machine):
    with pytest.raises(DeadlockError) as caught:
        simulate(rows, machine)
    err = caught.value
    run = run_rows(rows, len(rows), machine)
    assert run.stuck == sorted(err.wait_for)
    for rank in run.stuck:
        kind, src, chan = rows[rank][run.cursor[rank]][:3]
        assert kind == KIND_RECV
        assert (src, rank, chan) == err.wait_for[rank]["key"]
    assert run.queued == err.undelivered
    return run


@pytest.mark.parametrize("machine", MACHINES.values(), ids=MACHINES)
def test_cyclic_wait_blocks_the_same_ranks(machine):
    """0 and 1 each receive before sending (the jammed-jacobi shape), 2
    is blocked behind 1, 3 finishes; a message on a misspelt channel
    stays queued."""
    rows = [
        [send(1, "typo"), recv(1, "a"), send(1, "b")],
        [compute(40), recv(0, "b"), send(0, "a"), send(2, "c")],
        [recv(1, "c")],
        [compute(9, 9)],
    ]
    run = assert_same_stuck_state(rows, machine)
    assert run.stuck == [0, 1, 2]
    assert run.cursor == [1, 1, 0, 1]


@pytest.mark.parametrize("machine", MACHINES.values(), ids=MACHINES)
def test_sender_that_finishes_without_sending(machine):
    rows = [
        [compute(5), send(1, "x")],
        [recv(0, "x"), recv(0, "x"), compute(3)],
    ]
    run = assert_same_stuck_state(rows, machine)
    assert run.stuck == [1]
    assert run.cursor == [2, 1]


# --- repeat markers: stepped exactly as expanded -----------------------

literal = st.tuples(
    st.integers(0, 2), st.integers(-1, 5), st.integers(-1, 3),
    st.integers(0, 9), st.integers(0, 50), st.integers(0, 50),
)


def repeat(span, count):
    return (KIND_REPEAT, -1, -1, 0, span, count)


@st.composite
def flat_stream(draw):
    """One rank's rows: runs of literal rows, each optionally followed
    by a marker whose span stays inside its own run."""
    rows = []
    for run in draw(st.lists(st.lists(literal, max_size=6), max_size=5)):
        rows += run
        if run and draw(st.booleans()):
            rows.append(repeat(draw(st.integers(1, len(run))),
                               draw(st.integers(1, 4))))
    return rows


def assert_clocked_as_expanded(per_rank_rows, machine):
    nprocs = len(per_rank_rows)
    run = run_rows(per_rank_rows, nprocs, machine)
    want = run_rows([expand(rows) for rows in per_rank_rows], nprocs,
                    machine)
    for field in ("clock", "busy", "comm", "messages", "scalars", "queued",
                  "stuck"):
        assert getattr(run, field) == getattr(want, field), field
    return run


@settings(max_examples=300, deadline=None)
@given(st.lists(flat_stream(), min_size=1, max_size=5))
def test_markers_are_stepped_as_their_expansion(per_rank_rows):
    assert_clocked_as_expanded(per_rank_rows, MACHINES["op_us=0.3"])


@pytest.mark.parametrize("machine", MACHINES.values(), ids=MACHINES)
def test_a_receive_inside_a_repeat_blocks_and_resumes(machine):
    """Rank 0's loop receives, works and answers, four times over, so
    it blocks on the receive in the middle of the repeat, again and
    again; rank 1 feeds it. Cut rank 1's last round and rank 0 stays
    stuck on the span's receive row, mid-repeat."""
    ping = [recv(1, "a"), compute(3, 1), send(1, "b")]
    pong = [send(0, "a", plen=2), recv(0, "b"), compute(40)]
    rows = [[compute(5), *ping, *ping, repeat(3, 2)],
            [*pong, compute(1), *pong, repeat(3, 2)]]
    run = assert_clocked_as_expanded(rows, machine)
    sim = simulate([expand(r) for r in rows], machine)
    assert run.stuck == []
    assert run.cursor == [len(r) for r in rows]
    assert (run.clock, run.busy, run.comm) == (
        sim.finish_times_us, sim.busy_times_us, sim.comm_times_us
    )

    rows[1][-1] = repeat(3, 1)  # one "a" short
    run = assert_clocked_as_expanded(rows, machine)
    assert run.stuck == [0]
    assert run.cursor == [4, len(rows[1])]  # the span's receive
    assert rows[0][run.cursor[0]] == recv(1, "a")


# --- end to end: four routes to the same numbers -----------------------


def _app(name):
    if name == "gauss_seidel":
        from repro.apps import gauss_seidel as mod

        return mod.SOURCE, "optIII", dict(entry_shapes={"Old": ("N", "N")})
    if name == "triangular":
        from repro.apps import triangular as mod

        return mod.SOURCE, "optIII", {}
    from repro.apps import jacobi as mod

    return mod.SOURCE_WRAPPED, "optI", dict(
        entry="jacobi_step", entry_shapes={"Old": ("N", "N")}
    )


@pytest.mark.parametrize("nprocs", (1, 3, 4))
@pytest.mark.parametrize("app", ("gauss_seidel", "jacobi"))
def test_predict_replay_and_compiled_agree(app, nprocs):
    pytest.importorskip("numpy")
    from repro.analysis import walk_ranks
    from repro.core.compiler import compile_program_cached
    from repro.core.runner import execute
    from repro.replay import extract_skeletons, replay
    from repro.spmd.layout import make_full
    from repro.spmd.walk import Walker, abstract_args
    from repro.tune import predict
    from repro.tune.space import STRATEGIES

    n = 9
    machine = MACHINES["op_us=0.3"]
    source, strategy, extra = _app(app)
    strat, opt_level = STRATEGIES[strategy]
    compiled = compile_program_cached(
        source, strategy=strat, opt_level=opt_level, **extra
    )
    knobs = {"blksize": 4}

    sim = execute(
        compiled, nprocs,
        inputs={"Old": make_full((n, n), 1, name="Old")},
        params={"N": n}, machine=machine, extra_globals=knobs,
    ).sim
    prediction = predict(
        compiled, nprocs, params={"N": n}, machine=machine,
        extra_globals=knobs,
    )
    skeleton = extract_skeletons(
        compiled.program, nprocs, lambda rank: [None], {"N": n, **knobs}
    )
    routes = {
        "predict": (
            prediction.makespan_us, prediction.finish_times_us,
            prediction.busy_times_us, prediction.comm_times_us,
            prediction.per_channel, prediction.per_channel_bytes,
        ),
    }
    for engine in ("scalar", "vector"):
        got = replay(skeleton, machine, engine=engine)
        routes[f"replay[{engine}]"] = (
            got.makespan_us, got.finish_times_us, got.busy_times_us,
            got.comm_times_us, got.stats.per_channel,
            got.stats.per_channel_bytes,
        )
    compiled_run = (
        sim.makespan_us, sim.finish_times_us, sim.busy_times_us,
        sim.comm_times_us, sim.stats.per_channel,
        sim.stats.per_channel_bytes,
    )
    for route, observed in routes.items():
        assert observed == compiled_run, route

    # One row stream: what ``predict`` clocks (the verifier's walk) is
    # what a plain ``Walker`` records — repeat markers expanded — and
    # what ``extract_skeletons`` stores (compact) and serves (expanded),
    # row for row.
    walkers, channels = walk_ranks(
        compiled.program, nprocs, {"N": n, **knobs}, {}
    )
    code = Walker.compile(compiled.program)
    args = abstract_args(compiled.program.entry_proc(), lambda name: None)
    chan_ids: dict[str, int] = {}
    compact = skeleton.compact_rows()
    for rank, columns in enumerate(skeleton.ranks):
        rows = Walker(
            code, rank, nprocs, {"N": n, **knobs}, chan_ids
        ).run(args)
        assert rows == compact[rank], rank
        assert expand(rows) == expand(walkers[rank].events), rank
        assert expand(rows) == list(zip(*(
            getattr(columns, name).tolist()
            for name in ("kind", "peer", "chan", "plen", "ops", "mems")
        ))), rank
    assert tuple(chan_ids) == skeleton.channels == channels


@pytest.mark.parametrize("nprocs", (1, 3, 4))
@pytest.mark.parametrize(
    "strategy", ("runtime", "compile", "optI", "optII", "optIII")
)
@pytest.mark.parametrize("app", ("gauss_seidel", "jacobi", "triangular"))
def test_verifier_rows_are_the_plain_walkers_rows(app, strategy, nprocs):
    """Summarized loops included, the verifier's walk flushes where the
    plain walker does and interns channels in the same order — also on
    configurations that go on to deadlock (jammed jacobi)."""
    from repro.analysis import walk_ranks
    from repro.core.compiler import compile_program_cached
    from repro.spmd.walk import UNKNOWN, Walker, abstract_args
    from repro.tune.space import STRATEGIES

    source, _, extra = _app(app)
    strat, opt_level = STRATEGIES[strategy]
    program = compile_program_cached(
        source, strategy=strat, opt_level=opt_level,
        assume_nprocs_min=min(nprocs, 2), **extra
    ).program
    globals_ = {"N": 9, "blksize": 4}
    walkers, channels = walk_ranks(program, nprocs, globals_, {})
    code = Walker.compile(program)
    args = abstract_args(program.entry_proc(), lambda name: UNKNOWN)
    chan_ids: dict[str, int] = {}
    for rank, walker in enumerate(walkers):
        assert walker.completed and walker.raised is None, rank
        assert expand(walker.events) == expand(Walker(
            code, rank, nprocs, globals_, chan_ids
        ).run(args)), rank
    assert channels == tuple(chan_ids)
