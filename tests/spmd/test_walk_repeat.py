"""A replicated loop is one repeat marker, and the marker means the rows.

The plain ``Walker`` walks a replicable communicating loop twice and
writes ``(KIND_REPEAT, -1, -1, 0, span, count)`` for the remaining
``count = trips - 2`` iterations. Pinned here against golden rows (what
the walker materialised before markers existed): the edges — no marker
for ``trips <= 2``, the pure-compute branch untouched — and the nested
case, where the outer loop copies compact rows so that no marker ever
sits inside another's span.
"""

import pytest

from repro.machine.rows import KIND_REPEAT, expand
from repro.spmd.interp import run_spmd
from repro.spmd.ir import (
    IsLV,
    NAllocIs,
    NAssign,
    NBin,
    NConst,
    NFor,
    NIf,
    NIsRead,
    NMyNode,
    NNProcs,
    NodeProc,
    NodeProgram,
    NRecv,
    NSend,
    VarLV,
)
from repro.spmd.walk import KIND_COMPUTE, KIND_RECV, KIND_SEND, Walker

c = NConst
RIGHT = NBin("mod", NBin("+", NMyNode(), c(1)), NNProcs())
LEFT = NBin(
    "mod", NBin("-", NBin("+", NMyNode(), NNProcs()), c(1)), NNProcs()
)
WORK = NAssign(VarLV("w"), NBin("+", NIsRead("A", (c(1),)), c(1)))
PROLOGUE = (NAllocIs("A", (c(4),)), NAssign(IsLV("A", (c(1),)), c(0)), WORK)


def program(*body):
    return NodeProgram(
        name="t", entry="main",
        procs={"main": NodeProc("main", params=[], body=list(body))},
    )


def loop(var, trips, *body):
    return NFor(var, c(1), c(trips), c(1), tuple(body))


def on_rank(rank, *stmts):
    return NIf(NBin("==", NMyNode(), c(rank)), tuple(stmts), ())


def walk(prog, nprocs):
    code = Walker.compile(prog)
    chan_ids: dict[str, int] = {}
    return [
        Walker(code, rank, nprocs, {}, chan_ids).run([])
        for rank in range(nprocs)
    ]


def compute(ops, mems):
    return (KIND_COMPUTE, -1, -1, 0, ops, mems)


def send(dst):
    return (KIND_SEND, dst, 0, 1, 0, 0)


def recv(src):
    return (KIND_RECV, src, 0, 0, 0, 0)


def repeat(span, count):
    return (KIND_REPEAT, -1, -1, 0, span, count)


def pair(trips):
    """Rank 0 computes and sends ``trips`` times, rank 1 receives."""
    return program(
        *PROLOGUE,
        on_rank(0, loop("i", trips, WORK, NSend(c(1), "c", (c(7),)))),
        on_rank(1, loop("i", trips, NRecv(c(0), "c", (VarLV("x"),)), WORK)),
        WORK,
    )


@pytest.mark.parametrize("trips", (1, 2))
def test_no_marker_when_nothing_is_left_to_repeat(trips):
    sender, receiver = walk(pair(trips), 2)
    steady = [send(1), compute(2, 1)]
    assert sender == [compute(4, 3)] + steady * trips
    assert receiver == (
        [compute(4, 2)] + [recv(0), compute(2, 1)] * (trips - 1)
        + [recv(0), compute(2, 2)]
    )


@pytest.mark.parametrize("trips", (3, 6))
def test_one_marker_stands_for_the_remaining_iterations(trips):
    sender, receiver = walk(pair(trips), 2)
    assert sender == [
        compute(4, 3), send(1), compute(2, 1), send(1),
        repeat(2, trips - 2), compute(2, 1),
    ]
    assert receiver == [
        compute(4, 2), recv(0), compute(2, 1), recv(0),
        repeat(2, trips - 2), compute(2, 2),
    ]
    # ... which are the rows the walker used to materialise.
    assert expand(sender) == (
        [compute(4, 3)] + [send(1), compute(2, 1)] * trips
    )
    assert expand(receiver) == (
        [compute(4, 2)] + [recv(0), compute(2, 1)] * (trips - 1)
        + [recv(0), compute(2, 2)]
    )


@pytest.mark.parametrize("trips, total", ((2, (8, 5)), (6, (20, 9))))
def test_guarded_off_communication_stays_pure_compute(trips, total):
    prog = program(
        *PROLOGUE,
        loop("i", trips, WORK, on_rank(7, NSend(c(1), "c", (c(7),)))),
        WORK,
    )
    assert walk(prog, 2) == [[compute(*total)]] * 2


OUTER, INNER = 4, 5
NESTED = program(
    *PROLOGUE,
    loop("i", OUTER, WORK,
         loop("j", INNER, NSend(RIGHT, "ring", (c(7),)), WORK,
              NRecv(LEFT, "ring", (VarLV("x"),))),
         WORK, WORK),
    WORK,
)


def nested_golden(rank, nprocs):
    """The 81 rows a rank of NESTED pushes through the simulator."""
    right, left = (rank + 1) % nprocs, (rank - 1) % nprocs
    exchange = [send(right), compute(4, 1), recv(left)]
    inner = exchange + ([compute(3, 0)] + exchange) * (INNER - 1)
    return (
        [compute(6, 3)] + inner
        + ([compute(7, 3)] + inner) * (OUTER - 1)
        + [compute(3, 3)]
    )


@pytest.mark.parametrize("nprocs", (2, 3))
def test_nested_replicable_loops_stay_flat(nprocs):
    per_rank = walk(NESTED, nprocs)
    for rank, rows in enumerate(per_rank):
        # One inner marker per outer iteration, copied compact — and no
        # marker reaches back over another.
        markers = [i for i, row in enumerate(rows) if row[0] == KIND_REPEAT]
        assert [rows[i] for i in markers] == [repeat(4, INNER - 2)] * OUTER
        assert len(rows) == 1 + OUTER * 9
        for i in markers:
            span = rows[i - rows[i][4]:i]
            assert len(span) == rows[i][4]
            assert all(row[0] != KIND_REPEAT for row in span)
        assert expand(rows) == nested_golden(rank, nprocs), rank


@pytest.mark.parametrize("nprocs", (2, 3))
def test_nested_replay_is_compiled_bit_for_bit(nprocs):
    pytest.importorskip("numpy")
    from repro.replay import extract_skeletons, replay

    compiled = run_spmd(NESTED, nprocs, lambda rank: [], backend="compiled")
    skeleton = extract_skeletons(NESTED, nprocs, lambda rank: [], {})
    assert skeleton.compact_rows() == walk(NESTED, nprocs)
    assert skeleton.total_events == 81 * nprocs
    for engine in ("vector", "scalar"):
        got = replay(skeleton, engine=engine)
        want = compiled.sim
        assert got.finish_times_us == want.finish_times_us, engine
        assert got.busy_times_us == want.busy_times_us, engine
        assert got.comm_times_us == want.comm_times_us, engine
        assert got.stats.per_channel == want.stats.per_channel, engine
        assert got.stats.per_channel_bytes == \
            want.stats.per_channel_bytes, engine
