"""Unit tests for the columnar replay engine on hand-built skeletons.

These pin the FIFO-matching array arithmetic and the clock algebra to
hand-computed values, independent of any compiler output: send cost
``350 + 0.36 * nbytes``, receive completion ``max(clock, arrival) +
100``, arrival ``sender clock + 5`` (the iPSC/2 defaults).
"""

import pytest

np = pytest.importorskip("numpy")

from repro.errors import DeadlockError, SimulationError
from repro.machine.costs import MachineParams
from repro.machine.stats import ChannelKey
from repro.replay import (
    KIND_COMPUTE,
    KIND_RECV,
    KIND_SEND,
    build_skeleton,
    group_ordinals,
    match_messages,
    replay,
)

IPSC2 = MachineParams.ipsc2()
SEND1 = 350.0 + 0.36 * 4  # one scalar: 351.44 us on the sender
RECV = 100.0
LAT = 5.0


def test_group_ordinals_count_within_groups_in_order():
    keys = np.array([5, 3, 5, 5, 3, 9], dtype=np.int64)
    assert group_ordinals(keys).tolist() == [0, 0, 1, 2, 1, 0]
    assert group_ordinals(np.empty(0, dtype=np.int64)).tolist() == []


def test_columnize_packs_and_interns_channels():
    sk = build_skeleton(2, [
        [("c", 7, 3), ("s", 1, "right", 4)],
        [("r", 0, "right"), ("c", 1, 0)],
    ])
    r0, r1 = sk.ranks
    assert sk.channels == ("right",)
    assert r0.kind.tolist() == [KIND_COMPUTE, KIND_SEND]
    assert r0.ops.tolist() == [7, 0] and r0.mems.tolist() == [3, 0]
    assert r0.peer.tolist() == [-1, 1] and r0.plen.tolist() == [0, 4]
    assert r1.kind.tolist() == [KIND_RECV, KIND_COMPUTE]
    assert r1.peer.tolist() == [0, -1]
    assert sk.total_events == 4
    # One table for the program; the ranks are slices of its expansion.
    assert sk.offsets.tolist() == [0, 2, 4]
    assert sk.table[0].tolist() == r0.kind.tolist() + r1.kind.tolist()
    assert r0.kind.base is r1.kind.base is not None


def test_match_messages_fifo_per_channel():
    sk = build_skeleton(2, [
        [("s", 1, "a", 1), ("s", 1, "b", 1), ("s", 1, "a", 1)],
        [("r", 0, "a"), ("r", 0, "a"), ("r", 0, "b")],
    ])
    match_rank, match_idx = match_messages(sk)
    assert match_rank[0].tolist() == [-1, -1, -1]  # sends never match
    assert match_rank[1].tolist() == [0, 0, 0]
    # k-th receive on a channel matches the k-th send on it, by sender
    # event index: 'a' sends sit at positions 0 and 2, 'b' at 1.
    assert match_idx[1].tolist() == [0, 2, 1]


def test_match_messages_unmatched_recv_is_minus_one():
    sk = build_skeleton(2, [
        [("s", 1, "a", 1)],
        [("r", 0, "a"), ("r", 0, "a")],
    ])
    _, match_idx = match_messages(sk)
    assert match_idx[1].tolist() == [0, -1]


def test_single_message_clock_algebra():
    sk = build_skeleton(2, [
        [("s", 1, "x", 1)],
        [("r", 0, "x")],
    ])
    result = replay(sk, IPSC2)
    assert result.finish_times_us[0] == SEND1
    # arrival = send completion + latency; receiver was idle at 0.
    assert result.finish_times_us[1] == SEND1 + LAT + RECV
    assert result.busy_times_us == [SEND1, RECV]
    assert result.comm_times_us == [SEND1, RECV]
    assert result.makespan_us == SEND1 + LAT + RECV
    assert result.returned == [None, None]
    assert result.undelivered == {}
    key = ChannelKey(0, 1, "x")
    assert result.stats.per_channel == {key: 1}
    assert result.stats.per_channel_bytes == {key: 4}
    assert result.stats.total_messages == 1
    assert result.stats.total_bytes == 4


def test_receiver_already_past_arrival_pays_only_overhead():
    # Receiver computes long enough that the message is queued before
    # the receive is issued: completion is clock + overhead, no wait.
    work = 1000  # ops -> 1000.0 us at op_us=1.0
    sk = build_skeleton(2, [
        [("s", 1, "x", 1)],
        [("c", work, 0), ("r", 0, "x")],
    ])
    result = replay(sk, IPSC2)
    assert result.finish_times_us[1] == float(work) + RECV


def test_compute_cost_is_ops_plus_mems():
    sk = build_skeleton(1, [[("c", 5, 3)]])
    result = replay(sk, IPSC2)
    assert result.finish_times_us[0] == 5 * 1.0 + 3 * 0.5


def test_fifo_pipeline_through_intermediate_rank():
    # 0 -> 1 -> 2 chain: rank 1 forwards after receiving.
    sk = build_skeleton(3, [
        [("s", 1, "x", 1)],
        [("r", 0, "x"), ("s", 2, "x", 1)],
        [("r", 1, "x")],
    ])
    result = replay(sk, IPSC2)
    t1 = SEND1 + LAT + RECV          # rank 1 consumed
    t1s = t1 + SEND1                 # rank 1 forwarded
    assert result.finish_times_us == [SEND1, t1s, t1s + LAT + RECV]


def test_cyclic_deadlock_forensics():
    sk = build_skeleton(2, [
        [("r", 1, "a")],
        [("r", 0, "b")],
    ])
    with pytest.raises(DeadlockError) as exc_info:
        replay(sk, IPSC2)
    err = exc_info.value
    assert err.blocked == {
        0: str(ChannelKey(1, 0, "a")),
        1: str(ChannelKey(0, 1, "b")),
    }
    assert err.wait_for[0] == {
        "key": (1, 0, "a"),
        "sender_status": "BLOCKED",
        "sender_waiting_on": (0, 1, "b"),
    }
    assert err.wait_for[1]["sender_waiting_on"] == (1, 0, "a")
    assert err.undelivered == {}
    lines = str(err).splitlines()
    assert lines[0] == "all live processes are blocked on receives"
    assert lines[1] == "  rank 0 waits on 1 'a' (sender BLOCKED, itself waiting on 0 'b')"


def test_deadlock_with_queued_traffic_lists_undelivered():
    # Rank 0 sends on the wrong channel name, then waits forever.
    sk = build_skeleton(2, [
        [("s", 1, "typo", 1), ("r", 1, "a")],
        [("r", 0, "b")],
    ])
    with pytest.raises(DeadlockError) as exc_info:
        replay(sk, IPSC2)
    err = exc_info.value
    assert err.undelivered == {(0, 1, "typo"): 1}
    assert "undelivered in queues: 0->1 'typo' x1" in str(err)


def test_deadlock_matches_live_engine_verdict():
    """The exact same stuck configuration through the live simulator
    must produce a byte-identical DeadlockError."""
    from repro.machine import Recv, Simulator

    def factory(rank):
        def proc():
            yield Recv(1 - rank, "a" if rank == 0 else "b")
        return proc()

    with pytest.raises(DeadlockError) as live:
        Simulator(2, IPSC2).run(factory)
    sk = build_skeleton(2, [[("r", 1, "a")], [("r", 0, "b")]])
    with pytest.raises(DeadlockError) as cols:
        replay(sk, IPSC2)
    assert str(live.value) == str(cols.value)
    assert live.value.blocked == cols.value.blocked
    assert live.value.wait_for == cols.value.wait_for
    assert live.value.undelivered == cols.value.undelivered


def test_undelivered_recorded_and_strict_mode_raises():
    sk = build_skeleton(2, [
        [("s", 1, "x", 1), ("s", 1, "x", 1), ("s", 1, "y", 2)],
        [("r", 0, "x")],
    ])
    result = replay(sk, IPSC2)
    assert result.undelivered == {
        ChannelKey(0, 1, "x"): 1,
        ChannelKey(0, 1, "y"): 1,
    }
    with pytest.raises(SimulationError) as exc_info:
        replay(sk, IPSC2, strict=True)
    assert "2 undelivered message(s) at completion (strict mode)" in str(
        exc_info.value
    )
    assert "0->1 'x' x1" in str(exc_info.value)
    assert "0->1 'y' x1" in str(exc_info.value)


def test_vector_payload_send_cost_scales_with_bytes():
    sk = build_skeleton(2, [
        [("s", 1, "x", 8)],
        [("r", 0, "x")],
    ])
    result = replay(sk, IPSC2)
    send8 = 350.0 + 0.36 * (8 * 4)
    assert result.finish_times_us[0] == send8
    assert result.stats.total_bytes == 32
