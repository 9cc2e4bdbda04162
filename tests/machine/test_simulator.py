"""Discrete-event simulator tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DeadlockError, NodeRuntimeError, SimulationError
from repro.machine import (
    Compute,
    MachineParams,
    Recv,
    Send,
    Simulator,
)
from repro.machine.stats import ChannelKey

FREE = MachineParams.free_messages()


def run(nprocs, make, params=None, trace=False):
    return Simulator(nprocs, params or FREE, trace=trace).run(make)


class TestBasics:
    def test_single_compute_process(self):
        def make(rank):
            def proc():
                yield Compute(10.0)
                yield Compute(5.0)
                return rank * 100

            return proc()

        result = run(2, make)
        assert result.finish_times_us == [15.0, 15.0]
        assert result.returned == [0, 100]
        assert result.makespan_us == 15.0

    def test_message_delivery(self):
        def make(rank):
            def sender():
                yield Send(1, "data", (42, 43))
                return None

            def receiver():
                payload = yield Recv(0, "data")
                return payload

            return sender() if rank == 0 else receiver()

        result = run(2, make)
        assert result.returned[1] == (42, 43)
        assert result.total_messages == 1

    def test_fifo_order_per_channel(self):
        def make(rank):
            def sender():
                for k in range(5):
                    yield Send(1, "c", (k,))
                return None

            def receiver():
                got = []
                for _ in range(5):
                    payload = yield Recv(0, "c")
                    got.append(payload[0])
                return got

            return sender() if rank == 0 else receiver()

        result = run(2, make)
        assert result.returned[1] == [0, 1, 2, 3, 4]

    def test_channels_are_independent(self):
        def make(rank):
            def sender():
                yield Send(1, "a", (1,))
                yield Send(1, "b", (2,))
                return None

            def receiver():
                b = yield Recv(0, "b")
                a = yield Recv(0, "a")
                return (a[0], b[0])

            return sender() if rank == 0 else receiver()

        result = run(2, make)
        assert result.returned[1] == (1, 2)

    def test_receiver_can_start_before_sender(self):
        # Rank 0 blocks on a recv first; rank 1 sends later; must unblock.
        def make(rank):
            def first():
                payload = yield Recv(1, "x")
                return payload[0]

            def second():
                yield Compute(100.0)
                yield Send(0, "x", (7,))
                return None

            return first() if rank == 0 else second()

        result = run(2, make)
        assert result.returned[0] == 7


class TestTiming:
    PARAMS = MachineParams(
        send_startup_us=100.0,
        recv_overhead_us=10.0,
        per_byte_us=1.0,
        latency_us=5.0,
        op_us=1.0,
        scalar_bytes=4,
    )

    def test_send_cost_charged_to_sender(self):
        def make(rank):
            def sender():
                yield Send(1, "c", (1,))  # 4 bytes
                return None

            def receiver():
                yield Recv(0, "c")
                return None

            return sender() if rank == 0 else receiver()

        result = run(2, make, params=self.PARAMS)
        # sender: 100 startup + 4 bytes * 1us = 104
        assert result.finish_times_us[0] == pytest.approx(104.0)
        # receiver: arrival (104 + 5) + overhead 10 = 119
        assert result.finish_times_us[1] == pytest.approx(119.0)

    def test_recv_after_arrival_not_delayed(self):
        def make(rank):
            def sender():
                yield Send(1, "c", (1,))
                return None

            def receiver():
                yield Compute(1000.0)  # already past the arrival time
                yield Recv(0, "c")
                return None

            return sender() if rank == 0 else receiver()

        result = run(2, make, params=self.PARAMS)
        assert result.finish_times_us[1] == pytest.approx(1010.0)

    def test_pipeline_overlaps(self):
        # Two-stage pipeline: with blocking recv, stage 1 of item k+1
        # overlaps stage 2 of item k.
        items = 10
        work = 50.0

        def make(rank):
            def stage0():
                for _ in range(items):
                    yield Compute(work)
                    yield Send(1, "pipe", (0,))
                return None

            def stage1():
                for _ in range(items):
                    yield Recv(0, "pipe")
                    yield Compute(work)
                return None

            return stage0() if rank == 0 else stage1()

        result = run(2, make, params=MachineParams.free_messages())
        # Perfect pipelining: items*work + work, not 2*items*work.
        assert result.makespan_us < 2 * items * work
        assert result.makespan_us >= items * work

    def test_busy_vs_idle(self):
        def make(rank):
            def sender():
                yield Compute(500.0)
                yield Send(1, "c", (1,))
                return None

            def receiver():
                yield Recv(0, "c")
                return None

            return sender() if rank == 0 else receiver()

        result = run(2, make, params=self.PARAMS)
        # Receiver idles while the sender computes.
        assert result.busy_times_us[1] == pytest.approx(10.0)
        assert result.finish_times_us[1] > 500.0


class TestStats:
    def test_counts_and_bytes(self):
        def make(rank):
            def sender():
                yield Send(1, "a", (1, 2, 3))
                yield Send(1, "a", (4,))
                return None

            def receiver():
                yield Recv(0, "a")
                yield Recv(0, "a")
                return None

            return sender() if rank == 0 else receiver()

        result = run(2, make)
        assert result.total_messages == 2
        assert result.stats.total_bytes == 16
        assert result.stats.messages_by_channel_name() == {"a": 2}
        assert result.stats.messages_from(0) == 2
        assert result.stats.messages_to(1) == 2

    def test_trace(self):
        def make(rank):
            def sender():
                yield Send(1, "a", (1,))
                return None

            def receiver():
                yield Recv(0, "a")
                return None

            return sender() if rank == 0 else receiver()

        result = run(2, make, trace=True)
        kinds = [e.kind for e in result.trace]
        assert "send" in kinds and "recv" in kinds and "done" in kinds


class TestErrors:
    def test_deadlock_detected(self):
        def make(rank):
            def proc():
                other = 1 - rank
                yield Recv(other, "never")
                return None

            return proc()

        with pytest.raises(DeadlockError) as err:
            run(2, make)
        assert set(err.value.blocked) == {0, 1}

    def test_self_send_rejected(self):
        def make(rank):
            def proc():
                yield Send(rank, "c", (1,))
                return None

            return proc()

        with pytest.raises(NodeRuntimeError, match="self-send"):
            run(1, make)

    def test_invalid_destination(self):
        def make(rank):
            def proc():
                yield Send(99, "c", (1,))
                return None

            return proc()

        with pytest.raises(NodeRuntimeError, match="invalid processor"):
            run(2, make)

    def test_process_exception_wrapped_with_rank(self):
        def make(rank):
            def proc():
                yield Compute(1.0)
                if rank == 1:
                    raise ValueError("boom")
                return None

            return proc()

        with pytest.raises(NodeRuntimeError, match=r"\[proc 1\] boom"):
            run(2, make)

    def test_zero_procs_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(0)

    def test_runaway_detected(self):
        def make(rank):
            def proc():
                while True:
                    yield Compute(0.0)

            return proc()

        with pytest.raises(SimulationError, match="steps"):
            Simulator(1, FREE, max_steps=1000).run(make)


class TestForensics:
    def test_deadlock_carries_wait_for_graph(self):
        # A classic crossed pair: each rank receives on a channel the
        # other never sends.
        def make(rank):
            def zero():
                yield Recv(1, "a")
                return None

            def one():
                yield Recv(0, "b")
                return None

            return zero() if rank == 0 else one()

        with pytest.raises(DeadlockError) as err:
            run(2, make)
        wait_for = err.value.wait_for
        assert set(wait_for) == {0, 1}
        assert wait_for[0]["key"] == (1, 0, "a")
        assert wait_for[0]["sender_status"] == "BLOCKED"
        assert wait_for[0]["sender_waiting_on"] == (0, 1, "b")
        assert wait_for[1]["key"] == (0, 1, "b")
        assert wait_for[1]["sender_waiting_on"] == (1, 0, "a")
        message = str(err.value)
        assert "rank 0 waits on 1 'a'" in message
        assert "itself waiting on 0 'b'" in message

    def test_deadlock_lists_undelivered_queue_contents(self):
        # Rank 0 ships a message on the wrong channel name, then blocks:
        # the forensics must point at the queued-but-unread traffic.
        def make(rank):
            def zero():
                yield Send(1, "tyop", (9,))
                yield Recv(1, "reply")
                return None

            def one():
                yield Recv(0, "typo")
                return None

            return zero() if rank == 0 else one()

        with pytest.raises(DeadlockError) as err:
            run(2, make)
        assert err.value.undelivered == {(0, 1, "tyop"): 1}
        assert "undelivered in queues: 0->1 'tyop' x1" in str(err.value)

    def test_undelivered_recorded_on_result(self):
        def make(rank):
            def sender():
                yield Send(1, "extra", (1,))
                yield Send(1, "extra", (2,))
                yield Send(1, "used", (3,))
                return None

            def receiver():
                yield Recv(0, "used")
                return None

            return sender() if rank == 0 else receiver()

        result = run(2, make)
        assert result.undelivered_count == 2
        ((key, count),) = result.undelivered.items()
        assert (key.src, key.dst, key.channel) == (0, 1, "extra")
        assert count == 2

    def test_clean_run_has_no_undelivered(self):
        def make(rank):
            def sender():
                yield Send(1, "c", (1,))
                return None

            def receiver():
                yield Recv(0, "c")
                return None

            return sender() if rank == 0 else receiver()

        result = run(2, make)
        assert result.undelivered == {}
        assert result.undelivered_count == 0

    def test_undelivered_messages_are_counted(self):
        def make(rank):
            def sender():
                yield Send(1, "lost", (1,))
                return None

            def receiver():
                return None
                yield  # pragma: no cover

            return sender() if rank == 0 else receiver()

        result = Simulator(2, FREE).run(make)
        assert result.undelivered == {ChannelKey(0, 1, "lost"): 1}
        assert result.undelivered_count == 1

    def test_runaway_error_names_hottest_process(self):
        def make(rank):
            def calm():
                yield Compute(1.0)
                return None

            def spinner():
                while True:
                    yield Compute(0.0)

            return calm() if rank == 0 else spinner()

        with pytest.raises(SimulationError, match="rank 1"):
            Simulator(2, FREE, max_steps=500).run(make)

    def test_generators_closed_after_deadlock(self):
        # The scheduler must close every live generator on the way out
        # so their finally blocks run (no dangling resources).
        closed = []

        def make(rank):
            def proc():
                try:
                    yield Recv(1 - rank, "never")
                finally:
                    closed.append(rank)
                return None

            return proc()

        with pytest.raises(DeadlockError):
            run(2, make)
        assert sorted(closed) == [0, 1]

    def test_generators_closed_after_node_error(self):
        closed = []

        def make(rank):
            def waiter():
                try:
                    yield Recv(1, "never")
                finally:
                    closed.append(rank)
                return None

            def crasher():
                yield Compute(1.0)
                raise ValueError("boom")

            return waiter() if rank == 0 else crasher()

        with pytest.raises(NodeRuntimeError):
            run(2, make)
        assert 0 in closed


class TestStructuredTrace:
    PARAMS = TestTiming.PARAMS

    def _pingpong(self):
        def make(rank):
            def sender():
                yield Send(1, "a", (1, 2))
                return None

            def receiver():
                yield Recv(0, "a")
                return None

            return sender() if rank == 0 else receiver()

        return Simulator(2, self.PARAMS, trace=True).run(make)

    def test_traced_flag(self):
        result = self._pingpong()
        assert result.traced
        untraced = Simulator(1, FREE).run(
            lambda rank: iter(())
        )
        assert not untraced.traced and untraced.trace == []

    def test_send_event_fields(self):
        result = self._pingpong()
        (send,) = [e for e in result.trace if e.kind == "send"]
        assert (send.src, send.dst, send.channel) == (0, 1, "a")
        assert send.plen == 2
        assert send.nbytes == 2 * self.PARAMS.scalar_bytes
        # startup 100 + 8 bytes * 1us = 108; wire adds 5us latency
        assert send.time_us == pytest.approx(108.0)
        assert send.overhead_us == pytest.approx(108.0)
        assert send.arrival_us == pytest.approx(113.0)
        assert not send.local

    def test_recv_event_fields(self):
        result = self._pingpong()
        (recv,) = [e for e in result.trace if e.kind == "recv"]
        assert (recv.src, recv.dst, recv.channel) == (0, 1, "a")
        # Receiver idled from 0 until the 113us arrival, then paid 10us.
        assert recv.wait_us == pytest.approx(113.0)
        assert recv.queue_us == 0.0
        assert recv.overhead_us == pytest.approx(10.0)
        assert recv.time_us == pytest.approx(123.0)

    def test_queue_time_recorded_when_receiver_is_late(self):
        def make(rank):
            def sender():
                yield Send(1, "a", (1,))
                return None

            def receiver():
                yield Compute(1000.0)
                yield Recv(0, "a")
                return None

            return sender() if rank == 0 else receiver()

        result = Simulator(2, self.PARAMS, trace=True).run(make)
        (recv,) = [e for e in result.trace if e.kind == "recv"]
        assert recv.wait_us == 0.0
        assert recv.queue_us > 0.0

    def test_both_ends_name_partner_channel_and_length(self):
        result = self._pingpong()
        events = {e.kind: e for e in result.trace}
        send, recv = events["send"], events["recv"]
        assert (send.dst, send.channel, send.plen) == (1, "a", 2)
        assert (recv.src, recv.channel, recv.plen) == (0, "a", 2)

    def test_tracing_does_not_perturb_simulated_times(self):
        def make(rank):
            def proc():
                other = 1 - rank
                yield Compute(10.0 * (rank + 1))
                yield Send(other, "x", (rank,))
                yield Recv(other, "x")
                return None

            return proc()

        plain = Simulator(2, self.PARAMS).run(make)
        traced = Simulator(2, self.PARAMS, trace=True).run(make)
        assert plain.finish_times_us == traced.finish_times_us
        assert plain.busy_times_us == traced.busy_times_us
        assert plain.comm_times_us == traced.comm_times_us


class TestDeterminism:
    def test_repeat_runs_identical(self):
        def make(rank):
            def proc():
                total = 0
                left = (rank - 1) % 4
                right = (rank + 1) % 4
                yield Send(right, "ring", (rank,))
                payload = yield Recv(left, "ring")
                total += payload[0]
                yield Send(right, "ring2", (total,))
                payload = yield Recv(left, "ring2")
                return total + payload[0]

            return proc()

        first = run(4, make, params=MachineParams.ipsc2())
        second = run(4, make, params=MachineParams.ipsc2())
        assert first.returned == second.returned
        assert first.finish_times_us == second.finish_times_us


@given(nprocs=st.integers(2, 6), rounds=st.integers(1, 5))
def test_ring_pass_conserves_tokens(nprocs, rounds):
    """Token values survive any scheduling: each hop shifts by one rank."""

    def make(rank):
        def proc():
            token = rank
            left = (rank - 1) % nprocs
            right = (rank + 1) % nprocs
            for r in range(rounds):
                yield Send(right, f"r{r}", (token,))
                payload = yield Recv(left, f"r{r}")
                token = payload[0]
            return token

        return proc()

    result = run(nprocs, make)
    expected = [(rank - rounds) % nprocs for rank in range(nprocs)]
    assert result.returned == expected
