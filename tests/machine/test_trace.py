"""Tests for trace rendering utilities."""

from repro.machine import MachineParams, Recv, Send, Simulator
from repro.machine.trace import render_timeline

FREE = MachineParams.free_messages()


def traced_pingpong():
    def factory(rank):
        def pinger():
            yield Send(1, "ping", (1,))
            yield Recv(1, "pong")
            return None

        def ponger():
            yield Recv(0, "ping")
            yield Send(0, "pong", (2,))
            return None

        return pinger() if rank == 0 else ponger()

    return Simulator(2, MachineParams.ipsc2(), trace=True).run(factory)


class TestRenderTimeline:
    def test_rows_per_process(self):
        text = render_timeline(traced_pingpong())
        assert "p0" in text and "p1" in text
        assert "s=send" in text

    def test_marks_present(self):
        text = render_timeline(traced_pingpong())
        assert "s" in text and "r" in text

    def test_untraced_run_reports_gracefully(self):
        def factory(rank):
            def proc():
                return None
                yield  # pragma: no cover

            return proc()

        result = Simulator(1, FREE).run(factory)
        assert "no trace" in render_timeline(result)

    def test_width_respected(self):
        text = render_timeline(traced_pingpong(), width=20)
        row = [line for line in text.splitlines() if line.startswith("p0")][0]
        assert len(row.split("|")[1]) == 20

    def test_legend_reserves_star_for_send_plus_recv(self):
        text = render_timeline(traced_pingpong())
        assert "*=send+recv" in text

    def test_done_never_hides_communication(self):
        # At width=1 every event of a rank lands in the same bucket:
        # ranks that communicated must show comm marks, not be swallowed
        # by their own done mark; an idle rank shows plain ".".
        def factory(rank):
            def pinger():
                yield Send(1, "ping", (1,))
                yield Recv(1, "pong")
                return None

            def ponger():
                yield Recv(0, "ping")
                yield Send(0, "pong", (2,))
                return None

            def idler():
                return None
                yield  # pragma: no cover

            return [pinger, ponger, idler][rank]()

        result = Simulator(3, MachineParams.ipsc2(), trace=True).run(factory)
        rows = {
            line.split()[0]: line.split("|")[1]
            for line in render_timeline(result, width=1).splitlines()
            if line.startswith("p")
        }
        assert rows["p0"] == "*"  # send and recv collided, done hidden
        assert rows["p1"] == "*"
        assert rows["p2"] == "."  # nothing to hide: done shows through

    def test_send_mark_survives_done_in_same_bucket(self):
        def factory(rank):
            def sender():
                yield Send(1, "c", (1,))
                return None

            def receiver():
                yield Recv(0, "c")
                return None

            return sender() if rank == 0 else receiver()

        result = Simulator(2, MachineParams.ipsc2(), trace=True).run(factory)
        row = [
            line for line in render_timeline(result, width=1).splitlines()
            if line.startswith("p0")
        ][0]
        assert row.split("|")[1] == "s"
