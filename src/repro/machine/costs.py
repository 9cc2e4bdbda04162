"""Machine cost parameters.

The iPSC/2 preset reflects the published characteristics of the machine
the paper targets: a message start-up time of a few hundred microseconds
(the paper: "messages on the Intel iPSC/2 are very expensive" and "the
time for packing and unpacking a message dominates the time-of-flight"),
a modest per-byte cost, and 80386-class scalar speed.

All times are in microseconds of simulated time. The reproduction's
qualitative results depend only on start-up cost dominating per-byte cost;
``python -m repro.bench reproduce`` demonstrates this by sweeping alpha
(the Sensitivity claim of :mod:`repro.bench.paper`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MachineParams:
    """Cost model for the simulated message-passing machine."""

    send_startup_us: float = 350.0
    """Fixed cost charged to the sender per message (csend start-up)."""

    recv_overhead_us: float = 100.0
    """Fixed cost charged to the receiver when a message is consumed."""

    per_byte_us: float = 0.36
    """Bandwidth term charged to the sender per byte."""

    latency_us: float = 5.0
    """Network time-of-flight, identical for every processor pair (§2.2)."""

    op_us: float = 1.0
    """Cost of one scalar operation (arithmetic, comparison, guard test)."""

    mem_us: float = 0.5
    """Cost of one local array / I-structure access."""

    scalar_bytes: int = 4
    """Size of one transmitted scalar (a C int on the iPSC/2)."""

    def message_cost_send(self, nbytes: int) -> float:
        """Sender-side cost of transmitting one message."""
        return self.send_startup_us + self.per_byte_us * nbytes

    def message_cost_recv(self) -> float:
        """Receiver-side cost of consuming one message."""
        return self.recv_overhead_us

    def with_(self, **kwargs) -> "MachineParams":
        """A copy with some fields replaced (for sensitivity sweeps)."""
        return replace(self, **kwargs)

    @classmethod
    def ipsc2(cls) -> "MachineParams":
        """Intel iPSC/2 calibration (the paper's machine)."""
        return cls()

    @classmethod
    def free_messages(cls) -> "MachineParams":
        """Degenerate model where communication is free (testing only)."""
        return cls(
            send_startup_us=0.0,
            recv_overhead_us=0.0,
            per_byte_us=0.0,
            latency_us=0.0,
        )
