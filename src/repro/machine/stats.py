"""Message statistics collected by the simulator.

The paper's key machine-independent numbers are message counts (footnote
3: 31,752 messages for run-time resolution vs 2,142 hand-written), so the
simulator tracks counts and bytes per (src, dst, channel).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple


class ChannelKey(NamedTuple):
    src: int
    dst: int
    channel: str


@dataclass
class MessageStats:
    """Counts and byte totals, overall and per channel."""

    total_messages: int = 0
    total_bytes: int = 0
    per_channel: dict[ChannelKey, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    per_channel_bytes: dict[ChannelKey, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def record(self, key: ChannelKey, nbytes: int) -> None:
        self.total_messages += 1
        self.total_bytes += nbytes
        self.per_channel[key] += 1
        self.per_channel_bytes[key] += nbytes

    def messages_by_channel_name(self) -> dict[str, int]:
        """Message counts aggregated over processor pairs."""
        out: dict[str, int] = defaultdict(int)
        for key, count in self.per_channel.items():
            out[key.channel] += count
        return dict(out)

    def messages_from(self, src: int) -> int:
        return sum(c for k, c in self.per_channel.items() if k.src == src)

    def messages_to(self, dst: int) -> int:
        return sum(c for k, c in self.per_channel.items() if k.dst == dst)
