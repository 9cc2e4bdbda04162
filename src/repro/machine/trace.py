"""Rendering of simulation event traces.

``render_timeline`` draws an ASCII communication timeline — one row per
process, one column per time bucket — which makes pipeline structure
visible at a glance: the wavefront of Optimized II/III shows up as a
staircase of send/receive marks, while the unoptimized compile-time code
shows one long serial band.

Marks: ``s`` send, ``r`` receive, ``*`` send *and* receive in the same
bucket, ``.`` finished. A ``done`` mark never obscures communication
marks landing in the same bucket — only a genuine send/recv collision
collapses to ``*``.

For the richer views built on the structured event records — critical
path, utilization breakdown, src×dst heatmap, Chrome/Perfetto export —
see :mod:`repro.obs`.
"""

from __future__ import annotations

from repro.machine.simulator import SimResult

UNTRACED = "(no trace recorded; run the simulator with trace=True)"


def _untraced(result: SimResult) -> bool:
    return not result.traced and not result.trace


def render_timeline(
    result: SimResult, width: int = 72, label: str = "t"
) -> str:
    """ASCII timeline of a traced run (requires ``trace=True``)."""
    if _untraced(result):
        return UNTRACED
    horizon = max(result.makespan_us, 1e-9)
    buckets: dict[int, list[str]] = {
        rank: [" "] * width for rank in range(result.nprocs)
    }

    def mark(row: list[str], position: int, symbol: str) -> None:
        position = min(width - 1, max(0, position))
        current = row[position]
        if current == " " or current == symbol:
            row[position] = symbol
        elif symbol == ".":
            pass  # a done mark never hides communication activity
        elif current == ".":
            row[position] = symbol
        else:
            # Only send/recv (or an existing ``*``) reach here: the
            # bucket contains both kinds of communication.
            row[position] = "*"

    for event in result.trace:
        col = int(event.time_us / horizon * (width - 1))
        if event.kind == "send":
            mark(buckets[event.proc], col, "s")
        elif event.kind == "recv":
            mark(buckets[event.proc], col, "r")
        elif event.kind == "done":
            mark(buckets[event.proc], col, ".")

    lines = [f"timeline ({label} = 0 .. {horizon:.0f} us)"]
    for rank in range(result.nprocs):
        lines.append(f"p{rank:<3d} |{''.join(buckets[rank])}|")
    lines.append("      s=send r=recv *=send+recv .=done")
    return "\n".join(lines)
