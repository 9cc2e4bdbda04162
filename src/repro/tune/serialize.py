"""JSON-safe serialization of tune search results.

One canonical encoding of :class:`~repro.tune.search.Candidate` and
:class:`~repro.tune.search.TuneReport`, shared by every surface that
ships rankings over a wire: the bench CLI's ``tune --json`` dumps and
the control plane's artifact records (:mod:`repro.service`). Keeping it
here — next to the dataclasses it flattens — means a field added to the
search result shows up everywhere at once instead of drifting per
consumer.
"""

from __future__ import annotations

from dataclasses import asdict


def channel_totals(counts: dict) -> dict:
    """``{src->dst:channel: total}`` — ChannelKey objects flattened."""
    return {f"{k.src}->{k.dst}:{k.channel}": v for k, v in counts.items()}


def candidate_payload(cand) -> dict:
    """Everything learned about one searched configuration, JSON-safe."""
    out = {
        "dist": cand.config.dist,
        "strategy": cand.config.strategy,
        "nprocs": cand.config.nprocs,
        "blksize": cand.config.blksize,
        "label": cand.config.label,
        "predicted_us": cand.predicted_us,
        "measured_us": cand.measured_us,
        "error": cand.error,
    }
    if cand.predicted is not None:
        out["predicted"] = {
            "makespan_us": cand.predicted.makespan_us,
            "total_messages": cand.predicted.total_messages,
            "total_bytes": cand.predicted.total_bytes,
            "per_channel": channel_totals(cand.predicted.per_channel),
            "per_channel_bytes": channel_totals(
                cand.predicted.per_channel_bytes
            ),
        }
    if cand.measured is not None:
        out["measured"] = asdict(cand.measured)
    return out


def report_payload(report, **extra) -> dict:
    """A whole :class:`TuneReport` — ranked candidates, best, metadata."""
    payload = {
        **extra,
        "n": report.n,
        "space_size": report.space_size,
        "simulations": report.simulations,
        "spearman": report.spearman,
        "best": (
            candidate_payload(report.best)
            if report.best is not None else None
        ),
        "candidates": [candidate_payload(c) for c in report.candidates],
    }
    if report.derived_maps is not None:
        payload["derived_maps"] = report.derived_maps
    return payload
