"""Shared helper for the replay tests."""

import os


def assert_replayed(result, label: str = "replay") -> None:
    """``result`` (an ``SPMDResult``) ran on the replay backend.

    Forcing the scalar oracle via the environment (CI's differential
    leg) legitimately records an engine note; any *other*
    ``fallback_reason`` is an unexpected fallback.
    """
    forced = os.environ.get("REPRO_REPLAY_SCALAR", "") not in ("", "0")
    note = "scalar clock walk (REPRO_REPLAY_SCALAR=1)" if forced else None
    assert result.backend == "replay", (
        f"{label}: fell back ({result.fallback_reason})"
    )
    assert result.fallback_reason == note, label
