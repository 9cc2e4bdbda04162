"""Columnar skeleton-replay backend (``backend="replay"``).

Extract each rank's static event skeleton once (:mod:`.skeleton`), then
replay virtual clocks over flat numpy columns (:mod:`.engine`) —
bit-identical timing, statistics, and failure verdicts to the compiled
backend, without executing any array code. Requires numpy; the other
backends do not.
"""

from repro.replay.engine import group_ordinals, match_messages, replay
from repro.replay.plan import ReplayPlan, build_plan, get_plan
from repro.replay.vector import hybrid_walk
from repro.replay.skeleton import (
    KIND_COMPUTE,
    KIND_RECV,
    KIND_SEND,
    ProgramSkeleton,
    RankSkeleton,
    ReplayAbstention,
    build_skeleton,
    extract_skeletons,
)

__all__ = [
    "KIND_COMPUTE",
    "KIND_RECV",
    "KIND_SEND",
    "ProgramSkeleton",
    "RankSkeleton",
    "ReplayAbstention",
    "ReplayPlan",
    "build_plan",
    "build_skeleton",
    "extract_skeletons",
    "get_plan",
    "group_ordinals",
    "hybrid_walk",
    "match_messages",
    "replay",
]
