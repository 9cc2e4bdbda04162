"""Static communication-safety verifier and locality analyzer.

Proves send/recv matching, deadlock-freedom, I-structure
single-assignment, and guard coverage over compiled SPMD IR — without
running the simulator (``docs/INTERNALS.md`` §12) — and derives ranked
candidate decomposition maps from the loop nests' affine access
functions (``docs/INTERNALS.md`` §16).
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    Report,
    Severity,
    render_json,
    render_text,
)
from repro.analysis.verify import clock_ranks, verify_compiled, walk_ranks
from repro.analysis.access import (
    Reference,
    StatementAccess,
    extract_references,
)
from repro.analysis.locality import (  # noqa: F401  (registers the pass)
    LocalityResult,
    MapCandidate,
    analyze,
)

__all__ = [
    "Diagnostic",
    "Report",
    "Severity",
    "render_json",
    "render_text",
    "clock_ranks",
    "verify_compiled",
    "walk_ranks",
    "Reference",
    "StatementAccess",
    "extract_references",
    "LocalityResult",
    "MapCandidate",
    "analyze",
]
