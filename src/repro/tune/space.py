"""The tuner's configuration space.

A configuration is one point the search can evaluate: a distribution for
the program's arrays, a resolution strategy, a ring size, and (for
Optimized III) a strip-mining block size. Retargeting a program onto a
different distribution rewrites its ``map X by ...`` declarations in the
*source text* — deliberately, so :func:`repro.core.compiler.
compile_program_cached` (keyed on source) memoizes every candidate
compilation for free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.compiler import OptLevel, Strategy
from repro.distrib.builtin import DISTRIBUTIONS, LAYOUTS, distribution_by_name
from repro.errors import TuneError

STRATEGIES: dict[str, tuple[Strategy, OptLevel]] = {
    "runtime": (Strategy.RUNTIME, OptLevel.NONE),
    "compile": (Strategy.COMPILE_TIME, OptLevel.NONE),
    "optI": (Strategy.COMPILE_TIME, OptLevel.VECTORIZE),
    "optII": (Strategy.COMPILE_TIME, OptLevel.JAM),
    "optIII": (Strategy.COMPILE_TIME, OptLevel.STRIPMINE),
    "inspector": (Strategy.INSPECTOR, OptLevel.NONE),
}

# The strategies ``tune()`` searches when none are named. "inspector"
# is left out because it only pays off on irregular programs, which the
# regular apps are not.
DEFAULT_STRATEGIES = ("runtime", "compile", "optI", "optII", "optIII")

# The matrix layouts, for callers that spell the distribution axis out;
# ``tune()`` without ``dists`` searches the analyzer's family instead,
# which for a matrix program is the same six.
DEFAULT_DISTS = tuple(dist for _, _, dist in LAYOUTS[2])

DEFAULT_BLKSIZES = (1, 2, 4, 8, 16)

_DIST_RE = re.compile(r"^(\w+)(?:\(\s*(\d+(?:\s*,\s*\d+)*)\s*\))?$")
_MAP_RE = re.compile(r"(\bby\s+)\w+(\([^)]*\))?")


def parse_dist(text: str):
    """Validate a distribution spelled as ``name`` or ``name(args)``.

    Returns the instantiated :class:`~repro.distrib.base.Distribution`;
    raises :class:`TuneError` with a one-line message otherwise."""
    m = _DIST_RE.match(text.strip())
    if m is None:
        raise TuneError(
            f"malformed distribution {text!r} (expected name or name(args))"
        )
    name, args = m.group(1), m.group(2)
    if name not in DISTRIBUTIONS:
        known = ", ".join(sorted(DISTRIBUTIONS))
        raise TuneError(f"unknown distribution {name!r} (known: {known})")
    values = [int(a) for a in args.split(",")] if args else []
    return distribution_by_name(name, values)


def retarget_source(source: str, dist: str) -> str:
    """Rewrite every matrix ``map X by <...>`` declaration to use ``dist``.

    ``map X on all`` placements are untouched. The rewrite happens on
    source text so the compile cache keys naturally on the result."""
    parse_dist(dist)  # fail fast on junk before it reaches the parser
    return _MAP_RE.sub(lambda m: m.group(1) + dist, source)


@dataclass(frozen=True)
class TuneConfig:
    """One point in the search space."""

    dist: str
    strategy: str
    nprocs: int
    blksize: int = 8

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            known = ", ".join(STRATEGIES)
            raise TuneError(
                f"unknown strategy {self.strategy!r} (known: {known})"
            )
        if self.nprocs < 1:
            raise TuneError(f"nprocs must be positive, got {self.nprocs}")
        if self.blksize < 1:
            raise TuneError(f"blksize must be positive, got {self.blksize}")
        parse_dist(self.dist)

    @property
    def label(self) -> str:
        extra = f" blk={self.blksize}" if self.strategy == "optIII" else ""
        return f"{self.dist} {self.strategy} S={self.nprocs}{extra}"


def default_space(
    proc_counts, dists, strategies, blksizes
) -> list[TuneConfig]:
    """Enumerate distribution x strategy x S (x blksize for optIII).

    ``blksize`` only changes generated code under strip mining, so other
    strategies get a single candidate each — sweeping it there would
    just duplicate predictions."""
    space: list[TuneConfig] = []
    for dist in dists:
        for strategy in strategies:
            for nprocs in proc_counts:
                if strategy == "optIII":
                    for blksize in blksizes:
                        space.append(
                            TuneConfig(dist, strategy, nprocs, blksize)
                        )
                else:
                    space.append(TuneConfig(dist, strategy, nprocs))
    return space
