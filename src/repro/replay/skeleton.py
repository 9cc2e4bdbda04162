"""Skeleton extraction: one abstract walk per rank, run-length rows,
columnar output.

Generated control flow never depends on array *data*, so the exact
sequence of effects a rank will push through the simulator — compute
bursts, sends, receives — is a *static skeleton* that can be extracted
once per (program, ring, bindings) and replayed any number of times
without executing a single array operation.

Extraction runs the compiled abstract walk of :mod:`repro.spmd.walk`
— the plain :class:`~repro.spmd.walk.Walker`, the same rows
:func:`repro.tune.predict` clocks — which accumulates cost as **integer
(ops, mems) counters**. The compiled backend's flush charges ``ops *
op_us + mems * mem_us``, so synthesizing the float cost with the *same
expression* at replay time makes compute costs bit-identical to the
compiled backend for **any** machine parameters, and extraction is
**machine-independent**: one ``replay_skeleton`` cache entry (see the
cache table in ``docs/INTERNALS.md``) serves every machine model a
sweep replays it under.

A wavefront code's stream is mostly repetition, and the walker writes a
replicated loop as one **repeat marker** row (:data:`~repro.machine.
rows.KIND_REPEAT`: "the ``span`` rows before me occur ``count`` more
times"; markers are flat, see :mod:`repro.machine.rows`). The skeleton
keeps that form: :func:`columnize` packs **one compact table per
program** — every rank's rows, markers included, as six narrow columns
plus the rank offsets — and that table is all a
:class:`ProgramSkeleton` pickles. What the replayer reads is the
*expansion*: flat parallel numpy columns per rank
(:class:`RankSkeleton`), so it can synthesize costs, match FIFOs, and
aggregate statistics as array expressions (:mod:`repro.replay.engine`).
The expansion is built once per program with a fixed number of numpy
calls (one gather index, one ``take`` per column) and the per-rank
columns are slices of it; :func:`repro.machine.rows.expand` is the same
expansion in plain Python, which the scalar oracle uses so that it
shares no code with what it checks.

Abstention: any walk failure (data-dependent control raising
:class:`~repro.errors.ModelError`, but also structural errors the
simulator might *not* reach — e.g. an invalid partner behind a receive
that deadlocks first) raises :class:`ReplayAbstention`; the caller falls
back to the compiled backend so replay never changes observable
behaviour, only speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import perf
from repro.errors import ReproError
from repro.machine.rows import KIND_REPEAT
from repro.spmd.walk import (
    KIND_COMPUTE,
    KIND_RECV,
    KIND_SEND,
    Walker,
    abstract_args,
)

try:  # guarded: interp/compiled must keep working without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None

class ReplayAbstention(ReproError):
    """The extractor cannot produce a skeleton; fall back to compiled."""


def _require_numpy():
    if np is None:
        raise ReproError(
            "backend 'replay' requires numpy (install numpy>=1.22) — "
            "the 'interp' and 'compiled' backends work without it"
        )


@dataclass(frozen=True)
class RankSkeleton:
    """One rank's event stream as parallel columns — repeat markers
    expanded; each column a slice of its program's.

    ``kind``
        int8, one of :data:`KIND_COMPUTE`/:data:`KIND_SEND`/
        :data:`KIND_RECV`.
    ``peer``
        int32 partner rank: destination for sends, source for receives,
        ``-1`` for compute events.
    ``chan``
        int32 index into :attr:`ProgramSkeleton.channels` (``-1`` for
        compute events).
    ``plen``
        int64 payload length in scalars (sends only, else 0).
    ``ops``/``mems``
        int64 operation / memory-access counts (compute events only,
        else 0) — the compiled backend's integer flush counters.
    """

    kind: "np.ndarray"
    peer: "np.ndarray"
    chan: "np.ndarray"
    plen: "np.ndarray"
    ops: "np.ndarray"
    mems: "np.ndarray"

    def __len__(self) -> int:
        return self.kind.shape[0]


_COLUMNS = (
    ("kind", "int8"), ("peer", "int32"), ("chan", "int32"),
    ("plen", "int64"), ("ops", "int64"), ("mems", "int64"),
)


class ProgramSkeleton:
    """All ranks' skeletons plus the shared channel-name table.

    ``table`` holds the compact rows of every rank — the walker's rows,
    repeat markers included (``span`` in ``ops``, ``count`` in ``mems``)
    — as one column per :data:`_COLUMNS` entry, rank ``r`` at
    ``[offsets[r], offsets[r + 1])``. With ``nprocs`` and ``channels``
    that is the whole pickled state. ``ranks`` (expanded per-rank
    columns), ``total_events`` (expanded rows) and ``nbytes`` (exact:
    table, offsets and expanded columns) are derived from it.
    """

    def __init__(self, nprocs: int, channels: tuple[str, ...],
                 table: tuple, offsets: "np.ndarray"):
        self.nprocs = nprocs
        self.channels = channels
        self.table = table
        self.offsets = offsets
        self._expand(None)

    def __getstate__(self):
        return (self.nprocs, self.channels, self.total_events,
                self.offsets, *self.table)

    def __setstate__(self, state) -> None:
        """Rebuild from a stored table — after checking it: a truncated
        or corrupt entry raises ``ValueError`` (which the artifact store
        counts and discards) before anything is sized by its content."""
        try:
            (self.nprocs, self.channels, total_events, self.offsets,
             *table) = state
        except TypeError as err:
            raise ValueError("skeleton state is not a sequence") from err
        self.table = tuple(table)
        self._expand(total_events)

    def compact_rows(self) -> list[list[tuple]]:
        """Per rank, the rows as the walker wrote them (markers kept)."""
        bounds = self.offsets.tolist()
        columns = [column.tolist() for column in self.table]
        return [
            list(zip(*(column[lo:hi] for column in columns)))
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def _expand(self, total_events: "int | None") -> None:
        """Validate ``table``/``offsets`` and derive the rest.

        Every check is an array expression over the compact table, and
        the expansion a fixed number of numpy calls per *program* —
        a per-rank or per-marker loop here costs more host calls than
        the compact store saves.
        """
        table, offsets = self.table, self.offsets
        if len(table) != len(_COLUMNS):
            raise ValueError("skeleton table has the wrong columns")
        n = getattr(table[0], "size", -1)
        for column, (_, dtype) in zip(table, _COLUMNS):
            if not isinstance(column, np.ndarray) or \
                    column.shape != (n,) or column.dtype != dtype:
                raise ValueError("skeleton column has the wrong shape")
        if not isinstance(offsets, np.ndarray) or \
                not isinstance(self.nprocs, int) or \
                offsets.shape != (self.nprocs + 1,) or \
                offsets.dtype != np.int64 or offsets[0] != 0 or \
                offsets[-1] != n or (offsets[1:] < offsets[:-1]).any():
            raise ValueError("skeleton rank offsets do not tile the table")

        markers = np.flatnonzero(table[0] == KIND_REPEAT)
        span, count = table[4][markers], table[5][markers]
        # A span reaches back neither past the start of its own rank nor
        # over an earlier marker (markers are flat).
        floor = offsets[offsets.searchsorted(markers, side="right") - 1]
        floor[1:] = np.maximum(floor[1:], markers[:-1] + 1)
        if ((count < 1) | (span < 1) | (markers - span < floor)).any():
            raise ValueError("skeleton repeat marker out of range")
        if total_events is not None:
            # In floats first: a corrupt count must not wrap int64, and
            # nothing may be allocated by a size the entry disagrees on.
            events = n - markers.size + float(
                np.dot(span.astype(np.float64), count.astype(np.float64))
            )
            if not events == total_events < 2.0 ** 53:
                raise ValueError("skeleton repeat counts disagree with "
                                 "its event total")

        # Row i of the table stands for times[i] runs of the length[i]
        # rows from start[i]: itself once, or — a marker — `count` runs
        # of the `span` rows before it. The gather index is every run's
        # start, counted up along the run.
        start = np.arange(n)
        length = np.ones(n, dtype=np.int64)
        times = np.ones(n, dtype=np.int64)
        start[markers] -= span
        length[markers] = span
        times[markers] = count
        ends = (length * times).cumsum()
        total = int(ends[-1]) if n else 0
        run_start = start.repeat(times)
        run_length = length.repeat(times)
        run_start -= run_length.cumsum() - run_length
        index = np.arange(total) + run_start.repeat(run_length)
        kind, peer, chan, plen, ops, mems = [
            column.take(index) for column in table
        ]
        bounds = np.concatenate(([0], ends))[offsets].tolist()
        self.ranks = tuple([
            RankSkeleton(kind[lo:hi], peer[lo:hi], chan[lo:hi],
                         plen[lo:hi], ops[lo:hi], mems[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ])
        self.total_events = total
        self.nbytes = offsets.nbytes + sum(
            column.nbytes
            for column in (*table, kind, peer, chan, plen, ops, mems)
        )


def columnize(nprocs: int, channels: tuple[str, ...],
              per_rank_rows: list[list[tuple]]) -> ProgramSkeleton:
    """Pack every rank's ``(kind, peer, chan, plen, ops, mems)`` rows,
    repeat markers and all, into one program-wide table."""
    _require_numpy()
    rows: list[tuple] = []
    offsets = [0]
    for rank_rows in per_rank_rows:
        rows += rank_rows
        offsets.append(len(rows))
    wide = np.array(rows, dtype=np.int64).reshape(-1, len(_COLUMNS))
    table = tuple([
        wide[:, col].astype(dtype)
        for col, (_, dtype) in enumerate(_COLUMNS)
    ])
    return ProgramSkeleton(
        nprocs, channels, table, np.array(offsets, dtype=np.int64)
    )


def build_skeleton(nprocs: int, per_rank_events: list[list[tuple]],
                   ) -> ProgramSkeleton:
    """Assemble a :class:`ProgramSkeleton` from ``("c", ops, mems)`` /
    ``("s", dst, channel, plen)`` / ``("r", src, channel)`` event lists.

    Used by unit tests that hand-build skeletons to pin the columnar
    FIFO arithmetic; channel names are interned in order of appearance.
    """
    chan_ids: dict[str, int] = {}

    def row(ev):
        if ev[0] == "c":
            return (KIND_COMPUTE, -1, -1, 0, ev[1], ev[2])
        chan = chan_ids.setdefault(ev[2], len(chan_ids))
        if ev[0] == "s":
            return (KIND_SEND, ev[1], chan, ev[3], 0, 0)
        return (KIND_RECV, ev[1], chan, 0, 0, 0)

    per_rank_rows = [
        [row(ev) for ev in events] for events in per_rank_events
    ]
    return columnize(nprocs, tuple(chan_ids), per_rank_rows)


# Keyed on (program, ring size, globals, entry scalars) only: the rows
# carry integer counters, not costs, so one cached skeleton serves every
# machine model a sweep replays it under.
_skeleton_cache: dict = perf.register_cache(
    "replay_skeleton", {}, persistent=True,
    key_fn=perf.stable_key("skeleton2"),
)


def extract_skeletons(program, nprocs: int, make_args,
                      globals_: dict[str, object]) -> ProgramSkeleton:
    """Extract (or fetch from the ``replay_skeleton`` cache) all ranks.

    ``program`` is a :class:`~repro.spmd.ir.NodeProgram` or a callable
    ``rank -> NodeProgram`` (specialized programs); ``make_args(rank)``
    supplies entry arguments exactly as :func:`repro.spmd.interp.
    run_spmd` receives them — array arguments are replaced by an opaque
    marker (their *values* cannot influence the skeleton), scalars are
    tracked concretely.

    Raises :class:`ReplayAbstention` whenever the walk cannot complete;
    callers fall back to the compiled backend with the reason recorded.
    """
    _require_numpy()
    per_rank_programs = callable(program)

    programs = []
    args: list[list[object]] = []
    for rank in range(nprocs):
        node_program = program(rank) if per_rank_programs else program
        programs.append(node_program)
        entry = node_program.entry_proc()
        raw = list(make_args(rank))
        if len(raw) == len(entry.params):  # else: the walk's arity error
            raw = abstract_args(entry, dict(zip(entry.params, raw)).get)
        args.append(raw)

    def build() -> ProgramSkeleton:
        with perf.phase("replay_extract"):
            chan_ids: dict[str, int] = {}
            per_rank_rows = []
            for rank in range(nprocs):
                try:
                    per_rank_rows.append(Walker(
                        Walker.compile(programs[rank]),
                        rank, nprocs, globals_, chan_ids,
                    ).run(args[rank]))
                except Exception as err:
                    # ModelError: genuinely data-dependent control.
                    # Other ReproErrors (invalid partner, unbound
                    # name...): the simulator raises them only if the
                    # rank *reaches* the offending event — a run may
                    # deadlock first — so the compiled backend must
                    # arbitrate those too. Anything else is caught
                    # defensively: never change behaviour.
                    raise ReplayAbstention(
                        f"rank {rank}: {type(err).__name__}: {err}"
                    ) from err
            return columnize(nprocs, tuple(chan_ids), per_rank_rows)

    if per_rank_programs:
        # Specialized programs are rebuilt per run, so identity-keyed
        # memoization would never hit; skip it rather than leak entries.
        return build()
    key = (
        program,  # identity-hashed, like the tune_predict cache
        nprocs,
        tuple(sorted(globals_.items())),
        tuple(tuple(row) for row in args),
    )
    return perf.memo("replay_skeleton", key, build)
