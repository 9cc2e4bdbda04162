"""Skeleton extraction: one abstract walk per rank, columnar output.

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

Events are stored columnar — flat parallel numpy arrays per rank — so
the replayer can synthesize costs, match FIFOs, and aggregate statistics
as array expressions (:mod:`repro.replay.engine`).

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
    """One rank's event stream as parallel columns.

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


@dataclass(frozen=True)
class ProgramSkeleton:
    """All ranks' skeletons plus the shared channel-name table."""

    nprocs: int
    channels: tuple[str, ...]
    ranks: tuple[RankSkeleton, ...]

    @property
    def total_events(self) -> int:
        return sum(len(r) for r in self.ranks)


_COLUMNS = (
    ("kind", "int8"), ("peer", "int32"), ("chan", "int32"),
    ("plen", "int64"), ("ops", "int64"), ("mems", "int64"),
)


def columnize(rows: list[tuple]) -> RankSkeleton:
    """Pack one rank's ``(kind, peer, chan, plen, ops, mems)`` rows."""
    _require_numpy()
    table = np.array(rows, dtype=np.int64).reshape(-1, len(_COLUMNS))
    return RankSkeleton(**{
        name: table[:, col].astype(dtype)
        for col, (name, dtype) in enumerate(_COLUMNS)
    })


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

    ranks = tuple(
        columnize([row(ev) for ev in events]) for events in per_rank_events
    )
    return ProgramSkeleton(
        nprocs=nprocs, channels=tuple(chan_ids), ranks=ranks
    )


# Keyed on (program, ring size, globals, entry scalars) only: the rows
# carry integer counters, not costs, so one cached skeleton serves every
# machine model a sweep replays it under.
_skeleton_cache: dict = perf.register_cache(
    "replay_skeleton", {}, persistent=True,
    key_fn=perf.stable_key("skeleton"),
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
            ranks = []
            for rank in range(nprocs):
                try:
                    rows = Walker(
                        Walker.compile(programs[rank]),
                        rank, nprocs, globals_, chan_ids,
                    ).run(args[rank])
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
                ranks.append(columnize(rows))
            return ProgramSkeleton(
                nprocs=nprocs, channels=tuple(chan_ids), ranks=tuple(ranks)
            )

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
