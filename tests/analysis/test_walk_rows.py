"""The verifier's summarizing walk against the plain walker, row for row.

``VerifyWalk`` runs a loop body once over a symbolic loop variable and
writes what it recorded through the plain walker's repeat step. These
hand-built programs put each thing that could make that inexact where
the summary must either carry it exactly (pending charges around and
inside a communicating loop, nested summaries, guarded-off
communication) or refuse (a scalar carried from one iteration to the
next): in every case the verifier's rows are the plain ``Walker``'s
rows (both streams' repeat markers expanded), and a program the
simulator runs clean verifies clean. The last test draws random
statement nests and holds both walks to the same rows.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from repro.analysis import verify_compiled, walk_ranks
from repro.analysis.verify import DEFINED
from repro.analysis.walk import VerifyWalk
from repro.machine.rows import KIND_RECV, KIND_SEND, expand
from repro.spmd.interp import run_spmd
from repro.spmd.ir import (
    IsLV,
    NAllocIs,
    NAssign,
    NBin,
    NConst,
    NFor,
    NIf,
    NIsRead,
    NRecv,
    NSend,
    NVar,
    VarLV,
)
from repro.spmd.walk import ARRAY, Walker
from tests.analysis.test_passes import on_rank
from tests.analysis.test_passes import program as program_of
from tests.spmd.test_compile_backend import _STMTS, _stmt_program

c = NConst


def program(*body):
    return program_of(list(body))


def loop(var, hi, *body):
    return NFor(var, c(1), c(hi), c(1), tuple(body))


def work(name="w"):
    """A few ops and a memory access: pending charge, no event."""
    return NAssign(VarLV(name), NBin("+", NIsRead("A", (c(1),)), c(1)))


BUMP = NAssign(VarLV("k"), NBin("+", NVar("k"), c(1)))
SEND = NSend(c(1), "c", (c(7),))
RECV = NRecv(c(0), "c", (VarLV("x"),))

PROGRAMS = {
    # -- a scalar carried between iterations: the summary must refuse --
    # k decides a branch: 2 of 4 iterations send (one iteration
    # repeated would send nothing: CB002 + DL002 on a clean program).
    "carried_scalar_in_control": program(
        NAssign(VarLV("k"), c(0)),
        on_rank(0, loop("i", 4, BUMP,
                        NIf(NBin(">", NVar("k"), c(2)), (SEND,), ()))),
        on_rank(1, RECV, RECV),
    ),
    # k indexes a store: A[1..4], one write each (not A[1] four times,
    # a false IS001).
    "carried_scalar_in_index": program(
        NAllocIs("A", (c(4),)),
        NAssign(VarLV("k"), c(0)),
        loop("i", 4, BUMP, NAssign(IsLV("A", (NVar("k"),)), c(7))),
    ),
    # k is read before the body assigns it: the partner alternates.
    "carried_scalar_as_partner": program(
        NAssign(VarLV("k"), c(1)),
        on_rank(0, loop("i", 3,
                        NIf(NBin("==", NVar("k"), c(1)), (SEND,), ()),
                        NAssign(VarLV("k"), NBin("-", c(1), NVar("k"))))),
        on_rank(1, RECV, RECV),
    ),
    # -- summaries that must carry pending charges exactly ------------
    "charges_before_inside_and_after_a_communicating_loop": program(
        NAllocIs("A", (c(4),)),
        NAssign(IsLV("A", (c(1),)), c(0)),
        work(),
        on_rank(0, loop("i", 5, work(), SEND, work(), SEND, work())),
        on_rank(1, loop("i", 10, RECV, work())),
        work(),
    ),
    "event_first_body_after_pending_compute": program(
        NAllocIs("A", (c(4),)),
        NAssign(IsLV("A", (c(1),)), c(0)),
        work(),
        on_rank(0, loop("i", 3, SEND)),
        on_rank(1, loop("i", 3, RECV)),
    ),
    "nested_summaries": program(
        NAllocIs("A", (c(4),)),
        NAssign(IsLV("A", (c(1),)), c(0)),
        on_rank(0, loop("i", 3, work(), loop("j", 4, SEND, work()))),
        on_rank(1, work(), loop("i", 3, loop("j", 4, work(), RECV), work())),
    ),
    "communication_guarded_off_is_pure_compute": program(
        NAllocIs("A", (c(4),)),
        NAssign(IsLV("A", (c(1),)), c(0)),
        work(),
        loop("i", 6, work(), on_rank(7, SEND), loop("j", 2, work())),
        on_rank(0, SEND),
        on_rank(1, RECV),
    ),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rows_are_the_plain_walkers_and_the_verdict_is_clean(name):
    prog = PROGRAMS[name]
    nprocs = 2
    for backend in ("interp", "compiled"):  # ground truth: it runs
        sim = run_spmd(prog, nprocs, lambda rank: [], backend=backend).sim
        assert sim.undelivered_count == 0

    assert not verify_compiled(prog, nprocs).diagnostics

    walkers, channels = walk_ranks(prog, nprocs, {}, {})
    code = Walker.compile(prog)
    chan_ids: dict[str, int] = {}
    for rank, walker in enumerate(walkers):
        plain = Walker(code, rank, nprocs, {}, chan_ids).run([])
        assert expand(walker.events) == expand(plain), rank
    assert channels == tuple(chan_ids)



@settings(max_examples=200, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(parts=hs.lists(_STMTS, max_size=4))
def test_random_statements_walk_to_the_plain_walkers_rows(parts):
    """Random statement nests: wherever both walks finish, the
    verifier's rows expand to the plain walker's, and ``origins`` has
    one entry per send and receive row."""
    prog = _stmt_program(parts)
    plain_code, verify_code = Walker.compile(prog), VerifyWalk.compile(prog)
    for nprocs in (1, 2, 3):
        plain_ids: dict[str, int] = {}
        verify_ids: dict[str, int] = {}
        for rank in range(nprocs):
            walker = VerifyWalk(verify_code, rank, nprocs, {}, verify_ids)
            walker.run([3, DEFINED, DEFINED])
            try:
                plain = Walker(plain_code, rank, nprocs, {},
                               plain_ids).run([3, ARRAY, ARRAY])
            except Exception:
                continue  # the plain walk abstains or fails
            if not walker.completed or walker.raised is not None:
                continue
            assert expand(walker.events) == expand(plain), (nprocs, rank)
            assert len(walker.origins) == sum(
                row[0] == KIND_SEND or row[0] == KIND_RECV
                for row in walker.events
            )
