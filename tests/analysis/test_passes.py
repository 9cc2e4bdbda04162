"""Unit tests for the four analysis passes over handcrafted SPMD IR.

Each test builds the smallest :class:`NodeProgram` exhibiting one
defect class and checks the verifier pins it with the right code, rank,
and forensics — no simulator involved anywhere.
"""

from repro.analysis import Severity, verify_compiled, walk_ranks
from repro.machine.rows import KIND_REPEAT
from repro.spmd.ir import (
    IsLV,
    NAllocIs,
    NAssign,
    NBin,
    NCallProc,
    NConst,
    NFor,
    NIf,
    NIsRead,
    NMyNode,
    NNProcs,
    NodeProc,
    NodeProgram,
    NRecv,
    NSend,
    NVar,
    VarLV,
)


def program(body, extra=None):
    procs = {"main": NodeProc("main", params=[], body=body)}
    for proc in extra or []:
        procs[proc.name] = proc
    return NodeProgram(name="t", procs=procs, entry="main")


def on_rank(rank, *stmts):
    return NIf(NBin("==", NMyNode(), NConst(rank)), tuple(stmts), ())


def neighbour():
    """(mynode() + 1) mod nprocs()."""
    return NBin("mod", NBin("+", NMyNode(), NConst(1)), NNProcs())


def prev_neighbour():
    """(mynode() + nprocs() - 1) mod nprocs()."""
    return NBin(
        "mod",
        NBin("-", NBin("+", NMyNode(), NNProcs()), NConst(1)),
        NNProcs(),
    )


class TestChannelBalance:
    def test_clean_pair(self):
        prog = program([
            on_rank(0, NSend(NConst(1), "c", (NConst(7),))),
            on_rank(1, NRecv(NConst(0), "c", (VarLV("x"),))),
        ])
        report = verify_compiled(prog, 2)
        assert not report.diagnostics

    def test_excess_sends(self):
        prog = program([
            on_rank(0,
                    NSend(NConst(1), "c", (NConst(1),)),
                    NSend(NConst(1), "c", (NConst(2),))),
            on_rank(1, NRecv(NConst(0), "c", (VarLV("x"),))),
        ])
        report = verify_compiled(prog, 2)
        [diag] = report.by_code("CB001")
        assert diag.severity is Severity.ERROR
        assert diag.rank == 0
        assert diag.details["sends"] == 2
        assert diag.details["recvs"] == 1
        assert diag.details["chain"]  # names the loop/guard of the excess

    def test_excess_recvs_in_loop_attributed(self):
        prog = program([
            on_rank(0, NSend(NConst(1), "c", (NConst(1),))),
            on_rank(1, NFor("i", NConst(1), NConst(3), NConst(1), (
                NRecv(NConst(0), "c", (VarLV("x"),)),
            ))),
        ])
        report = verify_compiled(prog, 2)
        [diag] = report.by_code("CB002")
        assert diag.rank == 1
        assert any("for i" in link for link in diag.details["chain"])
        # The unmatched receives also show up as a starvation deadlock.
        assert report.by_code("DL002")


    def test_unmatched_tail_of_a_repeated_loop(self):
        """Rank 0's summarized loop is two iterations and a repeat
        marker; counting runs the marker's span and the cited excess is
        the expanded tail, from the loop, after the pre-loop send."""
        send = NSend(NConst(1), "c", (NConst(1),))
        prog = program([
            on_rank(0, send, NFor("i", NConst(1), NConst(6), NConst(1),
                                  (send,))),
            on_rank(1, NFor("j", NConst(1), NConst(4), NConst(1), (
                NRecv(NConst(0), "c", (VarLV("x"),)),
            ))),
        ])
        walkers, _ = walk_ranks(prog, 2, {}, {})
        assert any(row[0] == KIND_REPEAT for row in walkers[0].events)
        report = verify_compiled(prog, 2)
        [diag] = report.by_code("CB001")
        assert (diag.details["sends"], diag.details["recvs"]) == (7, 4)
        assert diag.path == ("proc main", "if p == 0", "for i=1..6")
        assert diag.details["chain"] == [
            "unmatched send from proc main > if p == 0 > for i=1..6"
        ]


class TestDeadlock:
    def test_recv_before_send_cycle(self):
        prog = program([
            NRecv(neighbour(), "c", (VarLV("x"),)),
            NSend(neighbour(), "c", (NConst(1),)),
        ])
        report = verify_compiled(prog, 2)
        [diag] = report.by_code("DL001")
        assert diag.details["cycle"] == [0, 1]
        assert len(diag.details["chain"]) == 2
        assert all("waits for rank" in link for link in diag.details["chain"])
        # Counts balance, so the balance pass stays silent.
        assert not report.by_code("CB001")
        assert not report.by_code("CB002")

    def test_send_first_is_clean(self):
        prog = program([
            NSend(neighbour(), "c", (NConst(1),)),
            NRecv(prev_neighbour(), "c", (VarLV("x"),)),
        ])
        report = verify_compiled(prog, 4)
        assert not report.diagnostics

    def test_starved_in_the_middle_of_a_repeat(self):
        """Rank 1's receive loop is a repeat marker; it runs out of
        messages on the marker's second pass, and the pass names the
        loop the stuck receive row belongs to."""
        prog = program([
            on_rank(0, NFor("i", NConst(1), NConst(4), NConst(1), (
                NSend(NConst(1), "c", (NConst(1),)),
            ))),
            on_rank(1, NFor("j", NConst(1), NConst(6), NConst(1), (
                NRecv(NConst(0), "c", (VarLV("x"),)),
            ))),
        ])
        report = verify_compiled(prog, 2)
        [diag] = report.by_code("DL002")
        assert diag.rank == 1
        assert diag.path == ("proc main", "if p == 1", "for j=1..6")

    def test_starvation_is_dl002(self):
        prog = program([
            on_rank(1, NRecv(NConst(0), "c", (VarLV("x"),))),
        ])
        report = verify_compiled(prog, 2)
        [diag] = report.by_code("DL002")
        assert diag.rank == 1
        assert diag.details["src"] == 0


def alloc(name, *sizes):
    return NAllocIs(name, tuple(NConst(s) for s in sizes))


def write(name, index, value):
    return NAssign(IsLV(name, (index,)), NConst(value))


def loop(var, lo, hi, *stmts):
    return NFor(var, NConst(lo), NConst(hi), NConst(1), tuple(stmts))


class TestSingleAssignment:
    def test_overlapping_block_writes(self):
        prog = program([
            alloc("A", 10),
            loop("i", 1, 5, write("A", NVar("i"), 1)),
            loop("j", 3, 7, NAssign(IsLV("A", (NVar("j"),)), NConst(2))),
        ])
        report = verify_compiled(prog, 1)
        diags = report.by_code("IS001")
        assert diags
        assert diags[0].details["element"] == (3,)  # exact first overlap

    def test_point_rewritten_every_iteration(self):
        prog = program([
            alloc("A", 10),
            loop("i", 1, 5, write("A", NConst(2), 1)),
        ])
        report = verify_compiled(prog, 1)
        [diag] = report.by_code("IS001")
        assert "every one of 5 iterations" in diag.message

    def test_out_of_bounds_write(self):
        prog = program([
            alloc("A", 4),
            write("A", NConst(5), 1),
        ])
        report = verify_compiled(prog, 1)
        [diag] = report.by_code("IS003")
        assert diag.details["dimension"] == 1

    def test_read_never_written(self):
        prog = program([
            alloc("A", 10),
            loop("i", 1, 3, write("A", NVar("i"), 1)),
            NAssign(VarLV("x"), NIsRead("A", (NConst(5),))),
        ])
        report = verify_compiled(prog, 1)
        [diag] = report.by_code("IS002")
        assert diag.details["element"] == (5,)
        assert not report.by_code("IS001")

    def test_covered_reads_are_clean(self):
        prog = program([
            alloc("A", 10),
            loop("i", 1, 9, write("A", NVar("i"), 1)),
            loop("i", 2, 8,
                 NAssign(VarLV("x"), NIsRead("A", (NVar("i"),)))),
        ])
        report = verify_compiled(prog, 1)
        assert not report.diagnostics


class TestGuardCoverage:
    def test_unguarded_self_send(self):
        prog = program([
            NSend(NMyNode(), "c", (NConst(1),)),
            NRecv(NMyNode(), "c", (VarLV("x"),)),
        ])
        report = verify_compiled(prog, 2)
        # Dynamic finding per rank...
        assert any(d.code == "GC002" for d in report.diagnostics)
        # ...and the static universal proof.
        gc3 = report.by_code("GC003")
        assert any("self-communication" in d.message for d in gc3)

    def test_partner_beyond_ring_for_every_rank(self):
        prog = program([
            on_rank(0, NSend(NConst(7), "c", (NConst(1),))),
        ])
        report = verify_compiled(prog, 2)
        assert report.by_code("GC001")  # rank 0 executed the bad send
        assert report.by_code("GC003")  # and it is bad for every rank

    def test_loop_hits_every_rank_once(self):
        # for i in 0..S-1: send(i): some iteration self-sends on every
        # rank; solve_membership proves it without enumerating ranks.
        prog = program([
            NFor("i", NConst(0), NBin("-", NNProcs(), NConst(1)),
                 NConst(1),
                 (NSend(NVar("i"), "c", (NConst(1),)),)),
        ])
        report = verify_compiled(prog, 4)
        gc3 = report.by_code("GC003")
        assert any("iteration" in d.message for d in gc3)

    def test_properly_guarded_ring_is_clean(self):
        prog = program([
            NIf(NBin("<", NMyNode(),
                     NBin("-", NNProcs(), NConst(1))),
                (NSend(NBin("+", NMyNode(), NConst(1)), "c",
                       (NConst(1),)),), ()),
            NIf(NBin(">", NMyNode(), NConst(0)),
                (NRecv(NBin("-", NMyNode(), NConst(1)), "c",
                       (VarLV("x"),)),), ()),
        ])
        report = verify_compiled(prog, 4)
        assert not report.diagnostics


class TestDriver:
    def test_structural_error_is_unv002(self):
        prog = program([NCallProc("nope", ())])
        report = verify_compiled(prog, 2)
        assert report.by_code("UNV002")
        assert report.has_errors

    def test_data_dependent_control_is_unv001_warning(self):
        entry = NodeProc(
            "main", params=["A"], array_params=frozenset({"A"}),
            body=[
                NIf(NBin("<", NIsRead("A", (NConst(1),)), NConst(3)),
                    (NSend(NConst(1), "c", (NConst(1),)),), ()),
            ],
        )
        prog = NodeProgram(name="t", procs={"main": entry}, entry="main")
        report = verify_compiled(prog, 2)
        diags = report.by_code("UNV001")
        assert diags
        assert all(d.severity is Severity.WARNING for d in diags)
        assert not report.has_errors
        # Balance/deadlock must not guess from incomplete skeletons.
        assert not report.by_code("CB001")
        assert not report.by_code("DL001")

    def test_repeat_findings_are_capped(self):
        prog = program([
            alloc("A", 100),
            loop("i", 1, 50, write("A", NConst(3), 1)),
        ])
        report = verify_compiled(prog, 1)
        assert 1 <= len(report.by_code("IS001")) <= 10
