"""The compiled abstract walk charges what the compiled backend charges.

For every expression and statement kind, each rank's walk — static
charges folded into one addition per run of statements, discarded and
statically-UNKNOWN values never evaluated — must emit the same event
sequence as the ``compiled`` value backend records: the same sends and
receives, and between them compute rows with the same integer ``(ops,
mems)`` counts. The compiled rank is run by hand (canned receive
payloads), so no scheduler is involved.
"""

import pytest

from repro.machine import MachineParams
from repro.runtime import IStructure
from repro.spmd import compiled_node, ir
from repro.spmd.ir import (
    BufLV,
    IsLV,
    NAllocBuf,
    NAllocIs,
    NAssign,
    NBin,
    NBroadcast,
    NBufRead,
    NCall,
    NCallProc,
    NCoerce,
    NComment,
    NConst,
    NFor,
    NIf,
    NIsRead,
    NMyNode,
    NNProcs,
    NodeProc,
    NodeProgram,
    NRecv,
    NRecvVec,
    NReturn,
    NSend,
    NSendVec,
    NUn,
    NVar,
    VarLV,
)
from repro.spmd.walk import ARRAY, KIND_COMPUTE, KIND_SEND, Walker
from tests.spmd.test_compile_backend import run_by_hand

MEM_US = 2.0 ** -20
MACHINE = MachineParams(op_us=1.0, mem_us=MEM_US)
GLOBALS = {"N": 5, "zero": 0}

c = NConst
v = NVar
P = NMyNode()
S = NNProcs()


def full(n=8):
    arr = IStructure((n,), name="A")
    for i in range(1, n + 1):
        arr.write(i, i)
    return arr


def compiled_effects(program, rank, nprocs, payloads=()):
    """The compiled backend's effect sequence for one rank, read from
    the rows it records (canned receive payloads)."""
    st = compiled_node(program).start(
        rank, nprocs, [full()], MACHINE, GLOBALS
    )
    run_by_hand(st, payloads)
    out = []
    for kind, peer, chan, plen, ops, mems in st.rows:
        if kind == KIND_COMPUTE:
            out.append(("c", ops, mems))
        elif kind == KIND_SEND:
            queued = st.fifo[rank, peer, chan].popleft()
            out.append(("s", peer, chan, len(queued)))
        else:
            out.append(("r", peer, chan))
    return out


def walked_effects(program, rank, nprocs):
    walker = Walker(Walker.compile(program), rank, nprocs, GLOBALS)
    channels = walker.chan_ids
    out = []
    for kind, peer, chan, plen, ops, mems in walker.run([ARRAY]):
        if kind == KIND_COMPUTE:
            out.append(("c", ops, mems))
        elif kind == KIND_SEND:
            out.append(("s", peer, list(channels)[chan], plen))
        else:
            out.append(("r", peer, list(channels)[chan]))
    return out


def program(*body, extra_procs=()):
    procs = {
        "main": NodeProc("main", ("A",), frozenset({"A"}), body=body)
    }
    for proc in extra_procs:
        procs[proc.name] = proc
    return NodeProgram("t", procs, "main")


def read(i):
    return NIsRead("A", (i,))


def let(name, value):
    return NAssign(VarLV(name), value)


ARITH = [
    NBin(op, NBin("+", P, c(7)), c(3))
    for op in ("+", "-", "*", "/", "div", "mod",
               "==", "!=", "<", "<=", ">", ">=")
]

EXPRESSIONS = {
    "const": c(3),
    "global": NBin("+", v("N"), c(1)),
    "mynode_nprocs": NBin("*", P, S),
    "neg_not": NUn("-", NUn("not", NBin("<", P, c(0)))),
    "builtins": NCall("min", (NCall("abs", (c(-4),)),
                              NCall("max", (v("N"), c(2))))),
    "read": NBin("+", read(NBin("+", c(1), c(1))), read(c(3))),
    "read_div_nprocs": read(NBin("+", NBin("div", c(4), S), c(1))),
    # Short-circuit: the right operand is charged only when reached.
    "and_taken": NBin("and", NBin("<", c(1), c(2)), NBin("<", c(2), c(3))),
    "and_cut": NBin("and", NBin("<", c(2), c(1)), NBin("<", c(2), c(3))),
    "or_taken": NBin("or", NBin("<", c(2), c(1)), NBin("<", c(2), c(3))),
    "or_cut": NBin("or", NBin("<", c(1), c(2)), NBin("<", c(2), c(3))),
    "nested_shortcircuit": NBin(
        "or",
        NBin("and", NBin("<", c(1), c(2)),
             NBin("or", NBin("<", c(3), c(2)), NBin(">", v("N"), c(9)))),
        NBin("and", NBin("==", P, c(0)), NBin("<", c(2), c(3))),
    ),
}
EXPRESSIONS.update(
    (f"arith_{e.op}", e) for e in ARITH
)


@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_expression_charges(name):
    e = EXPRESSIONS[name]
    prog = program(
        NAllocIs("B", (c(4),)),
        let("t", e),  # value kept
        NAssign(IsLV("B", (c(1),)), e),  # value discarded
        NIf(NBin("==", c(1), c(1)), (let("u", e),)),
    )
    assert walked_effects(prog, 0, 1) == compiled_effects(prog, 0, 1)
    assert len(walked_effects(prog, 0, 1)) == 1


def test_store_kinds_and_allocations():
    prog = program(
        NAllocIs("B", (NBin("+", c(2), c(2)), c(3))),
        NAllocBuf("buf", (v("N"),)),
        NComment("nothing"),
        let("k", NBin("+", c(1), c(1))),
        NAssign(IsLV("B", (v("k"), NBin("-", v("k"), c(1)))),
                NBin("*", read(v("k")), c(2))),
        NAssign(BufLV("buf", (v("k"),)), read(c(1))),
        let("t", NBin("+", NBufRead("buf", (v("k"),)),
                      NIsRead("B", (c(2), c(1))))),
    )
    assert walked_effects(prog, 0, 1) == compiled_effects(prog, 0, 1)


def test_loops_closed_form_and_iterated():
    prog = program(
        NAllocIs("B", (c(8),)),
        # Uniform body: the walk samples one iteration and multiplies.
        NFor("i", c(1), c(8), c(1), (
            NAssign(IsLV("B", (v("i"),)), NBin("+", read(v("i")), c(1))),
        )),
        # Cost depends on the loop variable: iterated.
        NFor("i", c(1), v("N"), c(2), (
            NIf(NBin(">", v("i"), c(2)),
                (let("t", NBin("+", v("i"), c(1))),),
                (let("t", c(0)),)),
            NFor("j", c(1), v("i"), c(1), (let("u", v("j")),)),
        )),
        NFor("i", c(3), c(1), c(1), (let("never", c(1)),)),  # zero trips
    )
    assert walked_effects(prog, 0, 1) == compiled_effects(prog, 0, 1)


def test_call_and_return():
    helper = NodeProc("helper", ("X", "k"), frozenset({"X"}), body=(
        NIf(NBin(">", v("k"), c(1)), (
            NReturn(NBin("+", v("k"), c(1))),
        )),
        let("dead", NBin("*", v("k"), c(2))),
        NReturn(NIsRead("X", (v("k"),))),
    ))
    prog = program(
        NCallProc("helper", ("A", NBin("+", c(1), c(1))), VarLV("r")),
        NCallProc("helper", ("A", c(1)), VarLV("r")),
        let("t", NBin("+", c(1), c(2))),
        extra_procs=(helper,),
    )
    assert walked_effects(prog, 0, 1) == compiled_effects(prog, 0, 1)


def test_send_recv_flush_boundaries():
    prog = program(
        NAllocIs("B", (c(4),)),
        let("t", NBin("+", c(1), c(2))),
        NIf(NBin("==", P, c(0)), (
            NSend(NBin("+", P, c(1)), "ch",
                  (read(c(1)), NBin("*", read(c(2)), c(2)))),
            let("u", NBin("+", c(1), c(1))),
        ), (
            # Index charges of a receive target land after the flush.
            NRecv(NBin("-", P, c(1)), "ch", (
                VarLV("x"),
                IsLV("B", (NBin("+", c(1), c(1)),)),
            )),
            let("u", NBin("+", v("x"), c(1))),
        )),
    )
    assert walked_effects(prog, 0, 2) == compiled_effects(prog, 0, 2)
    assert walked_effects(prog, 1, 2) == compiled_effects(
        prog, 1, 2, payloads=[(1, 2)]
    )


@pytest.mark.parametrize("lo, hi", [(1, 3), (2, 1)], ids=["3", "empty"])
def test_vector_send_recv(lo, hi):
    prog = program(
        NAllocBuf("buf", (c(4),)),
        NFor("i", c(1), c(4), c(1), (
            NAssign(BufLV("buf", (v("i"),)), read(v("i"))),
        )),
        NIf(NBin("==", P, c(0)), (
            NSendVec(c(1), "vec", "buf", c(lo), NBin("+", c(hi), c(0))),
        ), (
            NRecvVec(c(0), "vec", "buf", c(lo), c(hi)),
            let("t", NBin("+", c(1), c(1))),
        )),
    )
    assert walked_effects(prog, 0, 2) == compiled_effects(prog, 0, 2)
    assert walked_effects(prog, 1, 2) == compiled_effects(
        prog, 1, 2, payloads=[tuple(range(max(0, hi - lo + 1)))]
    )


@pytest.mark.parametrize("rank", [0, 1, 2], ids=["owner", "dest", "bystander"])
def test_coerce_roles(rank):
    value = NBin("+", read(NBin("+", c(1), c(1))), c(1))
    prog = program(
        let("t", NBin("+", c(1), c(1))),
        # owner 0 -> dest 1; rank 2 only pays the membership tests.
        NCoerce(VarLV("x"), value, c(0), NBin("+", c(0), c(1)), "co"),
        # owner == dest == 1: evaluated in place, no message.
        NCoerce(VarLV("y"), value, c(1), c(1), "co"),
        let("u", NBin("+", c(1), c(1))),
    )
    assert walked_effects(prog, rank, 3) == compiled_effects(
        prog, rank, 3, payloads=[(7,)]
    )


@pytest.mark.parametrize("nprocs", [1, 3])
def test_broadcast(nprocs):
    prog = program(
        let("t", NBin("+", c(1), c(1))),
        NBroadcast(VarLV("x"), NBin("*", read(c(2)), c(2)),
                   NBin("-", S, c(1)), "bc"),
        let("u", NBin("+", c(1), c(1))),
    )
    for rank in range(nprocs):
        assert walked_effects(prog, rank, nprocs) == compiled_effects(
            prog, rank, nprocs, payloads=[(7,)]
        )


def test_walk_code_is_compiled_once_and_shared():
    prog = program(let("t", c(1)))
    assert Walker.compile(prog) is Walker.compile(prog)

    class Observing(Walker):
        def on_read(self, arr, dims):
            pass

    assert Observing.compile(prog) is not Walker.compile(prog)
    assert isinstance(prog, ir.NodeProgram)
