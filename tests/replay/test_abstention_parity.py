"""Elided evaluation must not hide an error the evaluation would raise.

The compiled abstract walk skips evaluating discarded and
statically-UNKNOWN values when they provably cannot raise. Each program
here plants a fault exactly where a value is discarded (or behind a
guard on array data): extraction must still abstain — the replay
request records a ``fallback_reason`` and then raises or returns
exactly what ``backend="compiled"`` does — and the cost model must
raise the error class it always raised.
"""

from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")

from repro import perf
from repro.analysis import verify_compiled
from repro.apps import gauss_seidel as gs
from repro.core.compiler import compile_program_cached
from repro.core.runner import execute
from repro.core.specialize import specialize_for_rank
from repro.errors import ModelError, NodeRuntimeError
from repro.machine import MachineParams
from repro.replay import ReplayAbstention, extract_skeletons
from repro.runtime import IStructure
from repro.spmd.interp import run_spmd
from repro.spmd.ir import (
    IsLV,
    NAllocIs,
    NAssign,
    NBin,
    NCall,
    NConst,
    NIf,
    NIsRead,
    NMyNode,
    NodeProc,
    NodeProgram,
    NRecv,
    NSend,
    NVar,
    VarLV,
)
from repro.spmd.layout import make_full
from repro.tune.model import predict
from repro.tune.space import STRATEGIES, retarget_source

NPROCS = 2
c = NConst
ONE = c(1)


def program(*body):
    body = (NAllocIs("B", (c(4),)),) + body
    main = NodeProc("main", ("A",), frozenset({"A"}), body=body)
    return NodeProgram("t", {"main": main}, "main")


def local_part():
    arr = IStructure((4,), name="A")
    for i in range(1, 5):
        arr.write(i, i)
    return arr


FAULTS = {
    # name: (program, error class the walk raises, fragment of its text)
    "div_by_zero_in_discarded_store_index": (
        program(NAssign(IsLV("B", (NBin("div", ONE, c(0)),)), ONE)),
        NodeRuntimeError, "division by zero",
    ),
    "mod_by_variable_zero_in_read_index": (
        program(
            NAssign(VarLV("z"), c(0)),
            NAssign(IsLV("B", (ONE,)),
                    NIsRead("A", (NBin("mod", ONE, NVar("z")),))),
        ),
        NodeRuntimeError, "modulo by zero",
    ),
    "unbound_name_in_send_payload": (
        program(NIf(NBin("==", NMyNode(), c(0)),
                    (NSend(ONE, "ch", (NVar("nobody"),)),))),
        NodeRuntimeError, "unbound variable 'nobody'",
    ),
    "unknown_array_in_discarded_read": (
        program(NAssign(IsLV("B", (ONE,)),
                        NBin("+", NIsRead("ghost", (ONE,)), ONE))),
        NodeRuntimeError, "unknown array 'ghost'",
    ),
    "data_dependent_guard": (
        program(NIf(NBin(">", NIsRead("A", (ONE,)), c(0)),
                    (NAssign(IsLV("B", (ONE,)), ONE),))),
        ModelError, "depends on array data",
    ),
    "self_send": (
        program(NSend(NMyNode(), "ch", (ONE,))),
        NodeRuntimeError, "self-send on channel 'ch'",
    ),
    "non_builtin_call_in_discarded_value": (
        program(NAssign(IsLV("B", (ONE,)),
                        NBin("+", NIsRead("A", (ONE,)),
                             NCall("mystery", (ONE,))))),
        NodeRuntimeError, "unknown builtin 'mystery'",
    ),
}


def outcome(prog, backend):
    """What a run produces or raises, in comparable form."""
    try:
        result = run_spmd(
            prog, NPROCS, lambda rank: [local_part()], backend=backend
        )
    except Exception as err:  # compared, not swallowed
        return "raise", type(err), str(err), None
    return (
        "ok", result.sim.makespan_us, result.sim.stats.total_messages,
        result,
    )


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_replay_abstains_then_matches_compiled(name):
    prog, error, fragment = FAULTS[name]
    with pytest.raises(ReplayAbstention) as abstained:
        extract_skeletons(prog, NPROCS, lambda rank: [None], {})
    assert error.__name__ in str(abstained.value)
    assert fragment in str(abstained.value)

    fallbacks = perf.counter("replay.fallback")
    replayed = outcome(prog, "replay")
    assert perf.counter("replay.fallback") == fallbacks + 1
    assert replayed[:3] == outcome(prog, "compiled")[:3]
    if replayed[0] == "ok":
        assert replayed[3].backend == "compiled"
        assert str(abstained.value) == replayed[3].fallback_reason


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_predict_raises_the_same_error_class(name):
    prog, error, fragment = FAULTS[name]
    with pytest.raises(error, match=fragment):
        predict(SimpleNamespace(program=prog, param_names=()), NPROCS)


# What ``predict`` raises — class, full text (which names the rank) —
# pinned from the release that walked a plain ``Walker`` per rank.
# ``predict`` now reads the verifier's walk, which skips an invalid
# partner (GC001/GC002) instead of stopping there, so the error must
# come from the lowest failing rank and, on that rank, from the first
# event a plain walker would have stopped at.
RANK1 = NBin("==", NMyNode(), ONE)
DATA_GUARD = NIf(NBin(">", NIsRead("A", (ONE,)), c(0)),
                 (NAssign(IsLV("B", (ONE,)), ONE),))
PREDICT_ERRORS = {
    "data_dependent_guard": (
        FAULTS["data_dependent_guard"][0], ModelError,
        "control flow depends on array data; the analytic model only "
        "handles data-independent control",
    ),
    "self_send": (
        FAULTS["self_send"][0], NodeRuntimeError,
        "[proc 0] self-send on channel 'ch'",
    ),
    "self_receive_on_rank_1": (
        program(NIf(RANK1, (NRecv(ONE, "ch", (VarLV("x"),)),))),
        NodeRuntimeError, "[proc 1] self-receive on channel 'ch'",
    ),
    "send_outside_the_ring_on_rank_1": (
        program(NIf(RANK1, (NSend(c(NPROCS), "ch", (ONE,)),))),
        NodeRuntimeError, "[proc 1] send to invalid processor 2",
    ),
    "recv_from_outside_the_ring": (
        program(NRecv(c(-1), "ch", (VarLV("x"),))),
        NodeRuntimeError, "[proc 0] recv from invalid processor -1",
    ),
    "skipped_partner_before_an_abstention": (
        program(NSend(NMyNode(), "ch", (ONE,)), DATA_GUARD),
        NodeRuntimeError, "[proc 0] self-send on channel 'ch'",
    ),
    "abstention_on_a_lower_rank_than_the_bad_partner": (
        program(NIf(RANK1, (NSend(ONE, "ch", (ONE,)),), (DATA_GUARD,))),
        ModelError,
        "control flow depends on array data; the analytic model only "
        "handles data-independent control",
    ),
    "predicted_deadlock": (
        program(NRecv(NBin("-", ONE, NMyNode()), "ch", (VarLV("x"),)),
                NSend(NBin("-", ONE, NMyNode()), "ch", (ONE,))),
        ModelError,
        "predicted deadlock: ranks [0, 1] block on receives no send "
        "will satisfy",
    ),
}


@pytest.mark.parametrize("verified_first", [False, True])
@pytest.mark.parametrize("name", sorted(PREDICT_ERRORS))
def test_predict_raises_what_a_plain_walk_raised(name, verified_first):
    prog, error, text = PREDICT_ERRORS[name]
    if verified_first:  # predict then finds the walk already made
        verify_compiled(prog, NPROCS)
    with pytest.raises(error) as raised:
        predict(SimpleNamespace(program=prog, param_names=()), NPROCS)
    assert type(raised.value) is error
    assert str(raised.value) == text


def _gauss_seidel(strategy):
    strat, opt_level = STRATEGIES[strategy]
    return compile_program_cached(
        retarget_source(gs.SOURCE, "wrapped_cols"),
        strategy=strat, opt_level=opt_level,
        entry_shapes={"Old": ("N", "N")}, assume_nprocs_min=2,
    )


@pytest.mark.parametrize("strategy", ["runtime", "compile", "optIII"])
def test_specialized_programs_extract_through_the_same_walk(strategy):
    compiled = _gauss_seidel(strategy)
    nprocs, n = 4, 12
    globals_ = {"N": n, "blksize": 4}
    generic = extract_skeletons(
        compiled.program, nprocs, lambda rank: [None], globals_
    )
    programs = [
        specialize_for_rank(compiled.program, rank, nprocs)
        for rank in range(nprocs)
    ]
    special = extract_skeletons(
        lambda rank: programs[rank], nprocs, lambda rank: [None], globals_
    )
    # Specialization folds guards away — fewer ops per compute burst —
    # and changes nothing else about the event stream.
    assert special.channels == generic.channels
    for mine, theirs in zip(special.ranks, generic.ranks):
        for column in ("kind", "peer", "chan", "plen", "mems"):
            assert np.array_equal(
                getattr(mine, column), getattr(theirs, column)
            ), column
        assert mine.ops.dtype == theirs.ops.dtype
        assert (mine.ops <= theirs.ops).all()

    runs = {
        backend: execute(
            compiled, nprocs,
            inputs={"Old": make_full((n, n), 1, name="Old")},
            params={"N": n}, extra_globals={"blksize": 4},
            backend=backend, specialize=True,
        )
        for backend in ("compiled", "replay")
    }
    assert runs["replay"].spmd.backend == "replay"
    assert runs["replay"].makespan_us == runs["compiled"].makespan_us
    assert (
        runs["replay"].spmd.sim.finish_times_us
        == runs["compiled"].spmd.sim.finish_times_us
    )


@pytest.mark.parametrize("strategy", ["compile", "optI", "optIII"])
def test_predict_is_exact_on_non_dyadic_costs(strategy):
    """Folded integer charges priced by the compiled backend's own flush
    formula: no float drift, whatever the machine constants."""
    compiled = _gauss_seidel(strategy)
    machine = MachineParams(op_us=0.3, mem_us=0.7)
    nprocs, n = 4, 12
    prediction = predict(
        compiled, nprocs, params={"N": n}, machine=machine,
        extra_globals={"blksize": 4},
    )
    measured = execute(
        compiled, nprocs,
        inputs={"Old": make_full((n, n), 1, name="Old")},
        params={"N": n}, machine=machine, extra_globals={"blksize": 4},
        backend="compiled",
    )
    assert prediction.makespan_us == measured.makespan_us
    assert prediction.finish_times_us == measured.spmd.sim.finish_times_us
    assert prediction.total_messages == measured.total_messages
