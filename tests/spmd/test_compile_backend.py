"""Differential tests: the compiled backend vs the reference interpreter.

The compiled backend (`repro.spmd.compile`) must be observationally
identical to the tree-walking interpreter — same simulated times, same
message statistics, same I-structure contents, same errors. These tests
pin that contract, including a property test over random problem sizes,
ring widths, and strategies.
"""

import inspect
import math
import sys
import warnings
from collections import deque

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hs

from repro import perf
from repro.bench.harness import STRATEGY_ORDER, measure
from repro.analysis.walk import VerifyWalk
from repro.errors import IStructureError, ModelError, NodeRuntimeError
from repro.machine import Compute, MachineParams, Recv, Send
from repro.machine.rows import KIND_COMPUTE, KIND_SEND, expand, run_rows
from repro.runtime import IStructure, LocalArray
from repro.spmd import NodeProc, NodeProgram, compiled_node, run_spmd
from repro.spmd.ir import (
    BufLV,
    IsLV,
    NAllocBuf,
    NAllocIs,
    NAssign,
    NBin,
    NBroadcast,
    NCall,
    NCallProc,
    NCoerce,
    NConst,
    NExpr,
    NFor,
    NIf,
    NIsRead,
    NMyNode,
    NNProcs,
    NRecv,
    NRecvVec,
    NReturn,
    NSend,
    NSendVec,
    NUn,
    NVar,
    VarLV,
)
from repro.spmd import compile as backend
from repro.spmd.codegen import cg_code
from repro.spmd.compile import _rd1, _rd2, _wr1, _wr2
from repro.spmd.interp import _NodeMachine
from repro.spmd.walk import Walker, abstract_args


def _tiny_program():
    """return (mynode() + 1) * 2 via a scalar temp."""
    body = [
        NAssign(VarLV("x"), NBin("+", NMyNode(), NConst(1))),
        NReturn(NBin("*", NVar("x"), NConst(2))),
    ]
    return NodeProgram(
        name="tiny",
        procs={"main": NodeProc("main", (), body=tuple(body))},
        entry="main",
    )


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_spmd(_tiny_program(), 2, lambda rank: [], backend="fast")

    def test_both_backends_accept_and_agree(self):
        program = _tiny_program()
        results = {
            backend: run_spmd(
                program, 3, lambda rank: [], backend=backend
            )
            for backend in ("interp", "compiled")
        }
        assert results["interp"].returned == results["compiled"].returned
        assert results["interp"].returned == [2, 4, 6]
        assert (
            results["interp"].makespan_us == results["compiled"].makespan_us
        )


def _roles_program():
    """Every place the backend reads rank or ring size: ``mynode()`` /
    ``nprocs()`` values, a guard on them, the allocation label, both
    coerce shapes (0 -> 1, and in place on 1) and a broadcast from the
    last rank."""
    p, S = NMyNode(), NNProcs()
    last = NBin("-", S, NConst(1))
    body = [
        NAllocIs("B", (NConst(3),)),
        NAssign(VarLV("x"), NBin("mod", NBin("+", p, NConst(1)), S)),
        NIf(NBin("==", p, last),
            (NAssign(IsLV("B", (NConst(1),)), NBin("*", p, S)),),
            (NAssign(IsLV("B", (NConst(1),)), NVar("x")),)),
        NCoerce(VarLV("y"), NBin("+", NVar("x"), NConst(5)),
                NConst(0), NConst(1), "co"),
        NCoerce(VarLV("z"), NBin("div", NConst(9), S),
                NConst(1), NConst(1), "co"),
        NBroadcast(VarLV("w"), NBin("+", p, NConst(100)), last, "bc"),
        NAssign(IsLV("B", (NConst(2),)), NVar("w")),
        NReturn("B"),
    ]
    return NodeProgram(
        name="roles",
        procs={"main": NodeProc("main", (), body=tuple(body))},
        entry="main",
    )


def run_by_hand(st, payloads):
    """Run one compiled rank alone, each receive it blocks on fed the
    next canned payload; return what it returned. Its rows stay in
    ``st.rows`` and its sends' payloads queued in ``st.fifo``."""
    payloads = list(payloads)
    while True:
        st.ring.resume(st)
        if st.done:
            return st.returned
        st.fifo[st.waiting] = deque([payloads.pop(0)])


def _effects(gen, payloads=((7,), (9,))):
    """Drive one processor by hand (canned receive payloads): every
    effect, then what it returned. The interpreter's effect generator is
    stepped; a compiled rank's effects are rebuilt from its rows and the
    payloads its sends queued."""
    out = []
    if inspect.isgenerator(gen):
        payloads = list(payloads)
        reply = None
        try:
            while True:
                effect = gen.send(reply)
                out.append(effect)
                reply = payloads.pop(0) if isinstance(effect, Recv) else None
        except StopIteration as stop:
            arr = stop.value
    else:
        arr = run_by_hand(gen, payloads)
        out += _recorded_effects(gen)
    out.append((arr.name, arr.read(1), arr.read(2)))
    return out


def _recorded_effects(st):
    """A compiled rank's rows as the effects the interpreter yields,
    with the payloads its sends queued."""
    out = []
    for kind, peer, chan, _, ops, mems in st.rows:
        if kind == KIND_COMPUTE:
            out.append(Compute(ops * st.op_us + mems * st.mem_us))
        elif kind == KIND_SEND:
            out.append(Send(peer, chan, st.fifo[st.rank, peer, chan].popleft()))
        else:
            out.append(Recv(peer, chan))
    return out


class TestOneTreePerProgram:
    @pytest.fixture(autouse=True)
    def fresh_counters(self):
        perf.reset(clear_cache_tables=True)
        yield
        perf.reset(clear_cache_tables=True)

    def test_every_rank_and_ring_size_shares_one_compilation(self):
        program = _tiny_program()
        node = compiled_node(program)
        for nprocs in (2, 7, 2):
            result = run_spmd(program, nprocs, lambda rank: [])
            assert result.returned == [
                (rank + 1) * 2 for rank in range(nprocs)
            ]
            assert compiled_node(program) is node
        assert perf.counter("spmd_compile.miss") == 1

    def test_structurally_equal_programs_not_confused(self):
        # NodeProgram hashes by identity: two separately built programs
        # must each get their own compilation.
        assert compiled_node(_tiny_program()) is not compiled_node(
            _tiny_program()
        )

    def test_a_ring_of_300_compiles_once(self):
        result = run_spmd(_tiny_program(), 300, lambda rank: [])
        assert result.returned == [(rank + 1) * 2 for rank in range(300)]
        assert perf.counter("spmd_compile.miss") == 1
        assert perf.counter("spmd_compile.hit") == 299

    @pytest.mark.parametrize("specialize", [False, True])
    def test_execute_compiles_each_distinct_program_once(self, specialize):
        from repro.bench.harness import compile_app
        from repro.core.runner import execute
        from repro.spmd.layout import make_full

        compiled = compile_app("gauss_seidel", "optIII", 2)
        for _ in range(2):
            execute(
                compiled, 8, specialize=specialize,
                inputs={"Old": make_full((16, 16), 1, name="Old")},
                params={"N": 16}, extra_globals={"blksize": 4},
            )
        # One generic program, or eight per-rank specialized ones.
        assert perf.counter("spmd_compile.miss") == (8 if specialize else 1)

    def test_one_tree_started_as_many_ranks_equals_interp(self):
        """No rank or ring size of an earlier start survives in the tree:
        started as coerce owner / dest / bystander and broadcast owner /
        non-owner, in rings of several sizes and in mixed order, it
        yields the interpreter's effects one for one."""
        program = _roles_program()
        node = compiled_node(program)
        machine = MachineParams.ipsc2()
        starts = [(0, 3), (2, 3), (1, 3), (0, 1), (1, 2), (3, 5), (0, 3)]
        for rank, nprocs in starts:
            expected = _effects(
                _NodeMachine(program, rank, nprocs, machine, {}).run([])
            )
            assert _effects(
                node.start(rank, nprocs, [], machine, {})
            ) == expected, (rank, nprocs)
            assert expected[-1][0] == f"B@p{rank}"
        assert perf.counter("spmd_compile.miss") == 1


def _signature(point):
    return (point.time_us, point.messages, point.bytes)


class TestDifferentialOnStrategies:
    @pytest.mark.parametrize("strategy", STRATEGY_ORDER)
    def test_bitwise_identical_measurements(self, strategy):
        interp = measure(strategy, 12, 3, blksize=4, backend="interp")
        compiled = measure(strategy, 12, 3, blksize=4, backend="compiled")
        assert _signature(interp) == _signature(compiled)

    @pytest.mark.parametrize("strategy", STRATEGY_ORDER)
    def test_per_channel_stats_identical(self, strategy):
        from repro.bench.harness import compile_app
        from repro.core.runner import execute
        from repro.spmd.layout import make_full

        if strategy == "handwritten":
            pytest.skip("channel stats covered via measure() signature")
        compiled = compile_app("gauss_seidel", strategy, 2)
        outcomes = {
            backend: execute(
                compiled,
                2,
                inputs={"Old": make_full((10, 10), 1, name="Old")},
                params={"N": 10},
                extra_globals={"blksize": 4},
                backend=backend,
            )
            for backend in ("interp", "compiled")
        }
        a, b = outcomes["interp"].sim.stats, outcomes["compiled"].sim.stats
        assert dict(a.per_channel) == dict(b.per_channel)
        assert dict(a.per_channel_bytes) == dict(b.per_channel_bytes)
        assert (
            outcomes["interp"].value.to_list()
            == outcomes["compiled"].value.to_list()
        )

    @pytest.mark.parametrize("strategy", ["runtime", "compile", "optI"])
    def test_structured_traces_bit_identical(self, strategy):
        """Fig-6 wavefront: both backends emit identical event streams.

        TraceEvent is a value type, so list equality pins every field of
        every event — kinds, ranks, channels, payload sizes, timings,
        wait and queue attributions.
        """
        from repro.bench.harness import compile_app
        from repro.core.runner import execute
        from repro.spmd.layout import make_full

        compiled = compile_app("gauss_seidel", strategy, 2)
        traces = {}
        for backend in ("interp", "compiled"):
            outcome = execute(
                compiled,
                3,
                inputs={"Old": make_full((12, 12), 1, name="Old")},
                params={"N": 12},
                extra_globals={"blksize": 4},
                trace=True,
                backend=backend,
            )
            traces[backend] = outcome.sim.trace
        assert traces["interp"], "the wavefront must communicate"
        assert traces["interp"] == traces["compiled"]

    @settings(max_examples=12, deadline=None)
    @given(
        n=hs.integers(min_value=4, max_value=14),
        nprocs=hs.integers(min_value=1, max_value=4),
        blksize=hs.integers(min_value=1, max_value=8),
        strategy=hs.sampled_from(STRATEGY_ORDER),
    )
    def test_backends_agree_on_random_configurations(
        self, n, nprocs, blksize, strategy
    ):
        machine = MachineParams.ipsc2()
        interp = measure(
            strategy, n, nprocs, blksize=blksize, machine=machine,
            backend="interp",
        )
        compiled = measure(
            strategy, n, nprocs, blksize=blksize, machine=machine,
            backend="compiled",
        )
        assert _signature(interp) == _signature(compiled)


class TestArrayFastPathParity:
    """The compiled backend's inlined array accessors must raise the
    exact errors of the slow path they replace."""

    def test_read_fast_path_matches_read(self):
        arr = IStructure((3, 4), name="A")
        arr.write(2, 3, 7)
        assert _rd2(arr, 2, 3) == arr.read(2, 3) == 7
        vec = IStructure((5,), name="v")
        vec.write(4, 9)
        assert _rd1(vec, 4) == vec.read(4) == 9

    @pytest.mark.parametrize("indices", [(0, 1), (4, 1), (1, 5)])
    def test_read_out_of_bounds_error_identical(self, indices):
        arr = IStructure((3, 4), name="A")
        with pytest.raises(IStructureError) as fast:
            _rd2(arr, *indices)
        with pytest.raises(IStructureError) as slow:
            arr.read(*indices)
        assert str(fast.value) == str(slow.value)

    def test_read_undefined_error_identical(self):
        arr = IStructure((2, 2), name="A")
        with pytest.raises(IStructureError, match="undefined") as fast:
            _rd2(arr, 1, 1)
        with pytest.raises(IStructureError) as slow:
            arr.read(1, 1)
        assert str(fast.value) == str(slow.value)

    def test_write_fast_path_matches_write(self):
        arr = IStructure((2, 3), name="A")
        _wr2(arr, 1, 2, 5)
        assert arr.read(1, 2) == 5
        assert arr.defined_count == 1
        vec = IStructure((4,), name="v")
        _wr1(vec, 3, 8)
        assert vec.read(3) == 8

    def test_second_write_error_identical(self):
        arr = IStructure((2, 2), name="A")
        arr.write(1, 1, 1)
        with pytest.raises(IStructureError) as fast:
            _wr2(arr, 1, 1, 2)
        with pytest.raises(IStructureError) as slow:
            arr.write(1, 1, 2)
        assert str(fast.value) == str(slow.value)

    def test_write_coerces_float_indices_like_write(self):
        # IStructure.write int()-coerces indices; the fast path must too.
        arr = IStructure((3,), name="v")
        _wr1(arr, 2.0, 11)
        assert arr.read(2) == 11

    def test_local_array_rewrites_allowed(self):
        buf = LocalArray((3,), name="b")
        _wr1(buf, 1, 1)
        _wr1(buf, 1, 2)
        assert _rd1(buf, 1) == 2

    def test_never_written_buffer_slot_error_identical(self):
        buf = LocalArray((2,), name="b")
        with pytest.raises(IStructureError) as fast:
            _rd1(buf, 2)
        with pytest.raises(IStructureError) as slow:
            buf.read(2)
        assert str(fast.value) == str(slow.value)


class TestRuntimeErrorParity:
    def _run(self, program, backend):
        return run_spmd(program, 1, lambda rank: [], backend=backend)

    def test_division_by_zero_same_message(self):
        from repro.errors import NodeRuntimeError

        program = NodeProgram(
            name="div0",
            procs={
                "main": NodeProc(
                    "main", (),
                    body=(NReturn(NBin("div", NConst(1), NConst(0))),),
                )
            },
            entry="main",
        )
        errors = {}
        for backend in ("interp", "compiled"):
            with pytest.raises(NodeRuntimeError) as err:
                self._run(program, backend)
            errors[backend] = str(err.value)
        assert errors["interp"] == errors["compiled"]

    def test_unbound_variable_same_message(self):
        from repro.errors import NodeRuntimeError

        program = NodeProgram(
            name="unbound",
            procs={
                "main": NodeProc("main", (), body=(NReturn(NVar("nope")),))
            },
            entry="main",
        )
        errors = {}
        for backend in ("interp", "compiled"):
            with pytest.raises(NodeRuntimeError) as err:
                self._run(program, backend)
            errors[backend] = str(err.value)
        assert errors["interp"] == errors["compiled"]


# -- expression-level differential ------------------------------------------
#
# Every test above runs whole applications; these build one expression
# at a time, put it where a statement compiler would find it, and demand
# the interpreter's value, charges and errors.

_OPERATORS = ["+", "-", "*", "/", "div", "mod", "==", "!=", "<", "<=", ">",
              ">=", "and", "or"]
_LEAVES = [NConst(v) for v in (0, 1, -1, True, False, 0.5, 1e308)] + [
    NVar("a"),  # a parameter (3)
    NVar("g"),  # a global (2)
    NMyNode(),
    NNProcs(),
]
# A small in-bounds index whose cost is data-dependent: 0 + (g or false).
_DYNAMIC_ONE = NBin("+", NConst(0), NBin("or", NVar("g"), NConst(False)))


_REJECTED = ["operator", "builtin", "arity+", "arity-", "unbound"]


def _rejected(kind, x, y):
    """IR the interpreter rejects, once it has evaluated the operands."""
    if kind == "operator":
        return NBin("xor", x, y)
    if kind == "builtin":
        return NCall("sqrt", (x, y))
    if kind == "arity+":
        return NCall("abs", (x, y))
    if kind == "arity-":
        return NCall("min", (x,))
    return NVar("nope")


def _extend(children):
    index = hs.one_of(
        hs.sampled_from([NConst(1), NConst(2), NConst(4), NVar("g"),
                         NVar("a")]),
        children,
    )
    pair = hs.tuples(children, children)
    return hs.one_of(
        hs.builds(NBin, hs.sampled_from(_OPERATORS), children, children),
        # Again: everything above a short-circuit charges in-line.
        hs.builds(NBin, hs.sampled_from(["and", "or"]), children, children),
        hs.builds(NUn, hs.sampled_from(["not", "-"]), children),
        hs.builds(NCall, hs.sampled_from(["min", "max"]), pair),
        hs.builds(NCall, hs.just("abs"), hs.tuples(children)),
        hs.builds(_rejected, hs.sampled_from(_REJECTED), children, children),
        hs.builds(NIsRead, hs.just("V"), hs.tuples(index)),
        hs.builds(NIsRead, hs.just("M"), hs.tuples(index, index)),
    )


_EXPRS = hs.recursive(hs.sampled_from(_LEAVES), _extend, max_leaves=8)
_POSITIONS = ["return", "scalar", "store1", "store2", "guard"]


def _expr_program(e: NExpr, position: str) -> NodeProgram:
    if position == "return":
        body = [NReturn(e)]
    elif position == "scalar":
        body = [NAssign(VarLV("x"), e), NReturn(NVar("x"))]
    elif position == "store1":
        body = [
            NAllocIs("A", (NConst(2),)),
            NAssign(IsLV("A", (NConst(2),)), e),
            NReturn(NIsRead("A", (NConst(2),))),
        ]
    elif position == "store2":
        body = [
            NAllocIs("B", (NConst(2), NConst(2))),
            NAssign(IsLV("B", (NConst(2), _DYNAMIC_ONE)), e),
            NReturn(NIsRead("B", (NConst(2), NConst(1)))),
        ]
    else:
        body = [
            NIf(e, (NAssign(VarLV("x"), NConst(1)),),
                (NAssign(VarLV("x"), NConst(2)),)),
            NReturn(NVar("x")),
        ]
    main = NodeProc("main", ("a", "V", "M"), frozenset(("V", "M")),
                    tuple(body))
    return NodeProgram(name="expr", procs={"main": main}, entry="main")


def _expr_args(rank):
    vec = IStructure((4,), name="V")  # V[4] stays undefined
    for i in (1, 2, 3):
        vec.write(i, i * 10 + rank)
    mat = IStructure((3, 3), name="M")  # row and column 3 stay undefined
    for i in (1, 2):
        for j in (1, 2):
            mat.write(i, j, i * 2 - j)
    return [3, vec, mat]


def _observe(program, backend):
    """What one backend makes of ``program`` on two ranks: the returned
    values and every charge, or the error."""
    try:
        result = run_spmd(program, 2, _expr_args, globals_={"g": 2},
                          backend=backend)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    # repr: nan equals itself, and True, 1 and 1.0 do not equal each other.
    return ("returned", repr(result.returned), result.sim.finish_times_us)


def _both(e, position="return"):
    program = _expr_program(e, position)
    observed = _observe(program, "compiled")
    assert observed == _observe(program, "interp"), (position, e)
    return observed


class TestExpressionDifferential:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(e=_EXPRS, position=hs.sampled_from(_POSITIONS))
    def test_random_expressions_match_the_interpreter(self, e, position):
        _both(e, position)

    @pytest.mark.parametrize("position", _POSITIONS)
    def test_both_outcomes_are_exercised(self, position):
        fine = NBin("and", NVar("g"), NIsRead("V", (NVar("a"),)))
        assert _both(fine, position)[0] == "returned"
        undefined = NBin("or", NConst(0), NIsRead("V", (NConst(4),)))
        assert _both(undefined, position)[0] == "raised"

    # One expression per place the generated source charges in-line.
    _SHORT = NBin("and", NVar("g"), NVar("a"))  # dynamic; true

    @pytest.mark.parametrize("e", [
        _SHORT,
        NBin("or", NBin("-", NVar("g"), NConst(2)), NIsRead("V", (NVar("a"),))),
        NBin("and", NConst(True), _SHORT),
        NUn("not", _SHORT),
        NUn("-", _SHORT),
        NBin("+", _SHORT, NIsRead("V", (NConst(1),))),
        NBin("div", NVar("a"), _SHORT),
        NCall("max", (NVar("a"), _SHORT)),
        NIsRead("V", (_DYNAMIC_ONE,)),
        NIsRead("M", (NBin("+", NVar("g"), NConst(0)), _DYNAMIC_ONE)),
    ], ids=["and", "or-right-read", "and-const-left", "not", "neg",
            "operator", "div", "builtin", "read1", "read2"])
    @pytest.mark.parametrize("position", _POSITIONS)
    def test_every_in_line_charge_matches(self, e, position):
        assert _both(e, position)[0] == "returned"

    # Literal emission: the source of a folded constant must be a Python
    # literal for that exact value, or a bound helper.
    _INF = NBin("*", NConst(1e308), NConst(10.0))

    @pytest.mark.parametrize("e, check", [
        (_INF, lambda v: v == math.inf),
        (NUn("-", _INF), lambda v: v == -math.inf),
        (NBin("-", _INF, _INF), math.isnan),
        (NUn("-", NConst(-1)), lambda v: v == 1),
        (NUn("-", NUn("-", NVar("a"))), lambda v: v == 3),
        (NBin("-", NVar("a"), NConst(-1)), lambda v: v == 4),
        (NBin("-", NVar("a"), NConst(-0.5)), lambda v: v == 3.5),
        (NBin("*", NVar("a"), NBin("-", NConst(1), NConst(2))),
         lambda v: v == -3),
        (NConst("it's a \"str\"\\\n"), lambda v: v == "it's a \"str\"\\\n"),
        (NBin("==", NConst("s"), NConst("s")), lambda v: v is True),
    ])
    @pytest.mark.parametrize("position", _POSITIONS[:4])
    def test_folded_constants_are_emitted_as_what_they_are(
        self, e, check, position
    ):
        program = _expr_program(e, position)
        result = run_spmd(program, 2, _expr_args, globals_={"g": 2})
        assert all(check(v) for v in result.returned), result.returned
        _both(e, position)

    def test_no_generated_fragment_warns(self):
        """Compile every example app under every strategy with
        SyntaxWarning an error (``1 is 1``, ``1(x)``, a bad escape...)."""
        from repro.apps import (
            gauss_seidel, histogram, jacobi, matmul, mesh, simple, spmv,
            triangular,
        )
        from repro.core.compiler import OptLevel, Strategy, compile_program
        from repro.spmd.compile import CompiledNode
        from repro.tune.space import STRATEGIES

        regular = [
            (gauss_seidel.SOURCE, dict(entry_shapes={"Old": ("N", "N")})),
            (jacobi.SOURCE_WRAPPED, dict(
                entry="jacobi_step", entry_shapes={"Old": ("N", "N")})),
            (matmul.SOURCE, dict(
                entry_shapes={"A": ("N", "N"), "B": ("N", "N")})),
            (triangular.SOURCE, {}),
            (simple.SOURCE, {}),
        ]
        programs = [gauss_seidel.handwritten_wavefront()]
        for source, kwargs in regular:
            for strategy, opt_level in STRATEGIES.values():
                programs.append(compile_program(
                    source, strategy=strategy, opt_level=opt_level, **kwargs
                ).program)
        for app in (spmv, histogram, mesh):
            programs.append(compile_program(
                app.SOURCE, entry=app.ENTRY, entry_shapes=app.ENTRY_SHAPES,
                strategy=Strategy.INSPECTOR, opt_level=OptLevel.NONE,
            ).program)
        cg_code.cache_clear()  # every procedure really is compiled
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            for program in programs:
                CompiledNode(program)
        # One code object per distinct procedure text.
        assert cg_code.cache_info().misses > 20


# -- statement-level differential -------------------------------------------
#
# The twin of the expression differential: random nests of statements —
# loops (zero-trip and non-positive steps included), dynamic and
# constant guards, returns at any depth, ring messages, coerce in every
# role, broadcast and calls to pure, generator and not-yet-compiled
# procedures — run on rings of one to three, every outcome compared.

_P, _S = NMyNode(), NNProcs()
_RIGHT = NBin("mod", NBin("+", _P, NConst(1)), _S)
_LEFT = NBin("mod", NBin("+", _P, NBin("-", _S, NConst(1))), _S)
_TARGETS = ["x", "y", "w"]


def _small_exprs():
    leaves = hs.sampled_from(
        [NConst(v) for v in (0, 1, 2, 3)]
        + [NVar(n) for n in ("a", "x", "y", "i")]
        + [_P, NIsRead("V", (NConst(2),))]
    )

    def extend(children):
        return hs.one_of(
            hs.builds(NBin, hs.sampled_from(
                ["+", "-", "*", "mod", "<", "==", "and", "or"]),
                children, children),
            hs.builds(NUn, hs.sampled_from(["not", "-"]), children),
        )
    return hs.recursive(leaves, extend, max_leaves=4)


_E = _small_exprs()
_VAR = hs.sampled_from(_TARGETS)
_COERCE_ROLES = [
    (NConst(0), NConst(0)),  # owner = dest
    (NConst(0), NConst(1)),  # owner, dest and (S = 3) a bystander
    (NConst(1), NConst(0)),
    (NBin("mod", NVar("a"), _S), NConst(0)),  # roles known at run time
    (_P, _P),
]


def _leaf_stmts():
    def assign(t, e):  # mod 97 keeps loop-carried values small
        return [NAssign(VarLV(t), NBin("mod", e, NConst(97)))]

    def ring(e, t):
        return [NSend(_RIGHT, "ring", (e,)), NRecv(_LEFT, "ring", (VarLV(t),))]

    def vec(hi):
        return [NSendVec(_RIGHT, "vec", "B", NConst(1), NConst(hi)),
                NRecvVec(_LEFT, "vec", "B", NConst(1), NConst(hi))]

    def coerce(t, e, role):
        return [NCoerce(VarLV(t), e, *role, "co")]

    def broadcast(t, e, last):
        owner = NBin("-", _S, NConst(1)) if last else NConst(0)
        return [NBroadcast(VarLV(t), e, owner, "bc")]

    def call(proc, e, t):
        return [NCallProc(proc, (e,), VarLV(t) if t else None)]

    def folded_return(taken, e):  # a guard rank specialization decided
        ret = (NReturn(e),)
        return [NIf(NConst(True), ret) if taken else NIf(NConst(0), (), ret)]

    return hs.one_of(
        hs.builds(assign, _VAR, _E),
        hs.builds(lambda e: [NReturn(e)], _E),
        hs.builds(folded_return, hs.booleans(), _E),
        hs.builds(ring, _E, _VAR),
        hs.builds(vec, hs.integers(0, 4)),
        hs.builds(coerce, _VAR, _E, hs.sampled_from(_COERCE_ROLES)),
        hs.builds(broadcast, _VAR, _E, hs.booleans()),
        hs.builds(call, hs.sampled_from(["pure", "gen", "late"]), _E,
                  hs.sampled_from([*_TARGETS, None])),
    )


def _nest(children):
    body = hs.lists(children, max_size=3).map(
        lambda parts: tuple(s for part in parts for s in part)
    )
    loop = hs.builds(
        lambda var, lo, hi, step, b: [NFor(var, lo, hi, step, b)],
        hs.sampled_from(["i", "j"]),
        hs.sampled_from([NConst(0), NConst(1), NVar("y")]),
        hs.sampled_from([NConst(0), NConst(1), NConst(3), NVar("a")]),
        hs.sampled_from([NConst(1), NConst(1), NConst(2), NConst(0),
                         NConst(-1), NBin("-", NVar("a"), NConst(2))]),
        body,
    )
    guard = hs.one_of(_E, hs.sampled_from(
        [NConst(True), NConst(False), NBin("==", NConst(1), NConst(2))]
    ))
    branch = hs.builds(lambda c, t, e: [NIf(c, t, e)], guard, body, body)
    return hs.one_of(loop, branch)


_STMTS = hs.recursive(_leaf_stmts(), _nest, max_leaves=8)


def _stmt_program(parts) -> NodeProgram:
    x, r = NVar("x"), NVar("r")
    pure = NodeProc("pure", ("x",), body=(
        NAssign(VarLV("r"), NBin("mod", x, NConst(5))),
        NFor("k", NConst(1), NConst(3), NConst(1), (
            NAssign(VarLV("r"), NBin("+", r, NVar("k"))),
            NIf(NBin(">", r, NConst(6)), (NReturn(NBin("*", r, NConst(2))),)),
        )),
        NReturn(r),
    ))
    gen = NodeProc("gen", ("x",), body=(
        NSend(_RIGHT, "gen", (x,)),
        NRecv(_LEFT, "gen", (VarLV("r"),)),
        NReturn(NBin("+", r, NConst(1))),
    ))
    late = NodeProc("late", ("x",), body=(
        NIf(NBin(">", x, NConst(2)), (NReturn(x),)),
        NReturn(NConst(0)),
    ))
    prologue = [NAssign(VarLV(n), NConst(v))
                for n, v in (("x", 1), ("y", 2), ("w", 0), ("i", 0))]
    prologue += [
        NAllocBuf("B", (NConst(4),)),
        NFor("k", NConst(1), NConst(4), NConst(1),
             (NAssign(BufLV("B", (NVar("k"),)), NVar("k")),)),
    ]
    body = (*prologue, *(s for part in parts for s in part),
            NReturn(NBin("+", NVar("x"), NBin("*", NVar("y"), NVar("w")))))
    main = NodeProc("main", ("a", "V", "M"), frozenset(("V", "M")), body)
    procs = {"pure": pure, "gen": gen, "main": main, "late": late}
    return NodeProgram(name="stmts", procs=procs, entry="main")


def _stmt_observe(program, nprocs, backend, **options):
    try:
        result = run_spmd(program, nprocs, _expr_args, backend=backend,
                          **options)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    stats = result.sim.stats
    return ("returned", repr(result.returned), result.sim.finish_times_us,
            dict(stats.per_channel), dict(stats.per_channel_bytes))


def _walked_rows(program, nprocs):
    """Each rank's rows from the plain walk and from the verifier's, or
    ``None`` for a flavour that abstains on some rank."""
    flavours = []
    for cls in (Walker, VerifyWalk):
        code = cls.compile(program)
        entry = program.entry_proc()
        chan_ids: dict[str, int] = {}
        rows = []
        for rank in range(nprocs):
            walker = cls(code, rank, nprocs, {}, chan_ids)
            try:
                walked = walker.run(abstract_args(entry, lambda _: 3))
            except ModelError:
                break
            if cls is VerifyWalk and not walker.completed:
                break
            rows.append(walked)
        flavours.append(rows if len(rows) == nprocs else None)
    return flavours


class TestStatementDifferential:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(parts=hs.lists(_STMTS, max_size=4))
    def test_random_statements_match_the_interpreter(self, parts):
        program = _stmt_program(parts)
        # The last: packed onto two processors (the simulator defers
        # receives, §5.4) under a step budget the run may exhaust.
        for nprocs, options in [(1, {}), (2, {}), (3, {}), (
            3, {"placement": [1, 0, 0], "max_steps": 17}
        )]:
            observed = _stmt_observe(program, nprocs, "compiled", **options)
            assert observed == _stmt_observe(
                program, nprocs, "interp", **options
            ), (nprocs, options, program)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(parts=hs.lists(_STMTS, max_size=4))
    # On one rank a broadcast flushes and sends nothing: a summarized
    # body whose only row is its leading flush still flushes each time.
    @example(parts=[[NFor("i", NConst(0), NConst(1), NConst(1), (
        NBroadcast(VarLV("x"), NConst(0), NConst(0), "bc"),
        NAssign(VarLV("x"), NBin("mod", NConst(0), NConst(97))),
    ))]])
    def test_walked_rows_clock_to_the_interpreter(self, parts):
        """Both flavours of the abstract walk, clocked by ``run_rows``
        after expanding their repeat markers, finish every rank when the
        interpreter does, wherever the walk does not abstain."""
        program = _stmt_program(parts)
        for nprocs in (1, 2, 3):
            try:
                sim = run_spmd(program, nprocs, _expr_args,
                               backend="interp").sim
            except Exception:
                continue  # an error or a deadlock: no clock to match
            for walked in _walked_rows(program, nprocs):
                if walked is None:
                    continue  # the walk abstained
                run = run_rows([expand(rows) for rows in walked], nprocs,
                               MachineParams.ipsc2())
                assert not run.stuck, (nprocs, program)
                assert run.clock == sim.finish_times_us, (nprocs, program)

    _BUF = [NAllocBuf("B", (NConst(4),))] + [
        NAssign(BufLV("B", (NConst(k),)), NConst(k)) for k in (1, 2)
    ]

    @pytest.mark.parametrize("body", [
        [NSend(_RIGHT, "c", (NConst(1), NConst(2))),
         NRecv(_LEFT, "c", (VarLV("x"),))],
        [*_BUF, NSendVec(_RIGHT, "v", "B", NConst(1), NConst(2)),
         NRecvVec(_LEFT, "v", "B", NConst(1), NConst(3))],
        [NFor("i", NConst(1), NConst(3), NVar("g"), ())],
        [NAllocIs("A", (NConst(2),)),
         NSendVec(_RIGHT, "v", "A", NConst(1), NConst(1))],
        [NCallProc("nope", (NConst(1),), VarLV("x"))],
        [NCallProc("main", (NConst(1),), VarLV("x"))],
        [NCallProc("main", (), VarLV("x"))],
    ], ids=["recv-arity", "vector-length", "loop-step", "not-a-buffer",
            "unknown-proc", "proc-arity", "call-depth"])
    def test_statement_errors_match(self, body):
        main = NodeProc("main", (), body=tuple(body))
        program = NodeProgram("errors", {"main": main}, "main")
        errors = []
        for backend in ("interp", "compiled"):
            with pytest.raises(NodeRuntimeError) as err:
                run_spmd(program, 2, lambda rank: [], globals_={"g": 0},
                         backend=backend)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_a_receive_before_a_vector_send_still_blocks(self):
        """A procedure that may block stays a generator whatever its
        later statements are: here the last message is a vector send."""
        main = NodeProc("main", (), body=(
            *self._BUF,
            NSend(_RIGHT, "s", (_P,)),
            NRecv(_LEFT, "s", (VarLV("x"),)),
            NSendVec(_RIGHT, "v", "B", NConst(1), NConst(2)),
            NReturn(NVar("x")),
        ))
        program = NodeProgram("vec-last", {"main": main}, "main")
        results = [run_spmd(program, 3, lambda rank: [], backend=backend)
                   for backend in ("interp", "compiled")]
        assert results[0].returned == results[1].returned == [2, 0, 1]
        assert (results[0].sim.finish_times_us
                == results[1].sim.finish_times_us)

    @pytest.mark.parametrize("body", ["pure", "send"])
    @pytest.mark.parametrize("guard", ["then", "else"])
    def test_a_folded_return_charges_nothing_after_it(self, body, guard):
        """A constant guard's branch that returns ends the straight-line
        run: the statements after it are never charged."""
        a = NVar("a")
        square = NBin("+", NBin("*", NConst(2), a), NBin("*", a, a))
        ret = (NReturn(NConst(1)),)
        stmts = [
            NAssign(VarLV("a"), NConst(3)),
            NIf(NConst(True), ret) if guard == "then"
            else NIf(NConst(False), (), ret),
            NAssign(VarLV("b"), square),
            NAssign(VarLV("c"), square),
        ]
        if body == "send":
            stmts.append(NSend(_RIGHT, "late", (NVar("b"),)))
        main = NodeProc("main", (), body=tuple(stmts))
        program = NodeProgram("folded", {"main": main}, "main")
        results = {
            backend: run_spmd(program, 2, lambda rank: [], backend=backend)
            for backend in ("interp", "compiled")
        }
        for result in results.values():
            assert result.returned == [1, 1]
            assert result.sim.finish_times_us == [0.0, 0.0]

    @pytest.mark.parametrize("kind, depth", [("for", 24), ("if", 110)])
    def test_deep_nests_compile_and_agree(self, kind, depth):
        """Nests past CPython's 20 nested blocks and 100 indentation
        levels: the innermost body sends, receives and returns."""
        body = (
            NSend(_RIGHT, "deep", (NVar("x"),)),
            NRecv(_LEFT, "deep", (VarLV("x"),)),
            NIf(NBin(">", NVar("x"), NConst(0)),
                (NReturn(NBin("+", NVar("x"), NConst(depth))),)),
        )
        for level in range(depth):
            if kind == "for":
                body = (NFor(f"i{level % 3}", NConst(1), NConst(1),
                             NConst(1), body),)
            else:
                body = (NIf(NBin(">=", _P, NConst(0)), body),
                        NAssign(VarLV("y"), NConst(level)))
        main = NodeProc("main", (), body=(
            NAssign(VarLV("x"), NBin("+", _P, NConst(1))), *body,
            NReturn(NConst(-1)),
        ))
        program = NodeProgram("deep", {"main": main}, "main")
        results = [run_spmd(program, 2, lambda rank: [], backend=backend)
                   for backend in ("interp", "compiled")]
        assert results[0].returned == results[1].returned == [
            2 + depth, 1 + depth
        ]
        assert (results[0].sim.finish_times_us
                == results[1].sim.finish_times_us)


# -- division in line and hoisted invariants ----------------------------------
#
# The value backend divides in line and computes an invariant such as the
# block size once, before the outermost loop; ``_div``/``_mod`` run only
# to raise. None of it may move a value, a row, a charge or an error.

#: The block size ``((N + nprocs()) - 1) div nprocs()``: 0 when N = 0.
_BLOCK = NBin("div", NBin("-", NBin("+", NVar("N"), _S), NConst(1)), _S)


def _divide_after_a_message(op, left):
    """A zero-trip loop dividing by the block size, then a loop that
    sends, receives and divides."""
    divide = NAssign(VarLV("x"), NBin(op, left, _BLOCK))
    body = (
        NAssign(VarLV("x"), NConst(-1)),
        NFor("i", NConst(1), NConst(0), NConst(1), (divide,)),
        NFor("i", NConst(1), NConst(2), NConst(1), (
            NSend(_RIGHT, "c", (NVar("i"),)),
            NRecv(_LEFT, "c", (VarLV("y"),)),
            divide,
        )),
        NReturn(NVar("x")),
    )
    main = NodeProc("main", (), body=body)
    return NodeProgram("divide", {"main": main}, "main")


def _by_hand(program, globals_, backend):
    """Rank 0 of two, each receive fed ``(7,)``: its effects, then what
    it returned or the text of what it raised."""
    params = MachineParams.ipsc2()
    if backend == "interp":
        gen = _NodeMachine(program, 0, 2, params, globals_).run([])
        out, reply = [], None
        try:
            while True:
                effect = gen.send(reply)
                out.append(effect)
                reply = (7,) if isinstance(effect, Recv) else None
        except StopIteration as stop:
            return out + [("returned", stop.value)]
        except NodeRuntimeError as err:
            return out + [("raised", str(err))]
    st = compiled_node(program).start(0, 2, [], params, globals_)
    try:
        returned = ("returned", run_by_hand(st, [(7,)] * 4))
    except NodeRuntimeError as err:
        returned = ("raised", str(err))
    return _recorded_effects(st) + [returned]


def _divisions(run):
    """How many times ``run()`` calls the value backend's ``_div`` and
    ``_mod``."""
    codes = {backend._div.__code__, backend._mod.__code__}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


class TestDivisionContract:
    @pytest.mark.parametrize("op, zero", [("div", "division by zero"),
                                          ("mod", "modulo by zero")])
    @pytest.mark.parametrize("globals_, left, outcome", [
        ({"N": 0}, NBin("-", NVar("i"), NConst(1)), "zero"),
        ({"N": 5}, NBin("-", NVar("i"), NConst(1)), "returned"),
        ({}, NBin("-", NVar("i"), NConst(1)), "unbound variable 'N'"),
        ({"N": 0}, NVar("nope"), "unbound variable 'nope'"),
    ], ids=["zero-block", "block", "unbound-global", "unbound-left"])
    def test_the_interpreters_rows_charges_and_error(
        self, op, zero, globals_, left, outcome
    ):
        """A zero block size lets the zero-trip loop run clean and
        the first real division raise the interpreter's text after the
        same rows; an unbound global in the hoisted block size raises
        at its first use, and an unbound left operand before the zero
        divisor is looked at."""
        program = _divide_after_a_message(op, left)
        observed = _by_hand(program, globals_, "compiled")
        assert observed == _by_hand(program, globals_, "interp")
        *effects, (how, what) = observed
        if outcome == "returned":
            assert how == "returned"
            return
        assert how == "raised" and (zero if outcome == "zero"
                                    else outcome) in what
        # The zero-trip loop ran clean: a message went out.
        assert any(isinstance(e, Send) for e in effects)

    @pytest.mark.parametrize("g", [0, 2, None])
    @pytest.mark.parametrize("trips", [0, 2])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(e=_EXPRS)
    def test_random_loop_expressions_match_the_interpreter(self, e, trips,
                                                           g):
        """Random expressions in a loop body, where their invariant
        parts are hoisted: with the global ``g`` zero, non-zero or
        unbound, values, charges and errors are the interpreter's."""
        main = NodeProc("main", ("a", "V", "M"), frozenset(("V", "M")), (
            NAssign(VarLV("x"), NConst(0)),
            NFor("i", NConst(1), NConst(trips), NConst(1),
                 (NAssign(VarLV("x"), e),)),
            NReturn(NVar("x")),
        ))
        program = NodeProgram("loop", {"main": main}, "main")
        globals_ = {} if g is None else {"g": g}
        observed = []
        for name in ("compiled", "interp"):
            try:
                result = run_spmd(program, 2, _expr_args, globals_=globals_,
                                  backend=name)
                observed.append((repr(result.returned),
                                 result.sim.finish_times_us))
            except Exception as exc:
                observed.append((type(exc), str(exc)))
        assert observed[0] == observed[1], e

    def test_block_distributed_runs_never_call_the_helpers(self):
        """spmv under the inspector and triangular under run-time
        resolution divide by the block size throughout: at S = 4 neither
        calls ``_div`` or ``_mod``."""
        from repro.apps import spmv, triangular
        from repro.core.compiler import OptLevel, Strategy, compile_program
        from repro.core.runner import execute

        inputs, nnz = spmv.make_inputs(20)
        irregular = compile_program(
            spmv.SOURCE, entry=spmv.ENTRY, entry_shapes=spmv.ENTRY_SHAPES,
            strategy=Strategy.INSPECTOR, opt_level=OptLevel.NONE,
        )
        fill = compile_program(triangular.SOURCE, strategy=Strategy.RUNTIME)
        with perf.caches_disabled():
            assert _divisions(lambda: execute(
                irregular, 4, inputs=inputs,
                params={"N": 20, "NNZ": nnz, "T": 2}, backend="compiled",
            )) == 0
            assert _divisions(lambda: execute(
                fill, 4, params={"N": 12}, backend="compiled",
            )) == 0
