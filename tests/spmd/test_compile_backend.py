"""Differential tests: the compiled backend vs the reference interpreter.

The compiled backend (`repro.spmd.compile`) must be observationally
identical to the tree-walking interpreter — same simulated times, same
message statistics, same I-structure contents, same errors. These tests
pin that contract, including a property test over random problem sizes,
ring widths, and strategies.
"""

import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from repro import perf
from repro.bench.harness import STRATEGY_ORDER, measure
from repro.errors import IStructureError
from repro.machine import MachineParams, Recv
from repro.runtime import IStructure, LocalArray
from repro.spmd import NodeProc, NodeProgram, compiled_node, run_spmd
from repro.spmd.ir import (
    IsLV,
    NAllocIs,
    NAssign,
    NBin,
    NBroadcast,
    NCall,
    NCoerce,
    NConst,
    NExpr,
    NIf,
    NIsRead,
    NMyNode,
    NNProcs,
    NReturn,
    NUn,
    NVar,
    VarLV,
)
from repro.spmd.compile import _cg_code, _rd1, _rd2, _wr1, _wr2
from repro.spmd.interp import _NodeMachine


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


def _effects(gen, payloads=((7,), (9,))):
    """Drive one processor's effect generator by hand (canned receive
    payloads): every effect, then what it returned."""
    payloads = list(payloads)
    out = []
    reply = None
    try:
        while True:
            effect = gen.send(reply)
            out.append(effect)
            reply = payloads.pop(0) if isinstance(effect, Recv) else None
    except StopIteration as stop:
        arr = stop.value
        out.append((arr.name, arr.read(1), arr.read(2)))
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
        from repro.apps import gauss_seidel as gs
        from repro.bench.harness import _compiled as compile_strategy
        from repro.core.runner import execute
        from repro.spmd.layout import make_full

        compiled = compile_strategy("optIII", gs.SOURCE, 2)
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
        from repro.bench.harness import _compiled as compile_strategy
        from repro.apps import gauss_seidel as gs
        from repro.core.runner import execute
        from repro.spmd.layout import make_full

        if strategy == "handwritten":
            pytest.skip("channel stats covered via measure() signature")
        compiled = compile_strategy(strategy, gs.SOURCE, 2)
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
        from repro.bench.harness import _compiled as compile_strategy
        from repro.apps import gauss_seidel as gs
        from repro.core.runner import execute
        from repro.spmd.layout import make_full

        compiled = compile_strategy(strategy, gs.SOURCE, 2)
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
        _cg_code.cache_clear()  # every fragment really is compiled
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            for program in programs:
                CompiledNode(program)
        assert _cg_code.cache_info().misses > 100
