"""How SPMD IR nodes pickle.

Every IR dataclass reduces to ``(class, field values)``: dumping a node
is one Python call and none into :mod:`dataclasses`, and loading runs
the constructor. Blobs written in dataclasses' own state form (what the
store held before) must still load.
"""

import copyreg
import dataclasses
import io
import pickle
import sys

import pytest
from hypothesis import HealthCheck, given, settings

from repro.apps import histogram, mesh, spmv
from repro.core.compiler import OptLevel, Strategy, compile_program
from repro.spmd import ir
from repro.spmd.ir import (
    BufLV, NAllocBuf, NAssign, NBin, NBufRead, NCall, NConst, NExchange,
    NFor, NIf, NMyNode, NNProcs, NodeProc, NodeProgram, NResolve, NReturn,
    NSend, NUn, NVar, VarLV,
)
from repro.spmd.pretty import pretty_program
from tests.spmd.test_compile_backend import _EXPRS
from tests.spmd.test_compiled_rows import AFFINE_STRATEGIES, APPS, _compiled

IR_CLASSES = [
    cls for cls in vars(ir).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
]


def _programs():
    for app in sorted(APPS):
        for strategy in AFFINE_STRATEGIES:
            yield f"{app}-{strategy}", _compiled(app, strategy).program
    for mod in (histogram, mesh, spmv):
        compiled = compile_program(
            mod.SOURCE, entry=mod.ENTRY, entry_shapes=mod.ENTRY_SHAPES,
            strategy=Strategy.INSPECTOR, opt_level=OptLevel.NONE,
        )
        yield f"{mod.__name__.rsplit('.', 1)[1]}-inspector", compiled.program


PROGRAMS = dict(_programs())


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _nodes(obj, seen: set) -> None:
    """Collect the ids of every IR node reachable from ``obj``."""
    if isinstance(obj, (tuple, list, frozenset)):
        for item in obj:
            _nodes(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _nodes(item, seen)
    elif dataclasses.is_dataclass(obj) and id(obj) not in seen:
        seen.add(id(obj))
        for f in dataclasses.fields(obj):
            _nodes(getattr(obj, f.name), seen)


def test_slots_name_the_fields_in_order():
    # The codec reads field values through ``__slots__``.
    assert len(IR_CLASSES) > 30
    for cls in IR_CLASSES:
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_programs_roundtrip_to_the_same_text(name):
    program = PROGRAMS[name]
    back = _roundtrip(program)
    assert type(back) is NodeProgram
    assert pretty_program(back) == pretty_program(program)
    assert back.procs == program.procs
    assert back.entry == program.entry


@settings(max_examples=200, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(e=_EXPRS)
def test_expressions_roundtrip_equal_and_hash_equal(e):
    back = _roundtrip(e)
    assert back == e
    assert hash(back) == hash(e)
    assert type(back) is type(e)


def test_bodies_come_back_as_tuples():
    leaf = NAssign(VarLV("x"), NConst(1))
    nodes = [
        NFor("i", NConst(0), NConst(3), NConst(1), [leaf]),
        NIf(NVar("c"), [leaf], [leaf, leaf]),
        NExchange("s", "A", "ch", [NResolve("s", NVar("i"))], NConst(0),
                  NConst(0)),
        NodeProc("p", ["a"], {"a"}, [leaf]),
    ]
    for node in nodes:
        back = _roundtrip(node)
        assert back == node
        for f in dataclasses.fields(back):
            value = getattr(back, f.name)
            if f.name.endswith("body") or f.name == "params":
                assert type(value) is tuple, (node, f.name)
        if type(back) is NodeProc:
            assert type(back.array_params) is frozenset


def test_loading_runs_the_constructor():
    # A blob whose body is a list: only ``__post_init__`` makes it a tuple.
    class ListBody(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is NFor:
                return NFor, (obj.var, obj.lo, obj.hi, obj.step,
                              list(obj.body))
            return NotImplemented

    node = NFor("i", NConst(0), NConst(3), NConst(1),
                [NAssign(VarLV("x"), NVar("i"))])
    buf = io.BytesIO()
    ListBody(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(node)
    assert b"NFor" in buf.getvalue()
    back = pickle.loads(buf.getvalue())
    assert type(back.body) is tuple
    assert back == node


# ---------------------------------------------------------------------------
# Blobs in dataclasses' state form
# ---------------------------------------------------------------------------

#: ``pickle.dumps(_state_form_program(), protocol=5)`` as written when IR
#: nodes still pickled through dataclasses' ``__getstate__``
#: (``copyreg.__newobj__`` plus a list of field values per node).
STATE_FORM_BLOB = bytes.fromhex(
    "8005954e020000000000008c0d726570726f2e73706d642e6972948c0b4e6f64"
    "6550726f6772616d9493942981945d94288c0170947d948c046d61696e946800"
    "8c084e6f646550726f639493942981945d942868078c016e9485942891946800"
    "8c094e416c6c6f634275669493942981945d94288c01629468008c064e436f6e"
    "73749493942981945d944b0461628594656268008c044e466f72949394298194"
    "5d94288c01699468152981945d944b00616268008c044e566172949394298194"
    "5d94680c616268152981945d944b01616268008c034e49669493942981945d94"
    "2868008c044e42696e9493942981945d94288c013c9468212981945d94681d61"
    "6268008c074e4d794e6f64659493942981945d9462656268008c074e41737369"
    "676e9493942981945d942868008c054275664c569493942981945d9428681368"
    "212981945d94681d61628594656268008c034e556e9493942981945d94288c01"
    "2d9468212981945d94681d616265626562859468008c054e53656e6494939429"
    "81945d9428682b2981945d94288c036d6f6494682b2981945d94288c012b9468"
    "322981945d946268152981945d944b016162656268008c074e4e50726f637394"
    "93942981945d946265628c0263309468212981945d94681d6162859465628594"
    "65628594656268008c074e52657475726e9493942981945d9468008c054e4361"
    "6c6c9493942981945d94288c036d61789468152981945d94473fe00000000000"
    "00616268008c084e427566526561649493942981945d9428681368152981945d"
    "944b006162859465628694656261628794656273680765622e"
)


def _state_form_program() -> NodeProgram:
    body = (
        NAllocBuf("b", (NConst(4),)),
        NFor("i", NConst(0), NVar("n"), NConst(1), [
            NIf(NBin("<", NVar("i"), NMyNode()),
                [NAssign(BufLV("b", (NVar("i"),)), NUn("-", NVar("i")))],
                [NSend(NBin("mod", NBin("+", NMyNode(), NConst(1)),
                            NNProcs()), "c0", (NVar("i"),))]),
        ]),
        NReturn(NCall("max", (NConst(0.5), NBufRead("b", (NConst(0),))))),
    )
    return NodeProgram(
        "p", {"main": NodeProc("main", ["n"], frozenset(), body)}, "main"
    )


class StateForm(pickle.Pickler):
    """Pickles IR nodes the way dataclasses' ``__getstate__`` did."""

    def reducer_override(self, obj):
        if type(obj) in IR_CLASSES:
            return copyreg.__newobj__, (type(obj),), obj.__getstate__()
        return NotImplemented


def test_a_state_form_blob_still_loads_equal():
    expected = _state_form_program()
    back = pickle.loads(STATE_FORM_BLOB)
    assert type(back) is NodeProgram
    assert back.procs == expected.procs
    assert pretty_program(back) == pretty_program(expected)
    # Re-dumped, it takes the smaller (class, fields) form.
    assert len(pickle.dumps(back, protocol=5)) < len(STATE_FORM_BLOB)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_state_form_programs_still_load(name):
    program = PROGRAMS[name]
    buf = io.BytesIO()
    StateForm(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(program)
    back = pickle.loads(buf.getvalue())
    assert back.procs == program.procs
    assert pretty_program(back) == pretty_program(program)


# ---------------------------------------------------------------------------
# What dumping calls
# ---------------------------------------------------------------------------


def test_dumping_calls_nothing_in_dataclasses():
    program = PROGRAMS["gauss_seidel-optIII"]
    nodes: set = set()
    _nodes(program, nodes)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        sys.setprofile(None)
    from_dataclasses = {
        code.co_name for code in calls
        if code.co_filename == dataclasses.__file__
    }
    assert not from_dataclasses
    # One Python-level call per node.
    assert len(calls) <= len(nodes), (len(calls), len(nodes))
