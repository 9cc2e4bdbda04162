"""The compiled backend records rows and ``run_rows`` times them.

A compiled run is clock-free: each rank records the rows the live
simulator would have been handed as effects and moves payloads through
FIFO channels itself; :func:`repro.machine.rows.run_rows` clocks the rows
(the live simulator replays them only for a trace or a packing of
processes onto fewer processors). These tests pin

* the rows themselves: per rank, the plain walker's rows expanded, with
  channel ids spelled as names, on the example apps and on generated
  statement nests;
* every observable the interpreter (still on the live simulator) also
  produces: the full ``SimResult`` of packed, traced and leaking runs,
  and the texts of deadlocks, invalid peers and an exhausted step
  budget;
* that an untraced run on one processor per process never reaches the
  simulator.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hs

from repro.apps import gauss_seidel, histogram, jacobi, matmul, mesh, simple
from repro.apps import spmv, triangular
from repro.core.compiler import (
    OptLevel, Strategy, compile_program, compile_program_cached,
)
from repro.core.runner import execute
from repro.errors import (
    DeadlockError, ModelError, NodeRuntimeError, ReproError,
)
from repro.machine import Simulator
from repro.machine.rows import expand
from repro.machine.stats import ChannelKey
from repro.spmd import NodeProc, NodeProgram, run_spmd
from repro.spmd import compile as backend
from repro.spmd.ir import (
    NAssign, NBin, NConst, NFor, NIf, NMyNode, NRecv, NSend, NVar, VarLV,
)
from repro.spmd.layout import make_full
from repro.spmd.walk import ARRAY, Walker
from repro.tune.space import STRATEGIES
from tests.spmd.test_compile_backend import (
    _STMTS, _expr_args, _stmt_program,
)

BLKSIZE = 4
APPS = {
    "gauss_seidel": (gauss_seidel.SOURCE, "gs_iteration", ("Old",)),
    "jacobi": (jacobi.SOURCE_WRAPPED, "jacobi_step", ("Old",)),
    "triangular": (triangular.SOURCE, "fill", ()),
    "matmul": (matmul.SOURCE, "matmul", ("A", "B")),
}
AFFINE_STRATEGIES = ("runtime", "compile", "optI", "optII", "optIII")
JAMMED = {("jacobi", "optII"), ("jacobi", "optIII")}


def _compiled(app, strategy):
    source, entry, arrays = APPS[app]
    strat, opt_level = STRATEGIES[strategy]
    return compile_program_cached(
        source, entry=entry, strategy=strat, opt_level=opt_level,
        entry_shapes={a: ("N", "N") for a in arrays} or None,
        assume_nprocs_min=2,
    )


def _execute(compiled, nprocs, n=8, **kwargs):
    inputs = {
        a: make_full((n, n), 1, name=a) for a in compiled.entry_array_params
    }
    return execute(
        compiled, nprocs, inputs=inputs, params={"N": n},
        extra_globals={"blksize": BLKSIZE}, **kwargs,
    )


def _recorded_rows(monkeypatch, run):
    """The rows ``run()`` hands to ``run_rows``."""
    seen = []
    real = backend.run_rows

    def spy(rows, nprocs, params):
        seen.append([list(r) for r in rows])
        return real(rows, nprocs, params)

    monkeypatch.setattr(backend, "run_rows", spy)
    run()
    monkeypatch.undo()
    (rows,) = seen
    return rows


def _walked_rows(program, nprocs, globals_, args):
    """Every rank's plain-walker rows, expanded, channels by name."""
    code = Walker.compile(program)
    chan_ids: dict[str, int] = {}
    walked = [
        Walker(code, rank, nprocs, globals_, chan_ids).run(args)
        for rank in range(nprocs)
    ]
    names = list(chan_ids)
    return [
        [(k, peer, names[chan] if chan != -1 else -1, plen, ops, mems)
         for k, peer, chan, plen, ops, mems in expand(rows)]
        for rows in walked
    ]


# -- the rows ---------------------------------------------------------------


@pytest.mark.parametrize("app, strategy", [
    (app, strategy) for app in sorted(APPS) for strategy in AFFINE_STRATEGIES
    if (app, strategy) not in JAMMED  # a deadlock leaves rows unfinished
])
def test_app_rows_are_the_walkers_rows(monkeypatch, app, strategy):
    compiled = _compiled(app, strategy)
    program = compiled.program
    args = [ARRAY] * len(program.entry_proc().params)
    for nprocs in (2, 3, 4, 7, 16):
        recorded = _recorded_rows(
            monkeypatch, lambda: _execute(compiled, nprocs)
        )
        walked = _walked_rows(
            program, nprocs, {"N": 8, "blksize": BLKSIZE}, args
        )
        assert recorded == walked, (app, strategy, nprocs)


@settings(max_examples=150, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(parts=hs.lists(_STMTS, max_size=4))
# An inner loop reusing the outer loop's variable leaves it 0, not the
# outer loop's last value 1: the summarized loop must not claim the 1.
@example(parts=[
    [NFor("i", NConst(0), NConst(1), NConst(1),
          (NFor("i", NConst(0), NConst(0), NConst(1), ()),))],
    [NIf(NVar("i"), (),
         (NAssign(VarLV("x"), NBin("mod", NConst(0), NConst(97))),))],
])
def test_generated_statement_rows_are_the_walkers_rows(parts):
    program = _stmt_program(parts)
    for nprocs in (1, 2, 3):
        try:
            walked = _walked_rows(
                program, nprocs, {}, [3, ARRAY, ARRAY]  # as _expr_args
            )
        except (ModelError, NodeRuntimeError, ReproError):
            continue  # the walker abstains (or the program fails)
        with pytest.MonkeyPatch.context() as monkeypatch:
            try:
                recorded = _recorded_rows(
                    monkeypatch,
                    lambda: run_spmd(program, nprocs, _expr_args),
                )
            except ReproError:
                continue  # it raises (deadlock, run-time error)
        assert recorded == walked, (nprocs, program)


# -- everything the simulator still sees ------------------------------------


def _observed(sim):
    """Every field of a SimResult, channel statistics in insertion
    order."""
    return (
        sim.nprocs, sim.finish_times_us, sim.busy_times_us,
        sim.cpu_finish_us, sim.cpu_busy_us, sim.comm_times_us,
        sim.stats.total_messages, sim.stats.total_bytes,
        list(sim.stats.per_channel.items()),
        list(sim.stats.per_channel_bytes.items()),
        sim.undelivered, sim.trace, sim.traced,
    )


def _outcome(run):
    try:
        return "ok", run()
    except ReproError as exc:
        return "raise", exc


def _same_error(got, ref):
    assert type(got) is type(ref)
    assert str(got) == str(ref)
    if isinstance(ref, DeadlockError):
        assert got.blocked == ref.blocked
        assert got.wait_for == ref.wait_for
        assert got.undelivered == ref.undelivered


PACKINGS = {
    "round_robin": lambda nprocs: [rank % 2 for rank in range(nprocs)],
    "block": lambda nprocs: [rank * 2 // nprocs for rank in range(nprocs)],
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("packing", [None, *PACKINGS])
@pytest.mark.parametrize("strategy", ["runtime", "optI", "optIII"])
def test_packed_and_traced_runs_equal_the_interpreter(
    strategy, packing, trace
):
    compiled = _compiled("gauss_seidel", strategy)
    placement = PACKINGS[packing](4) if packing else None
    results = {
        b: _execute(compiled, 4, placement=placement, trace=trace,
                    backend=b)
        for b in ("interp", "compiled")
    }
    assert results["compiled"].value.to_list() == (
        results["interp"].value.to_list()
    )
    assert _observed(results["compiled"].sim) == (
        _observed(results["interp"].sim)
    )
    assert bool(results["compiled"].sim.trace) == trace


# Rank 0 sends twice on "x"; rank 1 takes one.
LEAKY = NodeProgram("leak", {"main": NodeProc("main", (), body=(
    NIf(NBin("==", NMyNode(), NConst(0)), (
        NSend(NConst(1), "x", (NConst(5),)),
        NSend(NConst(1), "x", (NConst(6),)),
    ), (NRecv(NConst(0), "x", (VarLV("v"),)),)),
))}, "main")


@pytest.mark.parametrize("kwargs", [{}, {"trace": True},
                                    {"placement": [0, 0]}])
def test_leaks_equal_the_interpreter(kwargs):
    (ref_kind, ref), (got_kind, got) = (
        _outcome(lambda b=b: run_spmd(LEAKY, 2, lambda rank: [], backend=b,
                                      **kwargs))
        for b in ("interp", "compiled")
    )
    assert got_kind == ref_kind == "ok"
    assert _observed(got.sim) == _observed(ref.sim)
    assert got.sim.undelivered == ref.sim.undelivered == {
        ChannelKey(0, 1, "x"): 1
    }


@pytest.mark.parametrize("strategy", ["optII", "optIII"])
def test_jammed_jacobi_deadlocks_alike_on_every_backend(strategy):
    pytest.importorskip("numpy")
    compiled = _compiled("jacobi", strategy)
    outcomes = [
        _outcome(lambda b=b: _execute(compiled, 2, backend=b))
        for b in ("interp", "compiled", "replay")
    ]
    (kind, ref), *others = outcomes
    assert kind == "raise" and isinstance(ref, DeadlockError)
    for got_kind, got in others:
        assert got_kind == "raise"
        _same_error(got, ref)


@pytest.mark.parametrize("body", [
    (NSend(NConst(2), "c", (NConst(1),)),),
    (NSend(NConst(-1), "c", (NConst(1),)),),
    (NSend(NMyNode(), "c", (NConst(1),)),),
    (NRecv(NConst(5), "c", (VarLV("v"),)),),
    (NRecv(NMyNode(), "c", (VarLV("v"),)),),
], ids=["past-ring", "negative", "self-send", "recv-past-ring",
        "self-recv"])
def test_invalid_peers_fail_alike(body):
    program = NodeProgram("peer", {"main": NodeProc("main", (), body=body)},
                          "main")
    errors = [
        _outcome(lambda b=b: run_spmd(program, 2, lambda rank: [],
                                      backend=b))
        for b in ("interp", "compiled")
    ]
    assert [kind for kind, _ in errors] == ["raise", "raise"]
    assert isinstance(errors[0][1], NodeRuntimeError)
    _same_error(errors[1][1], errors[0][1])


@pytest.mark.parametrize("packing", [None, *PACKINGS])
@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("strategy", ["runtime", "optI", "optIII"])
def test_a_small_step_budget_stops_alike(strategy, trace, packing):
    """Budgets from 1 step to past the run's length: the same
    SimulationError text (step count and hottest rank) or the same
    result — on one processor per process, and packed, where the
    receives the simulator defers (§5.4) are steps too."""
    compiled = _compiled("gauss_seidel", strategy)
    placement = PACKINGS[packing](3) if packing else None
    exceeded = 0
    for budget in [*range(1, 160, 3), 10_000]:
        got, ref = (
            _outcome(lambda b=b: _execute(
                compiled, 3, n=6, max_steps=budget, trace=trace,
                placement=placement, backend=b,
            ))
            for b in ("compiled", "interp")
        )
        assert got[0] == ref[0], budget
        if ref[0] == "raise":
            _same_error(got[1], ref[1])
            exceeded += "exceeded" in str(ref[1])
        else:
            assert _observed(got[1].sim) == _observed(ref[1].sim)
    assert exceeded > 10
    assert ref[0] == "ok"  # the last budget is past the run's length


# -- the clock --------------------------------------------------------------


def _irregular(mod, inputs, params):
    compiled = compile_program(
        mod.SOURCE, entry=mod.ENTRY, entry_shapes=mod.ENTRY_SHAPES,
        strategy=Strategy.INSPECTOR, opt_level=OptLevel.NONE,
    )
    return execute(compiled, 3, inputs=inputs, params=params)


def _spmv():
    inputs, nnz = spmv.make_inputs(12)
    return _irregular(spmv, inputs, {"N": 12, "NNZ": nnz, "T": 2})


EIGHT_APPS = {
    **{app: (lambda app=app: _execute(_compiled(app, "optI"), 3))
       for app in APPS},
    "simple": lambda: execute(
        compile_program(simple.SOURCE, strategy=Strategy.COMPILE_TIME), 4
    ),
    "spmv": _spmv,
    "histogram": lambda: _irregular(
        histogram, histogram.make_inputs(24, 5), {"N": 24, "M": 5}
    ),
    "mesh": lambda: _irregular(
        mesh, mesh.make_inputs(12), {"N": 12, "T": 2}
    ),
}


def test_untraced_runs_on_the_base_machine_never_reach_the_simulator(
    monkeypatch
):
    def refuse(self, factory, placement=None):
        raise AssertionError("Simulator.run called")

    monkeypatch.setattr(Simulator, "run", refuse)
    for app, run in EIGHT_APPS.items():
        outcome = run()
        assert outcome.spmd.backend == "compiled", app
        assert outcome.makespan_us > 0.0, app
    assert len(EIGHT_APPS) == 8
