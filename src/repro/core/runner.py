"""Run a compiled program on the simulated machine.

Scatters entry array inputs according to their distributions, executes
the SPMD program on ``nprocs`` simulated processors, and gathers the
returned array (if any) back into a global I-structure so results can be
compared with the sequential interpreter.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro import perf
from repro.errors import CompileError
from repro.inspector.context import INSPECTOR_GLOBAL, InspectorContext
from repro.machine import MachineParams, SimResult
from repro.obs.utilization import comm_idle_fractions
from repro.runtime import IStructure
from repro.core.common import CompiledProgram
from repro.spmd.interp import SPMDResult, run_spmd
from repro.spmd.layout import gather, scatter
from repro.spmd.walk import abstract_args

# Inspector communication schedules, keyed on (program text, ring size,
# params, index-array contents). A hit lets a run skip the enumeration
# and request round entirely — the executor replays the cached schedule.
_schedule_cache: dict = perf.register_cache(
    "inspector", {}, persistent=True, key_fn=lambda key: key
)


def _schedule_key(
    compiled: CompiledProgram,
    nprocs: int,
    params: dict[str, int],
    sources: dict[str, IStructure],
) -> str | None:
    """Cache key for this run's schedules, or ``None`` if uncacheable.

    Schedules are determined by the program (which fixes decomposition
    and loop structure), the ring size, the scalar params (loop bounds),
    and the *contents* of the index arrays. Those must all be entry
    parameters for their contents to be digestible here; an index array
    computed inside the program makes the run uncacheable (schedules are
    still built and reused within the run, just not across runs).
    """
    index_arrays: set[str] = set()
    for site in compiled.inspector_sites:
        index_arrays.update(site["index_arrays"])
    if not index_arrays.issubset(sources):
        return None
    h = hashlib.sha256()
    h.update(repr(compiled.program).encode())  # the pretty-printed text
    h.update(json.dumps([nprocs, sorted(params.items())]).encode())
    for name in sorted(index_arrays):
        arr = sources[name]
        h.update(name.encode())
        h.update(repr(arr.shape).encode())
        h.update(repr(arr.to_list(None)).encode())
    return f"isched-{h.hexdigest()}"


@dataclass
class ExecutionOutcome:
    """Observable results of one simulated execution."""

    value: object  # gathered IStructure, scalar, or None
    spmd: SPMDResult

    @property
    def sim(self) -> SimResult:
        return self.spmd.sim

    @property
    def makespan_us(self) -> float:
        return self.spmd.makespan_us

    @property
    def total_messages(self) -> int:
        return self.spmd.total_messages


@dataclass(frozen=True)
class MeasurePoint:
    """One simulated execution.

    ``time_us`` is *simulated* microseconds (deterministic);
    ``comm_frac``/``idle_frac`` split the machine-time integral
    (``nprocs * makespan``) into communication overhead and idle waiting
    (see :func:`repro.obs.utilization.comm_idle_fractions`); the
    remainder is useful compute.
    """

    strategy: str
    n: int
    nprocs: int
    blksize: int
    time_us: float
    messages: int
    bytes: int
    backend: str = "compiled"
    comm_frac: float = 0.0
    idle_frac: float = 0.0

    @property
    def time_ms(self) -> float:
        return self.time_us / 1000.0

    def simulated(self) -> dict:
        """Every field but ``backend``: all execution backends agree on
        these byte for byte."""
        fields = asdict(self)
        del fields["backend"]
        return fields

    @classmethod
    def from_outcome(
        cls,
        outcome: ExecutionOutcome,
        strategy: str,
        n: int,
        nprocs: int,
        blksize: int,
        backend: str,
    ) -> "MeasurePoint":
        comm_frac, idle_frac = comm_idle_fractions(outcome.sim)
        return cls(
            strategy=strategy,
            n=n,
            nprocs=nprocs,
            blksize=blksize,
            time_us=outcome.makespan_us,
            messages=outcome.total_messages,
            bytes=outcome.sim.stats.total_bytes,
            backend=backend,
            comm_frac=comm_frac,
            idle_frac=idle_frac,
        )


def execute(
    compiled: CompiledProgram,
    nprocs: int,
    inputs: dict[str, object] | None = None,
    params: dict[str, int] | None = None,
    machine: MachineParams | None = None,
    extra_globals: dict[str, object] | None = None,
    trace: bool = False,
    max_steps: int = 50_000_000,
    specialize: bool = False,
    placement: list[int] | None = None,
    backend: str = "compiled",
) -> ExecutionOutcome:
    """Execute ``compiled`` on ``nprocs`` processors.

    ``inputs`` supplies the entry procedure's arguments by name: global
    :class:`IStructure` values for array parameters (scattered here
    according to their distribution) and plain numbers for scalars.
    ``params`` binds every ``param`` declaration. ``extra_globals`` adds
    run-time knobs such as the strip-mining ``blksize``.
    ``specialize=True`` partially evaluates the program per rank first
    (the paper's per-processor code generation), removing guard overhead.
    ``placement`` maps the ``nprocs`` processes onto fewer physical
    processors (paper §5.3-5.4). ``backend`` selects the execution
    engine (see :func:`repro.spmd.interp.run_spmd`).
    """
    inputs = inputs or {}
    params = dict(params or {})
    missing = [name for name in compiled.param_names if name not in params]
    if missing:
        raise CompileError(f"missing values for params {missing}")

    for dist in compiled.spec.distributions.values():
        dist.check_ring(nprocs)
    env = {**compiled.checked.consts, **params, "S": nprocs}
    entry_info = compiled.array_info[compiled.entry]
    entry_proc = compiled.checked.proc(compiled.entry)

    sources: dict[str, IStructure] = {}
    for pname in compiled.entry_array_params:
        if pname not in inputs:
            raise CompileError(f"missing input array {pname!r}")
        source = inputs[pname]
        if not isinstance(source, IStructure):
            raise CompileError(
                f"input {pname!r} must be an IStructure (see "
                "repro.spmd.layout.make_full)"
            )
        info = entry_info[pname]
        expected = tuple(d.evaluate(env) for d in info.shape)
        if source.shape != expected:
            raise CompileError(
                f"input {pname!r} has shape {source.shape}, expected "
                f"{expected}"
            )
        sources[pname] = source

    parts_by_name: dict[str, list[IStructure]] = {}

    def parts(pname: str) -> list[IStructure]:
        got = parts_by_name.get(pname)
        if got is None:
            got = parts_by_name[pname] = scatter(
                sources[pname], entry_info[pname].dist, nprocs, name=pname
            )
        return got

    def scalar_input(pname: str) -> object:
        if pname not in inputs:
            raise CompileError(f"missing input scalar {pname!r}")
        return inputs[pname]

    def make_args(rank: int) -> list[object]:
        return [
            parts(param.name)[rank]
            if param.type.is_array()
            else scalar_input(param.name)
            for param in entry_proc.params
        ]

    if backend == "replay":
        # The replay extractor never looks at array *values*, so hand it
        # an argument maker that skips the (expensive) scatter; the real
        # ``make_args`` scatters lazily if the run falls back.
        def extract_args(rank: int) -> list[object]:
            return abstract_args(compiled.program.entry_proc(), scalar_input)
    else:
        extract_args = None
        for pname in compiled.entry_array_params:
            parts(pname)  # eager, as before

    globals_: dict[str, object] = dict(params)
    globals_.update(extra_globals or {})
    inspector_ctx: InspectorContext | None = None
    schedule_key: str | None = None
    if compiled.inspector_sites and INSPECTOR_GLOBAL not in globals_:
        preplans = None
        schedule_key = _schedule_key(compiled, nprocs, params, sources)
        if schedule_key is not None:
            cached = perf.lookup("inspector", schedule_key)
            if cached is not perf.MISSING:
                preplans = InspectorContext.load_plans(cached)
        inspector_ctx = InspectorContext(preplans)
        globals_[INSPECTOR_GLOBAL] = inspector_ctx
    if specialize:
        from repro.core.specialize import specialize_for_rank

        with perf.phase("specialize"):
            programs = [
                specialize_for_rank(compiled.program, rank, nprocs)
                for rank in range(nprocs)
            ]
        program = lambda rank: programs[rank]  # noqa: E731
    else:
        program = compiled.program
    with perf.phase("execute"):
        result = run_spmd(
            program,
            nprocs,
            make_args,
            machine=machine,
            globals_=globals_,
            trace=trace,
            max_steps=max_steps,
            placement=placement,
            backend=backend,
            extract_args=extract_args,
        )

    if (
        inspector_ctx is not None
        and schedule_key is not None
        and inspector_ctx.built
    ):
        perf.insert(
            "inspector", schedule_key,
            InspectorContext.dump_plans(inspector_ctx.built),
        )

    if result.backend == "replay":
        # Replay advances clocks only; there are no values to gather.
        value: object = None
    elif compiled.entry_return_array is not None:
        info = compiled.entry_return_array
        shape = tuple(d.evaluate(env) for d in info.shape)
        value = gather(
            result.returned, info.dist, nprocs, shape, name="result"
        )
    else:
        value = result.returned[0]
    return ExecutionOutcome(value=value, spmd=result)
