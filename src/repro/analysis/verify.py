"""Driver: walk every rank, then run the registered analysis passes.

:func:`verify_compiled` is the package entry point. It mirrors
:func:`repro.tune.model.predict`'s argument conventions (``params``,
``machine``, ``extra_globals``, ``inputs``) so callers can verify
exactly the configuration they would execute — but instead of a cost it
returns a :class:`~repro.analysis.diagnostics.Report`.

Per rank the driver reads a :class:`~repro.analysis.walk.VerifyWalk`
from :func:`walk_ranks` — the one place a configuration's ranks are
walked. Generated control flow never depends on array data, so that one
walk fixes the verdict *and* the clock chain: the passes read its
rows, origins, trackers and findings, and the deadlock pass and
:func:`repro.tune.predict` share one clocking of its rows
(:func:`clock_ranks`), so a configuration that is verified and then
priced (``tune``, the service build, ``compile_program(verify=True)``)
is walked and clocked once.
A walk that cannot finish does not kill verification: data-dependent
control (``ModelError``) yields an ``UNV001`` *warning* — the program
may well be fine, the verifier just cannot tell — while a structural
runtime error (``NodeRuntimeError``: unknown procedure, bad arity,
non-positive step) yields an ``UNV002`` *error*, because the simulator
would die on the same statement. Passes that need every rank's skeleton
(channel balance, deadlock) stay silent when any rank aborted rather
than reason from incomplete evidence.

``UNV001`` abstentions are deduplicated: ranks that abort with the same
cause at the same walk position share one diagnostic carrying the rank
list, and when the compiled program recorded inspector sites
(``compiled.inspector_sites``) the message names the specific indirect
references — array, loop path, and source line — that force the
abstention.
"""

from __future__ import annotations

from repro import perf
from repro.analysis import passes as _passes  # noqa: F401  (registers)
from repro.analysis.diagnostics import PASSES, Report, Severity
from repro.analysis.walk import DEFINED, VerifyWalk
from repro.errors import CompileError, NodeRuntimeError
from repro.machine import MachineParams
from repro.machine.rows import RowsRun, run_rows
from repro.spmd import ir
from repro.spmd.walk import UNKNOWN

_PER_CODE_CAP = 10  # identical-shape findings kept per (code, rank)

# Verification is deterministic in (program, ring, bindings) — the tuner
# re-verifies the same compiled program once per candidate ring size —
# so the diagnostics are memoized; persistent, so a fresh process (CLI
# rerun, --jobs worker) loads them from the shared artifact store.
_verify_cache: dict = perf.register_cache(
    "verify", {}, persistent=True, key_fn=perf.stable_key("verify"),
)


class _Latest(dict):
    """A memo table of one entry: storing a key drops the one before."""

    def __setitem__(self, key, value) -> None:
        self.clear()
        super().__setitem__(key, value)


# The walked ranks of one (program, ring, bindings): what the passes
# check and what ``repro.tune.predict`` clocks. Memory only (trackers
# and walk state, not a result), and one entry: the flows that share a
# walk — ``tune``, the service build, ``compile_program(verify=True)``
# — verify a configuration and then price it before moving to the next,
# while every retained walk pins all its ranks' rows.
perf.register_cache("rank_walks", _Latest())


def walk_ranks(
    program: ir.NodeProgram, nprocs: int, globals_, inputs
) -> tuple[tuple[VerifyWalk, ...], tuple[str, ...]]:
    """Every rank's finished :class:`VerifyWalk` and the channel names
    their rows' channel ids index (memoized: ``rank_walks``)."""

    def build():
        code = VerifyWalk.compile(program)
        entry_proc = program.entry_proc()
        args = [
            DEFINED if pname in entry_proc.array_params
            else inputs.get(pname, UNKNOWN)
            for pname in entry_proc.params
        ]
        chan_ids: dict[str, int] = {}
        walkers = []
        for rank in range(nprocs):
            walker = VerifyWalk(code, rank, nprocs, globals_, chan_ids)
            walker.run(args)
            walkers.append(walker)
        return tuple(walkers), tuple(chan_ids)

    key = (
        program,  # identity-hashed
        nprocs,
        tuple(sorted(globals_.items())),
        tuple(sorted(inputs.items())),
    )
    return perf.memo("rank_walks", key, build)


# One clocking per walk and machine, for the deadlock pass and
# ``repro.tune.predict``; one entry, like ``rank_walks``.
perf.register_cache("rank_clock", _Latest())


def clock_ranks(walkers, machine: MachineParams) -> RowsRun:
    """:func:`~repro.machine.rows.run_rows` over the walkers' compact
    rows (memoized on the walk's identity and ``machine``:
    ``rank_clock``)."""
    return perf.memo("rank_clock", (walkers, machine), lambda: run_rows(
        [walker.events for walker in walkers], len(walkers), machine
    ))


class VerifyContext:
    """Everything the passes share about one verification run."""

    __slots__ = (
        "program", "nprocs", "globals", "machine", "walkers", "channels",
        "aborted", "compiled",
    )

    def __init__(
        self, program: ir.NodeProgram, nprocs: int, globals_, machine,
        compiled=None,
    ):
        self.program = program
        self.nprocs = nprocs
        self.globals = dict(globals_)
        self.machine = machine
        self.walkers: tuple[VerifyWalk, ...] = ()
        self.channels: tuple[str, ...] = ()  # channel id -> name
        self.aborted: dict[int, str] = {}  # rank -> diagnostic code
        self.compiled = compiled  # the CompiledProgram, when available

    def clock(self) -> RowsRun:
        """The reference scheduler's run over every rank's rows."""
        return clock_ranks(self.walkers, self.machine)


def verify_compiled(
    compiled,
    nprocs: int,
    params: dict[str, int] | None = None,
    machine: MachineParams | None = None,
    extra_globals: dict[str, object] | None = None,
    inputs: dict[str, object] | None = None,
    metadata: dict | None = None,
    extra_passes: tuple[str, ...] = (),
) -> Report:
    """Statically verify ``compiled`` (a ``CompiledProgram`` or a bare
    :class:`~repro.spmd.ir.NodeProgram`) on ``nprocs`` processors.

    ``extra_passes`` names opt-in registered passes (those declared with
    ``register_pass(..., default=False)``, e.g. ``"locality"``) to run
    in addition to the default safety passes."""
    program = getattr(compiled, "program", compiled)
    params = dict(params or {})
    param_names = getattr(compiled, "param_names", ())
    missing = [name for name in param_names if name not in params]
    if missing:
        raise CompileError(f"missing values for params {missing}")
    machine = machine or MachineParams.ipsc2()
    globals_: dict[str, object] = dict(params)
    globals_.update(extra_globals or {})
    inputs = dict(inputs or {})

    report = Report()
    report.metadata.update(metadata or {})
    report.metadata.setdefault("nprocs", nprocs)

    key = (
        program,  # identity-hashed
        nprocs,
        machine,
        tuple(sorted(globals_.items())),
        tuple(sorted(inputs.items())),
        tuple(extra_passes),
    )
    # Diagnostics are frozen dataclasses, safe to share between reports;
    # metadata stays per-call and is never cached.
    report.diagnostics.extend(perf.memo("verify", key, lambda: _diagnose(
        compiled, program, nprocs, machine, globals_, inputs, extra_passes
    )))
    return report


def _diagnose(
    compiled, program, nprocs: int, machine, globals_, inputs, extra_passes
) -> tuple:
    """Walk every rank and run the passes: one run's diagnostics."""
    report = Report()
    ctx = VerifyContext(
        program, nprocs, globals_, machine,
        compiled=compiled if compiled is not program else None,
    )

    # UNV001 abstentions grouped by (cause, walk position): identical
    # sites across ranks collapse into one diagnostic with a rank list.
    abstained: dict[tuple[str, tuple[str, ...]], list[int]] = {}
    ctx.walkers, ctx.channels = walk_ranks(program, nprocs, globals_, inputs)
    for rank, walker in enumerate(ctx.walkers):
        err = walker.error
        if isinstance(err, NodeRuntimeError):
            ctx.aborted[rank] = "UNV002"
            report.add(
                "UNV002", Severity.ERROR, "driver",
                f"rank {rank}: walk aborted by a structural runtime "
                f"error: {err}",
                rank=rank, path=tuple(walker.path),
            )
        elif err is not None:  # ModelError: the walk cannot tell
            ctx.aborted[rank] = "UNV001"
            abstained.setdefault(
                (str(err), tuple(walker.path)), []
            ).append(rank)
        _add_capped(report, walker.findings)

    sites = _site_summaries(getattr(compiled, "inspector_sites", None))
    for (cause, path), ranks in abstained.items():
        site_note = f"; indirect site(s): {', '.join(sites)}" if sites else ""
        report.add(
            "UNV001", Severity.WARNING, "driver",
            f"{_rank_list(ranks)}: walk incomplete ({cause}){site_note}; "
            "balance and deadlock verdicts are unavailable",
            path=path, ranks=list(ranks), sites=sites,
        )

    unknown = [
        name for name in extra_passes
        if name not in PASSES
    ]
    if unknown:
        raise CompileError(f"unknown analysis pass(es) {unknown}")
    for name, pass_fn in PASSES.items():
        if getattr(pass_fn, "default_enabled", True) or name in extra_passes:
            pass_fn(ctx, report)
    return tuple(report.diagnostics)


def _rank_list(ranks: list[int]) -> str:
    """``rank 3`` / ``ranks 0-3`` / ``ranks 0,2,5`` — compact and exact."""
    ranks = sorted(ranks)
    if len(ranks) == 1:
        return f"rank {ranks[0]}"
    if ranks == list(range(ranks[0], ranks[-1] + 1)):
        return f"ranks {ranks[0]}-{ranks[-1]}"
    return "ranks " + ",".join(str(r) for r in ranks)


def _site_summaries(sites) -> list[str]:
    """One line per recorded indirect site: array, index arrays, loop
    path, source line. Deduplicated preserving discovery order."""
    out: list[str] = []
    for site in sites or ():
        arrays = "+".join(site.get("index_arrays") or ()) or "?"
        text = f"{site.get('kind', '?')} {site.get('array', '?')}[{arrays}]"
        path = site.get("path") or ()
        if path:
            text += f" in {' > '.join(path)}"
        line = site.get("line") or 0
        if line:
            text += f" at line {line}"
        if text not in out:
            out.append(text)
    return out


def _add_capped(report: Report, findings) -> None:
    """Copy walk findings, capping repeats of one code on one rank.

    A bad site inside an ``N``-trip loop fires once per iteration; the
    first few carry all the forensic value."""
    counts: dict[tuple, int] = {}
    for diag in findings:
        key = (diag.code, diag.rank)
        seen = counts.get(key, 0)
        if seen >= _PER_CODE_CAP:
            continue
        counts[key] = seen + 1
        report.diagnostics.append(diag)
