"""The compilation driver.

``compile_program`` is the library's front door: it takes mini-Id source
(or an already-checked program), the domain decomposition, a strategy and
an optimization level, and produces a :class:`CompiledProgram` ready for
:func:`repro.core.runner.execute`.

Strategies and levels map onto the paper:

======================  =====================================================
``Strategy.RUNTIME``    §3.1 run-time resolution (Figure 4b)
``Strategy.COMPILE_TIME``  §3.2 compile-time resolution (Figures 4d, 5)
``Strategy.INSPECTOR``  run-time resolution + inspector/executor schedules
                        for data-dependent (indirect) accesses
``OptLevel.NONE``       no message optimization
``OptLevel.VECTORIZE``  Optimized I — combine loop-invariant sends (A.2)
``OptLevel.JAM``        Optimized II — + loop jamming / pipelining (A.3)
``OptLevel.STRIPMINE``  Optimized III — + strip mining / blocking (A.4)
======================  =====================================================

The paper applies Optimized I-III "to the compile-time resolution
output", so a source-text compilation shares everything the opt level
cannot change: one parse + check per source text (``frontend``) and one
resolution per (source, entry, strategy, shapes, ring assumption)
(``resolve``); only the rewrites, validation and the
:class:`CompiledProgram` record are per level.
"""

from __future__ import annotations

from enum import Enum, IntEnum

from repro import perf
from repro.distrib import DecompositionSpec
from repro.errors import CompileError
from repro.lang import check_program, parse_program
from repro.lang.typecheck import CheckedProgram
from repro.core.common import (
    CompiledProgram,
    entry_return_array_info,
    infer_array_info,
)
from repro.core.runtime_resolution import RuntimeResolver
from repro.spmd import validate_program


class Strategy(str, Enum):
    RUNTIME = "runtime"
    COMPILE_TIME = "compile_time"
    INSPECTOR = "inspector"


class OptLevel(IntEnum):
    NONE = 0
    VECTORIZE = 1  # Optimized I
    JAM = 2  # Optimized II
    STRIPMINE = 3  # Optimized III


def compile_program(
    source: str | CheckedProgram,
    spec: DecompositionSpec | None = None,
    entry: str | None = None,
    strategy: Strategy = Strategy.COMPILE_TIME,
    opt_level: OptLevel = OptLevel.NONE,
    entry_shapes: dict[str, tuple] | None = None,
    assume_nprocs_min: int = 1,
    verify: bool = False,
    verify_nprocs: tuple[int, ...] = (2,),
    verify_params: dict[str, int] | None = None,
) -> CompiledProgram:
    """Compile a program under a domain decomposition.

    ``entry_shapes`` gives the global shape of each entry array parameter
    as expressions over params/consts, e.g. ``{"Old": ("N", "N")}``.
    ``assume_nprocs_min`` lets compile-time resolution fold guards that
    would otherwise need a run-time test for degenerate ring sizes
    (e.g. 2 promises S >= 2, so neighbouring columns are always remote).

    ``verify=True`` runs the static communication-safety verifier
    (:func:`repro.analysis.verify_compiled`) on the compiled program for
    each ring size in ``verify_nprocs`` and raises
    :class:`repro.errors.VerifyError` (carrying the full report) if any
    severity-error diagnostic is found. ``verify_params`` must bind every
    ``param`` the program declares (e.g. ``{"N": 16}``); extra keys such
    as ``blksize`` become run-time globals for the verification walk.
    """
    with perf.phase("compile"):
        compiled = _compile_program(
            source, spec, entry, strategy, opt_level, entry_shapes,
            assume_nprocs_min,
        )
    if verify:
        from repro.analysis import verify_compiled
        from repro.errors import VerifyError

        values = dict(verify_params or {})
        params = {
            k: v for k, v in values.items() if k in compiled.param_names
        }
        extra = {
            k: v for k, v in values.items()
            if k not in compiled.param_names
        }
        with perf.phase("verify"):
            for nprocs in verify_nprocs:
                report = verify_compiled(
                    compiled, nprocs, params=params, extra_globals=extra,
                    metadata={"entry": compiled.entry, "nprocs": nprocs},
                )
                if report.has_errors:
                    first = report.errors[0]
                    raise VerifyError(
                        f"static verification failed at nprocs={nprocs}: "
                        f"{first.code} {first.message} "
                        f"({len(report.errors)} error(s) total)",
                        report=report,
                    )
    return compiled


def compile_program_cached(
    source: str,
    entry: str | None = None,
    strategy: Strategy = Strategy.COMPILE_TIME,
    opt_level: OptLevel = OptLevel.NONE,
    entry_shapes: dict[str, tuple] | None = None,
    assume_nprocs_min: int = 1,
) -> CompiledProgram:
    """Memoized :func:`compile_program` for source-text compilations.

    Keyed on every argument (``entry_shapes`` canonicalized by sorting),
    so repeat compiles — bench sweeps re-measuring the same strategy at
    different problem sizes, tests recompiling a fixture — are O(1) dict
    hits. Custom :class:`DecompositionSpec` objects are not hashable by
    value; callers needing ``spec=`` should use :func:`compile_program`
    directly. Respects the global cache switch in :mod:`repro.perf`.
    """
    key = (
        source,
        entry,
        strategy,
        opt_level,
        tuple(sorted((entry_shapes or {}).items())),
        assume_nprocs_min,
    )
    return perf.memo(
        "compile", key,
        lambda: compile_program(
            source,
            entry=entry,
            strategy=strategy,
            opt_level=opt_level,
            entry_shapes=entry_shapes,
            assume_nprocs_min=assume_nprocs_min,
        ),
    )


# Schema tag for persisted CompiledProgram payloads. A pickle from an
# older revision can load *successfully* yet lack newly added fields
# (dataclass defaults do not apply to unpickled instances), which the
# store's corrupt-entry handling cannot catch — so the tag goes in the
# key and stale entries simply miss. Bump when CompiledProgram or the
# IR it embeds changes shape.
_COMPILE_SCHEMA = 3  # 3: inspector_sites carry line/col/loop path

# Every key component (source text, entry name, Strategy/OptLevel enums,
# sorted shape tuples, int) has a process-independent repr.
perf.register_cache(
    "compile", {}, persistent=True,
    key_fn=perf.stable_key(f"compile|s{_COMPILE_SCHEMA}"),
)


# The shared front half. Memory only: ASTs and resolver output have no
# process-independent key and cost less to rebuild than to unpickle.
# Everything shared is read-only downstream — IR nodes are frozen,
# transforms build new programs, nothing writes to a CheckedProgram
# after the checker.
perf.register_cache("frontend", {})
perf.register_cache("resolve", {})


def _front(
    source: str | CheckedProgram,
    spec: DecompositionSpec | None,
    entry: str | None,
) -> tuple[CheckedProgram, DecompositionSpec, str]:
    """The checked program, with the spec and entry defaulted."""
    if isinstance(source, str):
        from repro.core.polymorphism import monomorphize

        checked = perf.memo(
            "frontend", source,
            lambda: check_program(monomorphize(parse_program(source))),
        )
    else:
        checked = source
        if any(p.map_params for p in checked.procs.values()):
            raise CompileError(
                "program has mapping-polymorphic procedures; pass the source "
                "text (or run repro.core.polymorphism.monomorphize first)"
            )
    if spec is None:
        spec = DecompositionSpec.from_program(checked)
    if entry is None:
        entry = default_entry(checked)
    if entry not in checked.procs:
        raise CompileError(f"unknown entry procedure {entry!r}")
    return checked, spec, entry


def _resolve(
    source: str | CheckedProgram,
    spec: DecompositionSpec | None,
    entry: str | None,
    strategy: Strategy,
    entry_shapes: dict[str, tuple] | None,
    assume_nprocs_min: int,
) -> tuple:
    """``(checked, spec, entry, array_info, program, inspector_sites)``:
    everything up to the un-optimized node program."""
    checked, spec, entry = _front(source, spec, entry)
    array_info = infer_array_info(checked, spec, entry, entry_shapes)
    inspector_sites: list[dict] = []
    if strategy is Strategy.RUNTIME:
        resolver = RuntimeResolver(checked, spec, array_info)
        program = resolver.generate(entry, name=f"rtr-{entry}")
    elif strategy is Strategy.INSPECTOR:
        from repro.core.inspector_resolution import InspectorResolver

        resolver = InspectorResolver(checked, spec, array_info)
        program = resolver.generate(entry, name=f"ixr-{entry}")
        inspector_sites = resolver.inspector_sites
    else:
        from repro.core.compile_time import CompileTimeResolver

        resolver = CompileTimeResolver(
            checked, spec, array_info, assume_nprocs_min=assume_nprocs_min
        )
        program = resolver.generate(entry, name=f"ctr-{entry}")
    return checked, spec, entry, array_info, program, inspector_sites


def _compile_program(
    source: str | CheckedProgram,
    spec: DecompositionSpec | None,
    entry: str | None,
    strategy: Strategy,
    opt_level: OptLevel,
    entry_shapes: dict[str, tuple] | None,
    assume_nprocs_min: int,
) -> CompiledProgram:
    if opt_level is not OptLevel.NONE and strategy is not Strategy.COMPILE_TIME:
        _front(source, spec, entry)  # its errors come first
        raise CompileError(
            "message optimizations apply to compile-time resolution only "
            "(the paper's Optimized I-III start from Figure 5)"
        )
    resolution = (
        source, spec, entry, strategy, entry_shapes, assume_nprocs_min
    )
    if isinstance(source, str) and spec is None:
        key = (
            source,
            entry,
            strategy,
            tuple(sorted((entry_shapes or {}).items())),
            assume_nprocs_min,
        )
        resolved = perf.memo("resolve", key, lambda: _resolve(*resolution))
    else:  # specs and checked programs are not hashable by value
        resolved = _resolve(*resolution)
    checked, spec, entry, array_info, program, inspector_sites = resolved
    if opt_level >= OptLevel.VECTORIZE:
        from repro.core.transforms import optimize

        program = optimize(program, opt_level)

    validate_program(program)
    return CompiledProgram(
        program=program,
        checked=checked,
        spec=spec,
        entry=entry,
        strategy=f"{strategy.value}+O{int(opt_level)}"
        if strategy is Strategy.COMPILE_TIME
        else strategy.value,
        array_info=array_info,
        entry_array_params=[
            p.name for p in checked.proc(entry).params if p.type.is_array()
        ],
        entry_return_array=entry_return_array_info(checked, entry, array_info),
        param_names=list(checked.params),
        inspector_sites=inspector_sites,
    )


def default_entry(checked: CheckedProgram) -> str:
    """The procedure nobody calls; error if ambiguous."""
    from repro.lang import ast

    called: set[str] = set()
    for proc in checked.procs.values():
        for stmt in ast.walk_stmts(proc.body):
            if isinstance(stmt, ast.CallStmt):
                called.add(stmt.func)
            for e in ast.stmt_exprs(stmt):
                if e is None:
                    continue
                for sub in ast.walk_exprs(e):
                    if isinstance(sub, ast.CallExpr) and sub.func in checked.procs:
                        called.add(sub.func)
    roots = [name for name in checked.procs if name not in called]
    if len(roots) == 1:
        return roots[0]
    raise CompileError(
        f"cannot pick an entry procedure automatically (roots: {roots}); "
        "pass entry=..."
    )
