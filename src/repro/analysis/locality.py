"""Static locality analyzer: the findings behind a decomposition.

The paper's thesis is that process decomposition should follow *locality
of reference*, yet its compiler takes the ``map`` declaration as input.
This pass reads the program's own access functions
(:mod:`repro.analysis.access`), pairs each statement's write with the
reads feeding it, and reports what only the program text can say: the
array rank (and so the layout family to search), the reference pairs
that leave residual communication on each axis, the references it
cannot analyze, and triangular nests that unbalance an axis.

It does not rank. Its candidates are every layout of the family
(:data:`repro.distrib.builtin.LAYOUTS`), each carrying its axis's
findings as rationale; the exact cost model
(:func:`repro.tune.model.predict`) orders them at the real N and S, in
:func:`repro.tune.search.tune` (whose default map axis they are) and
``bench maps``.

Alignment-edge classes per axis:

``aligned``
    read and write subscripts differ by 0 on this axis — no
    communication under any 1-D layout of the axis.
``shift(k)``
    constant offset ``k``; with a flow dependence (a read of the array
    being written) it is a wavefront.
``unaligned`` / ``opaque``
    subscripts disagree in a loop variable (or are not affine at all):
    all-to-all on this axis.

Diagnostics (codes are stable API, see
:mod:`repro.analysis.diagnostics`):

========== ======== ====================================================
``LOC001`` info     one candidate decomposition map and its rationale
``LOC002`` info     the reference pair forcing a residual communication
``LOC003`` warning  a reference abstained from analysis (not affine)
``LOC004`` info     load imbalance detected on an axis
========== ======== ====================================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro import perf
from repro.analysis.access import (
    Reference,
    StatementAccess,
    extract_references,
)
from repro.analysis.diagnostics import Report, Severity, register_pass
from repro.distrib.builtin import LAYOUTS
from repro.lang import ast
from repro.symbolic import Const, simplify

_AXIS_DIM = {"rows": 0, "cols": 1, "elems": 0}


@dataclass(frozen=True)
class MapCandidate:
    """One layout of the program's family, with its axis's findings."""

    dist: str
    axis: str
    layout: str
    rationale: str

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class LocalityResult:
    """Everything the analyzer derived for one program."""

    entry: str
    array_rank: int | None  # 2 (matrices), 1 (vectors), None (abstained)
    candidates: list[MapCandidate]  # in LAYOUTS order, unranked
    report: Report
    abstained: int = 0  # references excluded as non-affine

    @property
    def dists(self) -> tuple[str, ...]:
        return tuple(c.dist for c in self.candidates)


# ---------------------------------------------------------------------------
# Edge construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Edge:
    write: Reference
    read: Reference
    loops: tuple  # the read statement's nest
    flow: bool  # read of the array being written (wavefront)


def _loop_key(loops) -> tuple:
    return tuple((l.var, l.line) for l in loops)


def _common_prefix(a: tuple, b: tuple) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _build_edges(
    stmts: list[StatementAccess], distributed: set[str]
) -> tuple[list[_Edge], list[Reference]]:
    """Pair each distributed read with the write it feeds.

    Statements that write an array pair directly. Statements that write
    a scalar (``acc = acc + A[i,k]*B[k,j]``) anchor their reads to the
    array write sharing the longest loop prefix in the same procedure
    (``C[i,j] = acc``) — the value flows there, so that is the owner
    whose locality the reads should follow.
    """
    writes = [s for s in stmts if s.write and s.write.array in distributed]
    edges: list[_Edge] = []
    abstained: list[Reference] = []

    def note_abstained(ref: Reference) -> None:
        if ref.array in distributed and not ref.affine:
            abstained.append(ref)

    def add(write: Reference, stmt: StatementAccess) -> None:
        for read in stmt.reads:
            note_abstained(read)
            if read.array not in distributed:
                continue
            edges.append(
                _Edge(
                    write=write,
                    read=read,
                    loops=stmt.loops,
                    flow=read.array == write.array,
                )
            )

    for stmt in stmts:
        if stmt.write is not None:
            note_abstained(stmt.write)
        if stmt.write is not None and stmt.write.array in distributed:
            add(stmt.write, stmt)
        elif stmt.reads:
            key = _loop_key(stmt.loops)
            anchor = None
            best = 0
            for w in writes:
                if w.proc != stmt.proc:
                    continue
                shared = _common_prefix(key, _loop_key(w.loops))
                if shared > best:
                    best, anchor = shared, w
            if anchor is not None:
                add(anchor.write, stmt)
            else:
                for read in stmt.reads:
                    note_abstained(read)
    return edges, abstained


# ---------------------------------------------------------------------------
# Edge classification and imbalance
# ---------------------------------------------------------------------------


def _classify(edge: _Edge, dim: int) -> tuple[str, int]:
    """Return (class, offset) of the edge on array dimension ``dim``.

    Classes: ``aligned``, ``shift`` (constant offset), ``unaligned``
    (subscripts disagree in a loop variable), ``opaque`` (non-affine).
    """
    if dim >= len(edge.write.subs) or dim >= len(edge.read.subs):
        return "opaque", 0
    w, r = edge.write.subs[dim], edge.read.subs[dim]
    if w is None or r is None:
        return "opaque", 0
    diff = simplify(r - w)
    loop_vars = {l.var for l in edge.loops}
    if diff.free_vars() & loop_vars:
        return "unaligned", 0
    if isinstance(diff, Const):
        return ("aligned", 0) if diff.value == 0 else ("shift", diff.value)
    # Constant offset involving params only (e.g. N - 2): a distant
    # shift — remote under every layout, like unaligned.
    return "unaligned", 0


def _axis_var(write: Reference, dim: int, nest_vars: set[str]) -> str | None:
    """The single loop variable carrying this axis of the write, if any."""
    if dim >= len(write.subs) or write.subs[dim] is None:
        return None
    names = write.subs[dim].free_vars() & nest_vars
    return next(iter(names)) if len(names) == 1 else None


def _find_imbalance(stmts, distributed, dim) -> list[tuple]:
    """(stmt, carrier var, dependent var) per triangular nest."""
    found = []
    for stmt in stmts:
        w = stmt.write
        if w is None or w.array not in distributed:
            continue
        nest_vars = {l.var for l in stmt.loops}
        var = _axis_var(w, dim, nest_vars)
        if var is None:
            continue
        for loop in stmt.loops:
            bound_names: set[str] = set()
            for bound in (loop.lo, loop.hi):
                if bound is not None:
                    bound_names.update(bound.free_vars())
            if loop.var == var:
                # The carrier's own extent varies with another nest var.
                dep = bound_names & (nest_vars - {var})
            elif bound_names & {var}:
                # Another loop's extent varies with the carrier.
                dep = {loop.var}
            else:
                dep = set()
            if dep:
                found.append((stmt, var, sorted(dep)[0]))
                break
    return found


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _analyze_checked(checked, entry: str):
    report = Report()
    report.metadata.update({"entry": entry, "pass": "locality"})

    distributed = {
        name
        for name, spec in checked.maps.items()
        if isinstance(spec, ast.MapBy)
    }
    stmts = extract_references(checked, entry)

    # Array rank: every distributed array referenced must agree, because
    # source-text retargeting rewrites all ``map ... by`` declarations
    # to one distribution.
    ranks = {
        len(ref.subs)
        for stmt in stmts
        for ref in (stmt.reads + ((stmt.write,) if stmt.write else ()))
        if ref.array in distributed
    }
    if not ranks:
        report.add(
            "LOC003", Severity.WARNING, "locality",
            "no references to distributed arrays reachable from "
            f"{entry!r}; cannot derive a decomposition",
        )
        return LocalityResult(entry, None, [], report)
    if len(ranks) > 1:
        report.add(
            "LOC003", Severity.WARNING, "locality",
            "distributed arrays of mixed rank (matrix and vector); "
            "one retargeted distribution cannot serve both — abstaining",
        )
        return LocalityResult(entry, None, [], report)
    rank = ranks.pop()

    edges, abstained = _build_edges(stmts, distributed)
    for ref in _dedupe(abstained, key=lambda r: (r.array, r.line, r.reasons)):
        reason = next((r for r in ref.reasons if r), "not affine")
        report.add(
            "LOC003", Severity.WARNING, "locality",
            f"reference {ref.render()} at line {ref.line} is not "
            f"analyzable ({reason}); excluded from alignment",
            array=ref.array, line=ref.line, reason=reason,
        )

    table = LAYOUTS[rank]
    axes = sorted({axis for axis, _, _ in table}, key=lambda a: _AXIS_DIM[a])

    # Per axis: the residual pairs (LOC002), triangular nests (LOC004)
    # and abstentions (LOC003) in words, which become the rationale of
    # every layout of the axis.
    findings: dict[str, list[str]] = {}
    for axis in axes:
        dim = _AXIS_DIM[axis]
        residual: dict[str, None] = {}
        seen_pairs: set[tuple] = set()
        for edge in edges:
            cls, k = _classify(edge, dim)
            pair = (
                edge.write.array, edge.write.line,
                edge.read.array, edge.read.line, cls, k,
            )
            if cls == "aligned" or pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            desc, short = {
                "shift": (f"constant offset {k}", f"offset {k}"),
                "unaligned": ("subscripts unaligned", "unaligned"),
                "opaque": ("subscript not affine", "not affine"),
            }[cls]
            flavor = " (flow dependence: wavefront)" if edge.flow else ""
            report.add(
                "LOC002", Severity.INFO, "locality",
                f"residual communication on axis {axis}: read "
                f"{edge.read.render()} (line {edge.read.line}) vs write "
                f"{edge.write.render()} (line {edge.write.line}) — "
                f"{desc}{flavor}",
                axis=axis, kind=cls, offset=k,
                read=edge.read.render(), write=edge.write.render(),
            )
            residual[short + (" (wavefront)" if edge.flow else "")] = None
        findings[axis] = []
        if residual:
            findings[axis].append("residual " + ", ".join(residual))
    for axis in axes:
        for stmt, var, dep in _find_imbalance(
            stmts, distributed, _AXIS_DIM[axis]
        ):
            report.add(
                "LOC004", Severity.INFO, "locality",
                f"load imbalance on axis {axis}: bounds of the nest at "
                f"line {stmt.line} couple {var!r} and {dep!r} "
                "(triangular iteration space); cyclic layouts balance it",
                axis=axis, line=stmt.line, var=var,
            )
            findings[axis].append(f"triangular nest at line {stmt.line}")
        if abstained:
            findings[axis].append(f"{len(abstained)} reference(s) abstained")

    candidates: list[MapCandidate] = []
    for axis, layout, dist in table:
        rationale = (
            f"axis {axis}: " + "; ".join(findings[axis])
            if findings[axis]
            else f"axis {axis}: communication-free alignment"
        )
        candidates.append(MapCandidate(dist, axis, layout, rationale))
        report.add(
            "LOC001", Severity.INFO, "locality",
            f"candidate map: {dist} — {rationale}",
            dist=dist, axis=axis, layout=layout,
        )

    return LocalityResult(
        entry=entry,
        array_rank=rank,
        candidates=candidates,
        report=report,
        abstained=len(abstained),
    )


def _dedupe(items, key):
    seen = set()
    out = []
    for item in items:
        k = key(item)
        if k not in seen:
            seen.add(k)
            out.append(item)
    return out


# Analysis is deterministic in (source, entry) and N-independent, so
# results are memoized like compilations — warm calls (the tuner
# re-deriving maps per proc count, bench sweeps) are dict hits, and
# fresh processes load from the shared artifact store. The schema tag
# keys out persisted results of older analyzers.
_LOCALITY_SCHEMA = 4  # 4: unscored candidates, every layout of the rank


_locality_cache: dict = perf.register_cache(
    "locality", {}, persistent=True,
    key_fn=perf.stable_key(f"locality|s{_LOCALITY_SCHEMA}"),
)


def analyze(program, entry: str | None = None) -> LocalityResult:
    """Derive the decomposition-map candidates for ``program``.

    ``program`` may be mini-Id source text, a
    :class:`~repro.lang.typecheck.CheckedProgram`, or a
    :class:`~repro.core.common.CompiledProgram` (whose ``checked`` AST
    and ``entry`` are reused). Purely static; never simulates.
    """
    from repro.core.compiler import default_entry

    checked = getattr(program, "checked", program)
    if entry is None:
        entry = getattr(program, "entry", None)

    def build() -> LocalityResult:
        tree = checked
        if isinstance(tree, str):
            from repro.core.polymorphism import monomorphize
            from repro.lang import check_program, parse_program

            tree = check_program(monomorphize(parse_program(tree)))
        return _analyze_checked(
            tree, default_entry(tree) if entry is None else entry
        )

    if isinstance(checked, str):  # source text: the one hashable form
        return perf.memo("locality", (checked, entry), build)
    return build()


@register_pass("locality", default=False)
def locality_pass(ctx, report) -> None:
    """Opt-in verifier pass: LOC00x findings alongside the safety ones.

    Runs only when requested (``verify_compiled(...,
    extra_passes=("locality",))``) — the default ``bench verify`` path
    must stay silent on clean programs, and candidate maps are advice,
    not verdicts. Needs the AST: silently skips bare ``NodeProgram``
    verifications.
    """
    compiled = getattr(ctx, "compiled", None)
    if getattr(compiled, "checked", None) is None:
        return
    result = analyze(compiled)
    report.extend(result.report.diagnostics)
