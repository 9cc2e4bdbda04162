"""Static locality analyzer: auto-derived decomposition maps.

The paper's thesis is that process decomposition should follow *locality
of reference*, yet its compiler takes the ``map`` declaration as input.
This pass closes the loop: it extracts per-reference affine access
functions (:mod:`repro.analysis.access`), builds a reference-alignment
graph between each statement's write and the reads feeding it, scores
every ``(axis, layout)`` decomposition against the residual
communication the graph predicts, and emits a ranked candidate list of
``map`` distributions that :func:`repro.tune.search.tune` can sweep
(``auto_maps=True``) via the existing source-text retargeting.

The analysis is purely static — no simulation, not even the cost-model
walk — and N-independent: edges are scored at a *nominal* problem size
(``N = 64`` per ``param``, ``S = 4`` ranks), because only the relative
order of candidates matters; the tuner's exact predictor re-ranks the
survivors at the real N.

Alignment-edge classes per axis, cheapest first:

``aligned``
    read and write subscripts differ by 0 on this axis — no
    communication under any 1-D layout of the axis.
``shift(k)``
    constant offset ``k``: wrapped layouts pay the full volume (every
    column's neighbour is remote), block pays only block-boundary
    surface (``|k|·S/N`` of the volume), block-cyclic ``|k|/b``.
``shift(k)`` with a flow dependence (read of the array being written)
    a wavefront: fine-grained cyclic layouts pipeline it (cheap), block
    layouts serialize the whole axis (expensive).
``unaligned`` / ``opaque``
    subscripts disagree in a loop variable (or are not affine at all):
    all-to-all on this axis, every layout pays the volume.

A triangular nest (a loop bound depending on the distributed axis's
variable) additionally penalizes block layouts — the paper's §5.4
load-balancing lesson.

Diagnostics (codes are stable API, see
:mod:`repro.analysis.diagnostics`):

========== ======== ====================================================
``LOC001`` info     one ranked candidate decomposition map
``LOC002`` info     the reference pair forcing a residual communication
``LOC003`` warning  a reference abstained from analysis (not affine)
``LOC004`` info     load imbalance detected on an axis
========== ======== ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import perf
from repro.analysis.access import (
    Reference,
    StatementAccess,
    extract_references,
)
from repro.analysis.diagnostics import Report, Severity, register_pass
from repro.errors import SolverError
from repro.lang import ast
from repro.symbolic import Const, simplify

# Nominal sizes the scorer evaluates at. Only candidate *order* matters;
# the tuner's exact cost model re-ranks at the real N.
N_NOM = 64
S_NOM = 4
FALLBACK_TRIPS = 16  # trips assumed for a loop with a non-affine bound

# Edge weights (fractions of the edge's iteration volume). Rationale:
# a wrapped layout makes every shift(k) remote (cost 1); a block layout
# only communicates across the |k| boundary columns of each of the S
# blocks; block-cyclic(b) across |k| of every b columns. Flow-dependent
# shifts form wavefronts: wrapped pipelines at grain 1 (cheap), block
# serializes the axis (the Gauss-Seidel-on-blocks disaster), cyclic at
# grain b sits in between. Triangular nests under-load block layouts.
SHIFT_WRAPPED = 1.0
FLOW_WRAPPED = 0.5
FLOW_BLOCK = 4.0
FLOW_BLOCK_CYCLIC = 1.5
IMBALANCE_BLOCK = 0.75
IMBALANCE_BLOCK_CYCLIC = 0.15

_CYCLIC_BLK = 4  # the block size derived block-cyclic candidates use

# (axis, layout) -> distribution name, in tie-break order (matches
# repro.tune.space.DEFAULT_DISTS so equal-score candidates rank the way
# the default sweep enumerates them).
_MATRIX_DISTS = (
    ("cols", "wrapped", "wrapped_cols"),
    ("rows", "wrapped", "wrapped_rows"),
    ("cols", "block", "block_cols"),
    ("rows", "block", "block_rows"),
    ("cols", "block_cyclic", f"block_cyclic_cols({_CYCLIC_BLK})"),
    ("rows", "block_cyclic", f"block_cyclic_rows({_CYCLIC_BLK})"),
)
_VECTOR_DISTS = (
    ("elems", "wrapped", "wrapped"),
    ("elems", "block", "block"),
)
_AXIS_DIM = {"rows": 0, "cols": 1, "elems": 0}


@dataclass(frozen=True)
class MapCandidate:
    """One derived decomposition, ranked (1 = best)."""

    dist: str
    axis: str
    layout: str
    score: float
    rank: int
    rationale: str

    def to_json(self) -> dict:
        return {
            "dist": self.dist,
            "axis": self.axis,
            "layout": self.layout,
            "score": round(self.score, 3),
            "rank": self.rank,
            "rationale": self.rationale,
        }


@dataclass
class LocalityResult:
    """Everything the analyzer derived for one program."""

    entry: str
    array_rank: int | None  # 2 (matrices), 1 (vectors), None (abstained)
    candidates: list[MapCandidate]
    report: Report
    edges: list[dict] = field(default_factory=list)  # jsonable forensics
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
    loops: tuple  # the read statement's nest (volume source)
    volume: float
    flow: bool  # read of the array being written (wavefront)


def _nominal_volume(loops, params) -> float:
    env = {p: N_NOM for p in params}
    total = 1.0
    for loop in loops:
        lo = hi = None
        try:
            lo = loop.lo.evaluate(env) if loop.lo is not None else None
            hi = loop.hi.evaluate(env) if loop.hi is not None else None
        except SolverError:
            lo = hi = None
        if lo is None or hi is None:
            trips = FALLBACK_TRIPS
            env[loop.var] = N_NOM // 2
        else:
            trips = max(1, (hi - lo) // loop.step + 1)
            env[loop.var] = (lo + hi) // 2
        total *= trips
    return total


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
    stmts: list[StatementAccess], distributed: set[str], params
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
        vol = _nominal_volume(stmt.loops, params)
        for read in stmt.reads:
            note_abstained(read)
            if read.array not in distributed:
                continue
            edges.append(
                _Edge(
                    write=write,
                    read=read,
                    loops=stmt.loops,
                    volume=vol,
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
# Edge classification and scoring
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


def _shift_cost(layout: str, k: int, volume: float, flow: bool) -> float:
    if flow:
        factor = {
            "wrapped": FLOW_WRAPPED,
            "block": FLOW_BLOCK,
            "block_cyclic": FLOW_BLOCK_CYCLIC,
        }[layout]
        return factor * volume
    if layout == "wrapped":
        return SHIFT_WRAPPED * volume
    if layout == "block":
        return min(1.0, abs(k) * S_NOM / N_NOM) * volume
    return min(1.0, abs(k) / _CYCLIC_BLK) * volume


def _imbalance_penalty(layout: str, volume: float) -> float:
    if layout == "block":
        return IMBALANCE_BLOCK * volume
    if layout == "block_cyclic":
        return IMBALANCE_BLOCK_CYCLIC * volume
    return 0.0


def _axis_var(write: Reference, dim: int, nest_vars: set[str]) -> str | None:
    """The single loop variable carrying this axis of the write, if any."""
    if dim >= len(write.subs) or write.subs[dim] is None:
        return None
    names = write.subs[dim].free_vars() & nest_vars
    return next(iter(names)) if len(names) == 1 else None


def _find_imbalance(stmts, distributed, params, dim) -> list[tuple]:
    """(stmt, carrier var, dependent var, volume) per triangular nest."""
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
                found.append(
                    (stmt, var, sorted(dep)[0],
                     _nominal_volume(stmt.loops, params))
                )
                break
    return found


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _analyze_checked(checked, entry: str, max_candidates: int):
    report = Report()
    report.metadata.update({"entry": entry, "pass": "locality"})
    params = list(checked.params)

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

    edges, abstained = _build_edges(stmts, distributed, params)
    for ref in _dedupe(abstained, key=lambda r: (r.array, r.line, r.reasons)):
        reason = next((r for r in ref.reasons if r), "not affine")
        report.add(
            "LOC003", Severity.WARNING, "locality",
            f"reference {ref.render()} at line {ref.line} is not "
            f"analyzable ({reason}); excluded from alignment",
            array=ref.array, line=ref.line, reason=reason,
        )

    table = _MATRIX_DISTS if rank == 2 else _VECTOR_DISTS
    axes = sorted({axis for axis, _, _ in table}, key=lambda a: _AXIS_DIM[a])

    # Classify every edge once per axis; score layouts from the classes.
    classified: dict[str, list[tuple[_Edge, str, int]]] = {}
    for axis in axes:
        dim = _AXIS_DIM[axis]
        classified[axis] = [
            (edge, *_classify(edge, dim)) for edge in edges
        ]
    imbalance = {
        axis: _find_imbalance(stmts, distributed, params, _AXIS_DIM[axis])
        for axis in axes
    }

    edge_info: list[dict] = []
    seen_pairs: set[tuple] = set()
    for axis in axes:
        for edge, cls, k in classified[axis]:
            if cls == "aligned":
                continue
            pair = (
                edge.write.array, edge.write.line,
                edge.read.array, edge.read.line, axis, cls, k,
            )
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            desc = {
                "shift": f"constant offset {k}",
                "unaligned": "subscripts unaligned",
                "opaque": "subscript not affine",
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
            edge_info.append(
                {
                    "axis": axis,
                    "kind": cls,
                    "offset": k,
                    "flow": edge.flow,
                    "volume": edge.volume,
                    "write": edge.write.render(),
                    "read": edge.read.render(),
                    "write_line": edge.write.line,
                    "read_line": edge.read.line,
                }
            )
    for axis in axes:
        for stmt, var, dep, vol in imbalance[axis]:
            report.add(
                "LOC004", Severity.INFO, "locality",
                f"load imbalance on axis {axis}: bounds of the nest at "
                f"line {stmt.line} couple {var!r} and {dep!r} "
                "(triangular iteration space); cyclic layouts balance it",
                axis=axis, line=stmt.line, var=var,
            )

    scored: list[tuple[float, int, str, str, str]] = []
    for order, (axis, layout, dist) in enumerate(table):
        score = 0.0
        for edge, cls, k in classified[axis]:
            if cls == "aligned":
                continue
            if cls == "shift":
                score += _shift_cost(layout, k, edge.volume, edge.flow)
            else:  # unaligned / opaque: all-to-all whatever the layout
                score += edge.volume
        for _, _, _, vol in imbalance[axis]:
            score += _imbalance_penalty(layout, vol)
        scored.append((score, order, axis, layout, dist))
    scored.sort(key=lambda t: (t[0], t[1]))

    candidates: list[MapCandidate] = []
    for position, (score, _, axis, layout, dist) in enumerate(
        scored[:max_candidates], start=1
    ):
        if score == 0.0:
            rationale = "communication-free alignment"
        else:
            rationale = (
                f"residual cost {score:.0f} at nominal "
                f"N={N_NOM}, S={S_NOM}"
            )
        cand = MapCandidate(
            dist=dist, axis=axis, layout=layout,
            score=score, rank=position, rationale=rationale,
        )
        candidates.append(cand)
        report.add(
            "LOC001", Severity.INFO, "locality",
            f"candidate map #{position}: {dist} — {rationale}",
            dist=dist, axis=axis, layout=layout,
            score=round(score, 3), position=position,
        )

    return LocalityResult(
        entry=entry,
        array_rank=rank,
        candidates=candidates,
        report=report,
        edges=edge_info,
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


# Analysis is deterministic in (source, entry, max_candidates) and
# N-independent, so results are memoized like compilations — warm calls
# (the tuner re-deriving maps per proc count, bench sweeps) are dict
# hits, and fresh processes load from the shared artifact store. The
# schema tag keys out persisted results from older scoring algorithms.
_LOCALITY_SCHEMA = 3  # 3: access functions are symbolic Exprs


_locality_cache: dict = perf.register_cache(
    "locality", {}, persistent=True,
    key_fn=perf.stable_key(f"locality|s{_LOCALITY_SCHEMA}"),
)


def analyze(
    program, entry: str | None = None, max_candidates: int = 4
) -> LocalityResult:
    """Derive ranked decomposition-map candidates for ``program``.

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
            tree, default_entry(tree) if entry is None else entry,
            max_candidates,
        )

    if isinstance(checked, str):  # source text: the one hashable form
        return perf.memo("locality", (checked, entry, max_candidates), build)
    return build()


def derive_maps(
    program, entry: str | None = None, max_candidates: int = 4
) -> list[MapCandidate]:
    """Just the ranked candidates of :func:`analyze`."""
    return analyze(program, entry, max_candidates).candidates


def locality_report(
    program, entry: str | None = None, max_candidates: int = 4
) -> Report:
    """Just the LOC00x diagnostics of :func:`analyze`."""
    return analyze(program, entry, max_candidates).report


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
