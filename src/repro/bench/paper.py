"""The paper's evaluation as one table of claims.

Each :class:`Claim` in :data:`CLAIMS` is one experiment id of
EXPERIMENTS.md: the paper section, the sentence it checks, a
measurement built from :func:`~repro.bench.harness.measure` and
:func:`~repro.core.runner.execute`, and named checks over what the
measurement returned. ``python -m repro.bench reproduce`` runs every
claim; ``tests/bench/test_paper.py`` runs each at a smaller grid.

A measurement returns only simulated quantities — times, message
counts, listings, value comparisons, never host wall-clock — so a
report is byte-stable from run to run and equal on the compiled and
interp backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import ge, gt
from typing import Callable, Mapping

from repro.apps import gauss_seidel as gs
from repro.apps import simple, triangular
from repro.bench.harness import measure
from repro.bench.report import format_series
from repro.core.compiler import OptLevel, Strategy, compile_program
from repro.core.dynamic import block_placement, imbalance, rebalance
from repro.core.runner import MeasurePoint, execute
from repro.core.specialize import specialize_for_rank
from repro.core.transforms.interchange import interchange
from repro.lang import check_program, parse_program
from repro.machine import MachineParams
from repro.spmd import pretty_program
from repro.spmd.layout import make_full

PAPER_N = 128
PAPER_PROCS = (2, 4, 8, 16, 32)
BLKSIZE = 8
MACHINE = MachineParams.ipsc2()


@dataclass
class Setup:
    """What a run varies: the F6/F7 grid and ring sizes, and the
    backend. Every other claim runs at its own fixed size."""

    n: int = PAPER_N
    procs: tuple[int, ...] = PAPER_PROCS
    backend: str = "compiled"
    _points: dict = field(default_factory=dict, repr=False)

    def point(self, strategy, n, nprocs, blksize=BLKSIZE, machine=None):
        """One wavefront measurement's simulated fields, taken once a
        run (F6, F7 and T-MSG share points)."""
        key = (strategy, n, nprocs, blksize, machine)
        if key not in self._points:
            self._points[key] = measure(
                strategy, n, nprocs, blksize=blksize,
                machine=machine or MACHINE, backend=self.backend,
            ).simulated()
        return self._points[key]

    def execute(self, compiled, nprocs, **kwargs):
        # Replay computes no values: the claims that check them run compiled.
        backend = "compiled" if self.backend == "replay" else self.backend
        return execute(compiled, nprocs, machine=MACHINE, backend=backend,
                       **kwargs)


@dataclass(frozen=True)
class Claim:
    """One experiment: the paper's section and sentence, a measurement
    and named checks over it (each a predicate on what ``measure``
    returned); ``table`` renders a measurement as text."""

    id: str
    section: str
    quote: str
    measure: Callable[[Setup], dict]
    checks: Mapping[str, Callable[[dict], bool]]
    table: Callable[[dict], str] | None = None

    def check(self, data: dict) -> dict[str, bool]:
        """Every named check's verdict on one measurement."""
        return {name: bool(holds(data)) for name, holds in self.checks.items()}


def _figure(strategies):
    def run(setup):
        return {"n": setup.n, "series": {
            s: [setup.point(s, setup.n, p) for p in setup.procs]
            for s in strategies
        }}
    return run


def _table(title):
    def table(d):
        series = {s: [MeasurePoint(**p) for p in ps]
                  for s, ps in d["series"].items()}
        return "\n\n".join([
            format_series(series, "time_ms", f"{title} (N={d['n']}, ms)"),
            format_series(series, "messages", "messages"),
        ])
    return table


def _times(d):
    return {s: [p["time_us"] for p in ps] for s, ps in d["series"].items()}


def _fig4(setup):
    def listing(program):
        lines = (ln.split("/*")[0].strip() for ln in
                 pretty_program(program).splitlines())
        return "\n".join(ln for ln in lines if ln)

    rtr = compile_program(simple.SOURCE, strategy=Strategy.RUNTIME)
    ctr = compile_program(simple.SOURCE, strategy=Strategy.COMPILE_TIME)
    runs = {}
    for name, compiled in (("runtime", rtr), ("compile_time", ctr)):
        out = setup.execute(compiled, 4)
        runs[name] = {"value": out.value, "messages": out.total_messages,
                      "p0_busy_us": out.sim.busy_times_us[0]}
    return {"runs": runs, "listing_4b": listing(rtr.program), "listing_4d": {
        f"p{r}": listing(specialize_for_rank(ctr.program, r, 4))
        for r in (1, 2, 3)
    }}


def _fig4_4d(d):
    p = d["listing_4d"]
    return ("a = 5;" in p["p1"] and "csend(a, 3)" in p["p1"]
            and "b = 7;" in p["p2"] and "csend(b, 3)" in p["p2"]
            and "crecv(&tmp1, 1)" in p["p3"] and "crecv(&tmp2, 2)" in p["p3"])


FIG4_CHECKS = {
    "both strategies compute 12 with 2 coerces + a 3-message broadcast":
        lambda d: all(r["value"] == simple.EXPECTED_VALUE
                      and r["messages"] == simple.EXPECTED_COERCE_MESSAGES + 3
                      for r in d["runs"].values()),
    "run-time code has Figure 4b's coerce(a, 1, 3), coerce(b, 2, 3)":
        lambda d: "coerce(a, 1, 3)" in d["listing_4b"]
        and "coerce(b, 2, 3)" in d["listing_4b"],
    "per-rank compile-time code is Figure 4d's": _fig4_4d,
    "compile-time costs bystander P0 no more than run-time":
        lambda d: d["runs"]["compile_time"]["p0_busy_us"]
        <= d["runs"]["runtime"]["p0_busy_us"],
}


def _fig6_flat(d):
    flat = [[p["time_us"] for p in d["series"][s] if p["nprocs"] >= 4]
            for s in ("runtime", "compile", "optI")]
    return all(len(ts) < 2 or max(ts) < 1.25 * min(ts) for ts in flat)


FIG6_CHECKS = {
    "runtime >= compile at every S":
        lambda d: all(map(ge, _times(d)["runtime"], _times(d)["compile"])),
    "compile >= 0.999 optI at every S": lambda d: all(
        c >= o * 0.999 for c, o in zip(_times(d)["compile"], _times(d)["optI"])
    ),
    "optI > handwritten at every S":
        lambda d: all(map(gt, _times(d)["optI"], _times(d)["handwritten"])),
    "runtime, compile, optI flat for S >= 4 (max < 1.25 min)": _fig6_flat,
    "runtime, compile send 2(N-2)^2 messages at every S":
        lambda d: all(p["messages"] == 2 * (d["n"] - 2) ** 2
                      for s in ("runtime", "compile") for p in d["series"][s]),
}


def _messages(d, strategy):
    return [p["messages"] for p in d["series"][strategy]]


FIG7_CHECKS = {
    "optII < optI for S >= 4, < 1.15 optI below": lambda d: all(
        o2["time_us"] < (1.0 if o2["nprocs"] >= 4 else 1.15) * o1["time_us"]
        for o1, o2 in zip(d["series"]["optI"], d["series"]["optII"])
    ),
    "optIII < optII at every S":
        lambda d: all(map(gt, _times(d)["optII"], _times(d)["optIII"])),
    "optII at the largest S < half its time at the smallest":
        lambda d: _times(d)["optII"][-1] < 0.5 * _times(d)["optII"][0],
    "optIII sends handwritten's message count at every S":
        lambda d: _messages(d, "optIII") == _messages(d, "handwritten"),
    "optIII < 2 x handwritten's time at every S": lambda d: all(
        o3 < 2.0 * h
        for o3, h in zip(_times(d)["optIII"], _times(d)["handwritten"])
    ),
}


def _msgcount(setup):
    return {"handwritten_formula": gs.handwritten_message_count(
        PAPER_N, BLKSIZE, 4
    )} | {s: setup.point(s, PAPER_N, nprocs)["messages"] for s, nprocs in (
        ("runtime", 2), ("compile", 2), ("optIII", 4), ("handwritten", 4)
    )}


MSGCOUNT_CHECKS = {
    "runtime sends 31752 = 2(N-2)^2 at N=128, S=2":
        lambda d: d["runtime"] == 31752 == 2 * (PAPER_N - 2) ** 2,
    "compile sends as many, 31752, at S=2": lambda d: d["compile"] == 31752,
    "handwritten sends 2142, its closed form, at S=4":
        lambda d: d["handwritten"] == 2142 == d["handwritten_formula"],
    "optIII sends 2142 at S=4": lambda d: d["optIII"] == 2142,
}


BLK_SIZES = (1, 2, 4, 8, 16, 64)


def _blocksize(setup):
    return {n: {b: setup.point("optIII", n, 4, b) for b in BLK_SIZES}
            for n in (24, 48)}


def _blk_times(d, n):
    return {b: p["time_us"] for b, p in d[n].items()}


def _best_blk(d, n):
    return min(BLK_SIZES, key=_blk_times(d, n).get)


def _u_shaped(n):
    def holds(d):
        t = _blk_times(d, n)
        return min(t[1], t[64]) > t[_best_blk(d, n)]
    return holds


def _falling_counts(d):
    counts = [d[24][b]["messages"] for b in BLK_SIZES]
    return counts == sorted(counts, reverse=True)


BLOCKSIZE_CHECKS = {
    "U-shaped in blksize at N=24, S=4": _u_shaped(24),
    "U-shaped in blksize at N=48, S=4": _u_shaped(48),
    "best blksize at N=48 >= best at N=24":
        lambda d: _best_blk(d, 48) >= _best_blk(d, 24),
    "messages fall as blksize grows at N=24": _falling_counts,
}


def _interchange(setup):
    n = 32
    expected = gs.reference_rows(n, [[1] * n for _ in range(n)])
    rows = {}
    for label, source, swap in (
        ("normal order", gs.SOURCE, False),
        ("reversed loops", gs.SOURCE_REVERSED_LOOPS, False),
        ("reversed + interchange", gs.SOURCE_REVERSED_LOOPS, True),
    ):
        program = parse_program(source)
        if swap:
            program = interchange(program, "gs_iteration")
        out = setup.execute(compile_program(
            check_program(program), strategy=Strategy.COMPILE_TIME,
            opt_level=OptLevel.STRIPMINE, entry_shapes={"Old": ("N", "N")},
            assume_nprocs_min=2,
        ), 8, inputs={"Old": make_full((n, n), 1)}, params={"N": n},
            extra_globals={"blksize": 8})
        rows[label] = {"time_us": out.makespan_us,
                       "messages": out.total_messages,
                       "grid_ok": out.value.to_nested() == expected}
    return rows


INTERCHANGE_CHECKS = {
    "every variant computes the oracle's grid":
        lambda d: all(r["grid_ok"] for r in d.values()),
    "reversed loops take > 3x the time": lambda d:
        d["reversed loops"]["time_us"] > 3.0 * d["normal order"]["time_us"],
    "reversed loops send > 3x the messages": lambda d:
        d["reversed loops"]["messages"] > 3 * d["normal order"]["messages"],
    "interchange recovers the normal order's time and messages":
        lambda d: d["reversed + interchange"] == d["normal order"],
}


MONO = """
map b on proc(2); map c on proc(3); map r1 on proc(2); map r2 on proc(3);
map a on proc(1); map total on proc(0);
procedure f(a: int) returns int { return a; }
procedure main() returns int {
    let b = 20; let c = 30; let r1 = f(b); let r2 = f(c);
    let total = r1 + r2; return total;
}
"""

POLY = (
    MONO.replace("map a on proc(1);", "map a on proc(P);")
    .replace("procedure f(a: int)", "procedure f[P](a: int)")
    .replace("f(b)", "f[2](b)")
    .replace("f(c)", "f[3](c)")
)


def _polymorphism(setup):
    rows = {}
    for label, source in (("monomorphic", MONO), ("polymorphic", POLY)):
        out = setup.execute(compile_program(
            source, strategy=Strategy.COMPILE_TIME, entry="main"
        ), 4)
        rows[label] = {"value": out.value, "messages": out.total_messages,
                       "time_us": out.makespan_us}
    # Results still go back by broadcast: ROADMAP item 19's known gap.
    return rows | {"paper_messages_eliminated": 4}


POLYMORPHISM_CHECKS = {
    "both versions return 50":
        lambda d: d["monomorphic"]["value"] == d["polymorphic"]["value"] == 50,
    "polymorphic sends 2 fewer messages (the paper: 4)": lambda d:
        d["polymorphic"]["messages"] == d["monomorphic"]["messages"] - 2,
    "polymorphic finishes sooner":
        lambda d: d["polymorphic"]["time_us"] < d["monomorphic"]["time_us"],
}


def _loadbalance(setup):
    compiled = compile_program(triangular.SOURCE, strategy=Strategy.COMPILE_TIME)
    blocked = block_placement(16, 4).placement
    first = setup.execute(compiled, 16, params={"N": 48}, placement=blocked)
    plan = rebalance(first.sim.busy_times_us, 4, current=blocked)
    second = setup.execute(compiled, 16, params={"N": 48},
                           placement=plan.placement)
    return {
        label: {"time_us": out.makespan_us,
                "imbalance": imbalance(out.sim.cpu_busy_us)}
        for label, out in (("blocked", first), ("rebalanced", second))
    } | {
        "moved": len(plan.moved),
        "same_results": [a.to_list() for a in first.spmd.returned]
        == [b.to_list() for b in second.spmd.returned],
    }


LOADBALANCE_CHECKS = {
    "rebalancing shortens the makespan":
        lambda d: d["rebalanced"]["time_us"] < d["blocked"]["time_us"],
    "rebalancing lowers the load imbalance":
        lambda d: d["rebalanced"]["imbalance"] < d["blocked"]["imbalance"],
    "results are identical after rebalancing": lambda d: d["same_results"],
}


def _sensitivity(setup):
    return {alpha: {
        s: setup.point(
            s, 32, 4, 4, MACHINE.with_(send_startup_us=alpha)
        )["time_us"]
        for s in ("runtime", "compile", "optI", "optII", "optIII")
    } for alpha in (50.0, 150.0, 350.0, 1000.0, 3000.0)}


def _optIII_best(alpha):
    return lambda d: d[alpha]["optIII"] == min(d[alpha].values())


SENSITIVITY_CHECKS = {
    "runtime >= 0.999 compile at every alpha": lambda d: all(
        t["runtime"] >= t["compile"] * 0.999 for t in d.values()
    ),
    "optI > optII at every alpha":
        lambda d: all(t["optI"] > t["optII"] for t in d.values()),
    "optII > optIII at every alpha":
        lambda d: all(t["optII"] > t["optIII"] for t in d.values()),
    "optIII best at alpha=150": _optIII_best(150.0),
    "optIII best at alpha=1000": _optIII_best(1000.0),
}


CLAIMS = (
    Claim("F4", "§3, Figure 4",
          "run-time resolution coerces a and b to P3; compile-time resolution "
          "gives P1 a = 5; csend(a, 3) ... P3 crecv(&tmp1, 1)",
          _fig4, FIG4_CHECKS),
    Claim("F6", "§4, Figure 6",
          "the run-time resolution code performs rather poorly ... the "
          "compile-time implementation is more encouraging but still bad",
          _figure(["runtime", "compile", "optI", "handwritten"]),
          FIG6_CHECKS, _table("Figure 6")),
    Claim("F7", "§4, Figure 7",
          "the most impressive gains are demonstrated by ... pipelining of "
          "computation and communication",
          _figure(["optI", "optII", "optIII", "handwritten"]),
          FIG7_CHECKS, _table("Figure 7")),
    Claim("T-MSG", "§4, footnote 3",
          "31,752 messages for the run-time resolution code versus 2142 "
          "messages for the handwritten code",
          _msgcount, MSGCOUNT_CHECKS),
    Claim("X-BLK", "§4",
          "the best block size depends on the size of the matrix",
          _blocksize, BLOCKSIZE_CHECKS),
    Claim("X-INT", "§4",
          "if the sequential version of Gauss-Seidel had had the i and "
          "j-loops reversed ... loop interchange would be required",
          _interchange, INTERCHANGE_CHECKS),
    Claim("X-POLY", "§5.1, Figures 8 and 9",
          "not only can f(b) and f(c) be done in parallel but also four "
          "messages have been eliminated",
          _polymorphism, POLYMORPHISM_CHECKS),
    Claim("X-LB", "§5.4",
          "processes may be shuffled from overloaded to underloaded nodes "
          "without slowing their execution if the data ... is moved along",
          _loadbalance, LOADBALANCE_CHECKS),
    Claim("Sensitivity", "§4",
          "messages on the Intel iPSC/2 are very expensive",
          _sensitivity, SENSITIVITY_CHECKS),
)


def reproduce(setup: Setup) -> tuple[str, dict]:
    """Run every claim: the text report and the JSON payload."""
    results = []
    for claim in CLAIMS:
        data = claim.measure(setup)
        results.append((claim, data, claim.check(data)))
    lines = [claim.table(data) + "\n" for claim, data, _ in results
             if claim.table]
    lines += [
        f"{'ok' if ok else 'FAIL':<4}  {claim.id:<11}  {name}"
        for claim, _, checks in results for name, ok in checks.items()
    ]
    return "\n".join(lines), {
        "n": setup.n,
        "procs": list(setup.procs),
        "claims": {claim.id: {
            "section": claim.section, "claim": claim.quote,
            "data": data, "checks": checks,
        } for claim, data, checks in results},
        "ok": all(all(checks.values()) for _, _, checks in results),
    }
