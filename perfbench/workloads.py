"""The five workloads: seeded inputs, job lists, checks.

A *job* is one source-text -> result operation through public entry
points; a *round* is the workload's fixed, seed-ordered job list run
once after its cache state has been re-established (re-establishing is
outside the job timers). Every job's output is checked outside its
timer: values against the sequential interpreter's result computed in
set-up, simulated statistics against ``golden.json``.

The seed changes what the library is given — index arrays of the
irregular apps, array contents, job order, constants in the service
programs — but not how much work a round is, so the exact-repeat
metrics stay comparable across seeds.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import itertools
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import perf
from repro.apps import (
    gauss_seidel, histogram, jacobi, matmul, mesh, spmv, triangular,
)
from repro.core.compiler import compile_program_cached
from repro.core.runner import execute
from repro.lang import check_program, parse_program, run_sequential
from repro.machine import MachineParams
from repro.runtime import IStructure
from repro.spmd.layout import make_full
from repro.store import ArtifactStore
from repro.tune import tune
from repro.tune.space import DEFAULT_DISTS, STRATEGIES

from perfbench import DEFAULT_SEED

MACHINE = MachineParams.ipsc2()
BLKSIZE = 4
clock = time.perf_counter

#: Affine apps: source, entry procedure, entry array parameters.
AFFINE = {
    "gauss_seidel": (gauss_seidel.SOURCE, "gs_iteration", ("Old",)),
    "jacobi": (jacobi.SOURCE_WRAPPED, "jacobi_step", ("Old",)),
    "triangular": (triangular.SOURCE, "fill", ()),
    "matmul": (matmul.SOURCE, "matmul", ("A", "B")),
}

#: jacobi under loop jamming deadlocks by design (verifier code DL001),
#: so the value and replay lists leave those strategies out and
#: ``tune_rank`` expects exactly them to be pruned.
DEADLOCKS = {("jacobi", "optII"), ("jacobi", "optIII")}


#: Per-layer metrics only the HTTP workload can fill.
SERVICE_METRICS = (
    "service.transport_ms_p50", "service.hit_ms_p50",
    "service.miss_ready_ms_p50", "service.polls_per_miss",
    "service.http_429",
)


@dataclass
class JobResult:
    key: str
    wall_s: float
    failure: str | None = None
    makespan_us: float = 0.0
    messages: int = 0
    observed: dict = field(default_factory=dict)  # what golden.json pins
    counts: dict = field(default_factory=dict)  # ledger counters


def digest(value) -> str:
    """sha256 of a gathered result's cells (None = undefined)."""
    cells = value.to_list(None) if value is not None else None
    return hashlib.sha256(repr(cells).encode()).hexdigest()


def seeded_matrix(rng: random.Random, n: int, name: str) -> IStructure:
    arr = IStructure((n, n), name=name)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            arr.write(i, j, rng.randrange(1, 4))
    return arr


def shapes_for(arrays) -> dict | None:
    return {name: ("N", "N") for name in arrays} or None


def error_code(error: str) -> str:
    """``verify: DL001`` for verifier prunings, else the error class."""
    words = error.split()
    if words[:1] == ["verify:"]:
        return " ".join(words[:2])
    return words[0].rstrip(":") if words else ""


def compare(observed: dict, pinned: dict | None) -> str | None:
    if pinned is None:
        return "no golden entry"
    for name, want in pinned.items():
        if observed.get(name) != want:
            return f"{name} {observed.get(name)!r} != golden {want!r}"
    return None


# ---------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------


@dataclass
class ExecuteJob:
    """compile_program_cached -> execute on one backend."""

    key: str
    app: str
    source: str
    entry: str
    strategy: str
    shapes: dict | None
    nprocs: int
    inputs: dict
    params: dict
    backend: str
    oracle: str | None = None  # digest of the sequential result
    specialize: bool = False
    extra: dict | None = field(default_factory=lambda: {"blksize": BLKSIZE})
    requests: int | None = None  # expected inspector request messages
    pinned: bool = True  # False: seed differs from golden.json's

    def run(self, backend=None):
        strategy, opt_level = STRATEGIES[self.strategy]
        compiled = compile_program_cached(
            self.source, entry=self.entry, strategy=strategy,
            opt_level=opt_level, entry_shapes=self.shapes,
            assume_nprocs_min=2,
        )
        return execute(
            compiled, self.nprocs, inputs=self.inputs, params=self.params,
            machine=MACHINE, extra_globals=self.extra,
            backend=backend or self.backend, specialize=self.specialize,
        )

    def check(self, outcome, wall_s, golden) -> JobResult:
        stats = outcome.sim.stats
        observed = {
            "makespan_us": outcome.makespan_us,
            "messages": outcome.total_messages,
            "bytes": stats.total_bytes,
        }
        failure = None
        counts = {}
        if self.backend == "replay":
            if outcome.spmd.backend != "replay" or outcome.spmd.fallback_reason:
                failure = f"replay fell back: {outcome.spmd.fallback_reason}"
        elif digest(outcome.value) != self.oracle:
            failure = "value differs from the sequential interpreter"
        if failure is None and self.requests is not None:
            sent = sum(
                count
                for name, count in stats.messages_by_channel_name().items()
                if name.startswith("ix") and name.endswith(".req")
            )
            counts["inspector.request_msgs"] = sent
            if sent != self.requests:
                failure = (
                    f"{sent} inspector request messages, "
                    f"expected {self.requests}"
                )
        if failure is None and self.pinned and golden is not None:
            failure = compare(observed, golden.get(self.key))
        return JobResult(
            self.key, wall_s, failure, outcome.makespan_us,
            outcome.total_messages, observed, counts,
        )


@dataclass
class TuneJob:
    """tune(): rank one program's decompositions over one distribution."""

    key: str
    app: str
    source: str
    n: int
    dist: str
    expected_rows: list  # the sequential interpreter's grid

    def run(self):
        return tune(
            self.source, n=self.n, proc_counts=(4,), top_k=1,
            dists=(self.dist,), blksizes=(4, 8),
            oracle=lambda n, old_rows: self.expected_rows,
        )

    def check(self, report, wall_s, golden) -> JobResult:
        infeasible = {
            c.config.label: error_code(c.error or "")
            for c in report.candidates if not c.feasible
        }
        counts = {
            "tune.candidates": len(report.candidates),
            "tune.abstained": sum(
                1 for c in report.candidates if c.abstained
            ),
            "tune.simulations": report.simulations,
        }
        if report.best is None:
            return JobResult(
                self.key, wall_s, "no candidate was confirmed",
                observed={"infeasible": infeasible}, counts=counts,
            )
        point = report.best.measured
        observed = {
            "best": report.best.config.label,
            "makespan_us": point.time_us,
            "messages": point.messages,
            "bytes": point.bytes,
            "infeasible": infeasible,
        }
        failure = None
        for label, why in infeasible.items():
            strategy = label.split()[1]
            if why != "verify: DL001" or (self.app, strategy) not in DEADLOCKS:
                failure = f"unexpected infeasible candidate {label}: {why}"
        if failure is None and golden is not None:
            failure = compare(observed, golden.get(self.key))
        return JobResult(
            self.key, wall_s, failure, point.time_us, point.messages,
            observed, counts,
        )


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------


class Workload:
    """Common state handling; subclasses build ``self.jobs`` in setup()."""

    name = ""
    fresh_each_round = True  # new store dir + cleared tables per round

    def __init__(self, seed: int, quick: bool, workdir: Path,
                 golden: dict | None):
        self.seed, self.quick = seed, quick
        self.workdir = Path(workdir)
        self.golden = golden
        self.jobs: list = []
        self.sizes: dict = {}
        self.store_bytes = 0
        self._stores = 0
        self.store_root: Path | None = None
        self.new_store()

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{purpose}")

    def ordered(self, units: list[tuple]) -> list:
        """Seed-ordered job list; each unit's jobs stay consecutive.

        Jobs that share a compilation form one unit, smallest first, so
        whichever seed orders the list the same job pays the compile
        miss and the per-job distribution keeps its shape."""
        self.rng("order").shuffle(units)
        return [job for unit in units for job in unit]

    def new_store(self) -> Path:
        """An empty store dir (the compile cache is persistent, so a
        fresh state needs one as well as cleared tables)."""
        previous = self.store_root
        self._stores += 1
        self.store_root = self.workdir / f"store{self._stores}"
        self.store_root.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(self.store_root)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        return self.store_root

    def begin_round(self) -> None:
        gc.collect()
        if self.fresh_each_round:
            self.new_store()
            perf.reset(clear_cache_tables=True)
        else:
            perf.reset()
            perf.clear_caches()  # memory tiers only; the store survives

    def warm_up(self) -> None:
        """One job per distinct (app, backend), so lazy imports and
        first-call initialisation are billed to set-up, not to jobs."""
        self.new_store()
        seen = set()
        for job in self.jobs:
            kind = (job.app, getattr(job, "backend", None),
                    getattr(job, "specialize", False))
            if kind not in seen:
                seen.add(kind)
                job.run()

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, tracer=None, over_http=True) -> list[JobResult]:
        self.begin_round()
        results = []
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.key
            started = clock()
            try:
                out, error = job.run(), None
            except Exception as exc:  # a failed job is a counted outcome
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall_s = clock() - started
            if tracer is not None:
                tracer.job = None
            if error is not None:
                results.append(JobResult(job.key, wall_s, error))
            else:
                results.append(job.check(out, wall_s, self.golden))
        self.store_bytes = ArtifactStore(self.store_root).size_bytes()
        return results

    def peak_rss_kb(self) -> int:
        """Of the process that does the work: this one."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def transport(self) -> tuple[list[JobResult], dict[str, float]]:
        """A round's results and the ``service.*`` transport numbers;
        nothing but zeros where no server is involved."""
        return [], dict.fromkeys(SERVICE_METRICS, 0.0)

    def close(self) -> None:
        pass


class SweepValues(Workload):
    name = "sweep_values"

    def setup(self) -> None:
        quick = self.quick
        n_stencil = 16 if quick else 32
        n_matmul = 4 if quick else 6
        ring = (4,) if quick else (4, 8, 16)
        irregular_n = {"spmv": 24, "histogram": 96, "mesh": 24} if quick \
            else {"spmv": 48, "histogram": 192, "mesh": 48}
        self.sizes = {
            "stencil_n": n_stencil, "matmul_n": n_matmul,
            "nprocs": list(ring), "blksize": BLKSIZE,
            "irregular_n": irregular_n, "histogram_bins": 32, "steps": 2,
        }
        rng = self.rng("inputs")
        units: list[tuple] = []
        plans = {
            "gauss_seidel": ("runtime", "compile", "optI", "optIII"),
            "jacobi": ("runtime", "compile", "optI"),
            "triangular": ("runtime", "compile", "optI", "optIII"),
            "matmul": ("runtime", "optIII"),
        }
        specialized = {
            "gauss_seidel": ("compile", "optI", "optIII"),
            "jacobi": ("compile",),
            "triangular": ("optIII",),
        }
        for app, strategies in plans.items():
            source, entry, arrays = AFFINE[app]
            n = n_matmul if app == "matmul" else n_stencil
            inputs = {a: seeded_matrix(rng, n, a) for a in arrays}
            params = {"N": n}
            oracle = self.oracle(source, entry, inputs, params)

            def job(strategy, nprocs, specialize=False):
                tag = "/specialized" if specialize else ""
                return ExecuteJob(
                    f"{app}/{strategy}/N{n}/S{nprocs}{tag}", app, source,
                    entry, strategy, shapes_for(arrays), nprocs, inputs,
                    params, "compiled", oracle, specialize,
                )

            for strategy in strategies:
                unit = [job(strategy, s) for s in ring]
                if strategy in specialized.get(app, ()):
                    unit.append(job(strategy, 4, True))
                units.append(tuple(unit))
        for app, mod in (("spmv", spmv), ("histogram", histogram),
                         ("mesh", mesh)):
            n = irregular_n[app]
            if app == "spmv":
                inputs, nnz = mod.make_inputs(n, seed=self.seed)
                params = {"N": n, "NNZ": nnz, "T": 2}
            elif app == "histogram":
                inputs = mod.make_inputs(n, 32, seed=self.seed)
                params = {"N": n, "M": 32}
            else:
                inputs = mod.make_inputs(n, seed=self.seed)
                params = {"N": n, "T": 2}
            oracle = self.oracle(mod.SOURCE, mod.ENTRY, inputs, params)
            sites = len(compile_program_cached(
                mod.SOURCE, entry=mod.ENTRY,
                strategy=STRATEGIES["inspector"][0],
                entry_shapes=mod.ENTRY_SHAPES, assume_nprocs_min=2,
            ).inspector_sites)
            # Cold builds every schedule with one all-to-all request round
            # per site; warm reuses them all.
            units.append(tuple(
                ExecuteJob(
                    f"{app}/inspector/N{n}/S{nprocs}/{phase}"
                    f"@seed{DEFAULT_SEED}",
                    app, mod.SOURCE, mod.ENTRY, "inspector",
                    mod.ENTRY_SHAPES, nprocs, inputs, params, "compiled",
                    oracle, extra=None, requests=requests,
                    pinned=self.seed == DEFAULT_SEED,
                )
                for nprocs in ring
                for phase, requests in (
                    ("cold", sites * nprocs * (nprocs - 1)), ("warm", 0),
                )
            ))
        self.jobs = self.ordered(units)
        self.warm_up()

    @staticmethod
    def oracle(source, entry, inputs, params) -> str:
        checked = check_program(parse_program(source))
        args = [inputs[p.name] for p in checked.proc(entry).params]
        return digest(
            run_sequential(checked, entry, args=args, params=params).value
        )


class ReplayFresh(Workload):
    name = "replay_fresh"

    #: (app, strategy) timing-only first-contact list.
    LIST = (
        ("gauss_seidel", "compile"), ("gauss_seidel", "optI"),
        ("gauss_seidel", "optIII"), ("jacobi", "compile"),
        ("jacobi", "optI"), ("triangular", "compile"),
    )

    def setup(self) -> None:
        points = ((32, 4), (48, 8)) if self.quick else ((64, 16), (96, 32))
        self.sizes = {"points_n_s": [list(p) for p in points],
                      "blksize": BLKSIZE}
        olds = {n: make_full((n, n), 1, name="Old") for n, _ in points}
        units = []
        for app, strategy in self.LIST:
            source, entry, arrays = AFFINE[app]
            units.append(tuple(
                ExecuteJob(
                    f"{app}/{strategy}/N{n}/S{nprocs}/replay", app, source,
                    entry, strategy, shapes_for(arrays), nprocs,
                    {a: olds[n] for a in arrays}, {"N": n}, "replay",
                )
                for n, nprocs in points
            ))
        self.jobs = self.ordered(units)
        self.warm_up()


class ReplayPrimed(ReplayFresh):
    name = "replay_primed"
    fresh_each_round = False

    def setup(self) -> None:
        super().setup()
        # Prime: one fresh pass writes every compile and skeleton entry.
        self.new_store()
        perf.reset(clear_cache_tables=True)
        for job in self.jobs:
            job.run()


class TuneRank(Workload):
    name = "tune_rank"

    def setup(self) -> None:
        n = 8 if self.quick else 10
        dists = DEFAULT_DISTS[:2] if self.quick else DEFAULT_DISTS
        self.sizes = {"n": n, "nprocs": 4, "dists": list(dists),
                      "blksizes": [4, 8], "top_k": 1}
        units = []
        for app in ("gauss_seidel", "jacobi"):
            source, entry, arrays = AFFINE[app]
            checked = check_program(parse_program(source))
            rows = run_sequential(
                checked, entry, args=[make_full((n, n), 1, name="Old")],
                params={"N": n},
            ).value.to_nested()
            units += [
                (TuneJob(f"{app}/{dist}/N{n}/S4/tune", app, source, n,
                         dist, rows),)
                for dist in dists
            ]
        self.jobs = self.ordered(units)
        self.warm_up()


class ServiceClosed(Workload):
    """Closed loop, two keep-alive connections, each waiting for its
    reply before sending the next request."""

    name = "service_closed"
    CONNECTIONS = 2
    HITS_PER_PROGRAM = 4
    POLL_S = 0.010
    READY_TIMEOUT_S = 60.0
    _server = None  # the running server process, if any
    _server_rss_kb = 0  # largest ru_maxrss of a stopped server
    poll_period_s = POLL_S

    #: (app, strategy, dist, n) variants submitted as distinct programs.
    POOL = (
        ("gauss_seidel", "optIII", "wrapped_cols", 20),
        ("jacobi", "optI", "block_cols", 20),
        ("gauss_seidel", "compile", "block_rows", 20),
        ("jacobi", "runtime", "wrapped_rows", 20),
    )

    def setup(self) -> None:
        pool = self.POOL[:2] if self.quick else self.POOL
        hits = 2 if self.quick else self.HITS_PER_PROGRAM
        pages = max(1, len(pool) // 2)
        self.sizes = {
            "connections": self.CONNECTIONS, "misses": len(pool),
            "hits": hits * len(pool), "pages": pages, "nprocs": 4,
            "programs": [list(p) for p in pool], "poll_ms": 10,
        }
        rng = self.rng("programs")
        self.payloads = {}
        for app, strategy, dist, n in pool:
            source = AFFINE[app][0]
            # A seeded constant makes the text (and so the artifact id)
            # depend on the seed without changing the build's work.
            if app == "gauss_seidel":
                source = source.replace(
                    "const bval = 1;", f"const bval = {rng.randrange(1, 10)};"
                )
            else:
                source = source.replace(
                    "const c = 1;", f"const c = {rng.randrange(1, 10)};"
                )
            self.payloads[f"{app}/{strategy}/{dist}/N{n}/S4/service"] = {
                "source": source, "entry_shapes": {"Old": ["N", "N"]},
                "n": n, "nprocs": 4, "strategy": strategy, "dist": dist,
                "blksize": BLKSIZE,
            }
        # Each connection owns every other program: its misses in pool
        # order (a build is cheaper after another of the same app, so
        # a seeded order would change what each build costs), with its
        # hits and listing pages dropped in at seeded places behind the
        # miss they depend on.
        programs = list(self.payloads)
        self.lists = []
        for index in range(self.CONNECTIONS):
            place = self.rng(f"conn{index}")
            mine = programs[index::self.CONNECTIONS]
            jobs = [("miss", prog, f"{prog}/miss") for prog in mine]
            later = [
                ("hit", prog, f"{prog}/hit{k}")
                for prog in mine for k in range(hits)
            ] + [
                ("page", mine[0], f"page{k}")
                for k in range(index, pages, self.CONNECTIONS)
            ]
            for job in later:
                built = jobs.index(("miss", job[1], f"{job[1]}/miss"))
                jobs.insert(place.randrange(built + 1, len(jobs) + 1), job)
            self.lists.append(jobs)
        self.jobs = [job for jobs in self.lists for job in jobs]
        self._one_build = threading.Lock()
        self._misses = 0  # timed misses so far; sets the poll phase
        self.client_ms: list[float] = []
        self.polls: list[int] = []
        self.server_stats: dict = {}
        # Warm-up: boot a server once and build the first program on it,
        # and once in-process (the ledger rounds run in-process).
        first = next(iter(self.payloads.values()))
        self.new_store()
        server = self._boot()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", self._port)
            self._miss(conn, first, [])
            conn.close()
        finally:
            self._stop(server)
        # One poll period as this transport delivers it: the sleep plus
        # a request's round trip.
        self.poll_period_s = (
            self.POLL_S + statistics.median(self.client_ms) / 1e3
        )
        self.new_store()
        self._inprocess_app().handle(
            "POST", "/v1/programs", body=json.dumps(first).encode()
        )

    # -- server process ------------------------------------------------

    def _boot(self):
        env = dict(os.environ, REPRO_CACHE_DIR=str(self.store_root))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.bench", "serve", "--port", "0",
             "--rate", "1e9", "--burst", "1e9"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        line = proc.stdout.readline()
        found = re.search(r"http://[^:]+:(\d+)", line)
        if found is None:
            self._stop(proc)
            raise RuntimeError(f"server did not start: {line!r}")
        self._server, self._port = proc, int(found.group(1))
        return proc

    def _stop(self, proc) -> None:
        self._server = None
        if proc.returncode is None:
            proc.terminate()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self._server_rss_kb = max(self._server_rss_kb, usage.ru_maxrss)
        proc.stdout.close()

    def close(self) -> None:
        if self._server is not None:
            self._stop(self._server)

    def peak_rss_kb(self) -> int:
        return self._server_rss_kb

    def transport(self) -> tuple[list[JobResult], dict[str, float]]:
        self.client_ms.clear()
        self.polls.clear()
        results = self.round()
        logged = [
            entry["ms"] for entry in self.server_stats["recent_requests"]
            if entry["path"] != "/v1/stats"
        ]

        def p50_ms(suffix):
            return statistics.median(
                r.wall_s for r in results if suffix in r.key
            ) * 1e3

        return results, {
            "service.transport_ms_p50": (
                statistics.median(self.client_ms) - statistics.median(logged)
            ),
            "service.hit_ms_p50": p50_ms("/hit"),
            "service.miss_ready_ms_p50": p50_ms("/miss"),
            "service.polls_per_miss": statistics.mean(self.polls),
            "service.http_429": self.server_stats["service"]["rate_limited"],
        }

    # -- HTTP client ---------------------------------------------------

    def _request(self, conn, method, path, payload=None):
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        started = clock()
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = json.loads(response.read())
        self.client_ms.append((clock() - started) * 1e3)
        return response.status, data

    def _miss(self, conn, payload, polls, phase=0.0):
        """POST, wait ``phase`` poll periods, then poll until ready."""
        status, body = self._request(conn, "POST", "/v1/programs", payload)
        if status not in (200, 202):
            return status, body
        time.sleep(phase * self.poll_period_s)
        deadline = clock() + self.READY_TIMEOUT_S
        count = 0
        while True:
            status, record = self._request(conn, "GET", body["url"])
            count += 1
            if status != 200 or record.get("status") in ("ready", "failed"):
                polls.append(count)
                return status, record
            if clock() > deadline:
                return 504, {"status": "timeout"}
            time.sleep(self.POLL_S)

    def _http_job(self, conn, job) -> JobResult:
        kind, prog, key = job
        if kind == "miss":
            # One build outstanding at a time: a second submit would
            # queue behind the server's single build worker and its
            # time-to-ready would measure the other client's build.
            with self._one_build:
                self._misses += 1
                started = clock()
                # Polling right away would lock every round to the same
                # place on the poll grid, and time-to-ready would move
                # in whole poll periods (54 ms with today's transport).
                # A different phase each time (golden-ratio steps) makes
                # the best of a few rounds follow the build time itself.
                status, record = self._miss(
                    conn, self.payloads[prog], self.polls,
                    phase=self._misses * 0.6180339887 % 1.0,
                )
                return self._check(job, status, record, clock() - started)
        started = clock()
        if kind == "hit":
            status, body = self._request(
                conn, "POST", "/v1/programs", self.payloads[prog]
            )
            record = body
            if status == 200 and body.get("cached"):
                status, record = self._request(conn, "GET", body["url"])
            elif status == 200:
                status, record = 0, {"status": "not served from cache"}
        else:
            status, record = self._request(
                conn, "GET", "/v1/artifacts?limit=50"
            )
        return self._check(job, status, record, clock() - started)

    # -- in-process (ledger rounds) ------------------------------------

    @staticmethod
    def _inprocess_app():
        from repro.service import ServiceApp, ServiceConfig

        return ServiceApp(ServiceConfig(
            sync=True, rate_capacity=1e9, rate_per_s=1e9,
        ))

    def _inprocess_job(self, app, job) -> JobResult:
        kind, prog, key = job
        started = clock()
        if kind == "page":
            resp = app.handle("GET", "/v1/artifacts", query={"limit": "50"})
        else:
            resp = app.handle(
                "POST", "/v1/programs",
                body=json.dumps(self.payloads[prog]).encode(),
            )
            if resp.status == 200:
                resp = app.handle("GET", resp.body["url"])
        return self._check(job, resp.status, resp.body, clock() - started)

    # -- checking ------------------------------------------------------

    def _check(self, job, status, record, wall_s) -> JobResult:
        kind, prog, key = job
        if status != 200:
            return JobResult(key, wall_s, f"HTTP {status}: {record}")
        if kind == "page":
            ok = record.get("count", 0) >= 1
            return JobResult(key, wall_s, None if ok else "empty listing")
        if record.get("status") != "ready":
            return JobResult(key, wall_s, f"artifact {record.get('status')}")
        best = (record.get("tune") or {}).get("best") or {}
        measured = best.get("measured") or {}
        observed = {
            "verdict": record["verify"]["verdict"],
            "best": best.get("label"),
            "makespan_us": best.get("measured_us"),
            "messages": measured.get("messages"),
            "bytes": measured.get("bytes"),
        }
        failure = None
        if self.golden is not None:
            failure = compare(observed, self.golden.get(f"{prog}/miss"))
        if kind == "hit":  # counted once, on the miss that built it
            return JobResult(key, wall_s, failure)
        return JobResult(
            key, wall_s, failure, observed["makespan_us"] or 0.0,
            observed["messages"] or 0, observed,
        )

    # -- rounds --------------------------------------------------------

    def round(self, tracer=None, over_http=True) -> list[JobResult]:
        self.new_store()
        results = (
            self._round_http() if over_http
            else self._round_inprocess(tracer)
        )
        self.store_bytes = ArtifactStore(self.store_root).size_bytes()
        return results

    def _round_inprocess(self, tracer) -> list[JobResult]:
        perf.reset(clear_cache_tables=True)
        app = self._inprocess_app()
        results = []
        # Deal the connections' lists out alternately.
        for turn in itertools.zip_longest(*self.lists):
            for job in turn:
                if job is None:
                    continue
                if tracer is not None:
                    tracer.job = job[2]
                results.append(self._inprocess_job(app, job))
                if tracer is not None:
                    tracer.job = None
        return results

    def _round_http(self) -> list[JobResult]:
        per_conn: list[list[JobResult]] = [[] for _ in self.lists]

        def client(index):
            conn = http.client.HTTPConnection("127.0.0.1", self._port)
            try:
                for job in self.lists[index]:
                    try:
                        per_conn[index].append(self._http_job(conn, job))
                    except (OSError, http.client.HTTPException,
                            ValueError) as exc:
                        per_conn[index].append(JobResult(
                            job[2], 0.0, f"{type(exc).__name__}: {exc}"
                        ))
                        conn.close()  # reconnects on the next request
            finally:
                conn.close()

        server = self._boot()
        try:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(len(self.lists))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            conn = http.client.HTTPConnection("127.0.0.1", self._port)
            try:
                conn.request("GET", "/v1/stats")
                self.server_stats = json.loads(conn.getresponse().read())
            finally:
                conn.close()
        finally:
            self._stop(server)
        return [result for results in per_conn for result in results]


WORKLOADS = {
    cls.name: cls
    for cls in (SweepValues, ReplayFresh, ReplayPrimed, TuneRank,
                ServiceClosed)
}

#: One line each: why the workload is in the set (mirrored verbatim in
#: BENCHMARK.json).
WHY = {
    "sweep_values": (
        "value-producing Fig. 6/7 sweep: spmd.compile closures, "
        "machine.simulator and spmd.layout do the work; replay, tune "
        "and service do none"
    ),
    "replay_fresh": (
        "timing-only first contact: replay.skeleton extraction dominates "
        "and every job writes the store (empty caches and store each round)"
    ),
    "replay_primed": (
        "same jobs against a primed store with memory tiers dropped: "
        "store reads + replay.plan + replay.engine, extraction near zero"
    ),
    "tune_rank": (
        "rank a program's decompositions: tune.model.predict and "
        "analysis.verify walks dominate, one simulator confirmation per call"
    ),
    "service_closed": (
        "HTTP clients that wait for replies, 1 miss : 4 hits: the only "
        "workload where service.server framing, service.app and store "
        "reads carry the latency"
    ),
}
