"""The control-plane application object.

:class:`ServiceApp` owns everything between the transport and the
library: request validation, the token-bucket rate limiter, the build
worker, the artifact lifecycle, and the store integration. It is
deliberately transport-free — ``handle(method, path, ...)`` takes
plain values and returns a :class:`~repro.service.routes.Response` —
so the whole service is testable in-process and both HTTP adapters
stay thin.

**Artifact lifecycle.** ``POST /v1/programs`` validates the request,
derives the content-addressed artifact id (sha256 of the canonical
program key — :meth:`SubmitRequest.artifact_id`), and answers from the
fastest tier that knows it: the in-memory record table, the shared
on-disk artifact store (any replica's past build), the in-flight job
table, or — all misses — a freshly queued build. Builds run on one
background worker thread (``sync=True`` builds inline, used by tests
and ``serve --sync``): compile via the memoized
:func:`compile_program_cached`, statically verify via
:func:`repro.analysis.verify_compiled`, optionally rank candidate
decompositions via :func:`repro.tune.tune`, then persist the finished
record under the ``service`` cache in :mod:`repro.store`. States move
``queued -> building -> ready | failed``; both terminal states are
persisted (builds are deterministic, so a failure is as cacheable as a
success).

**Pagination.** ``GET /v1/artifacts`` is keyset-paginated: artifact
ids are hex digests, ordering is lexicographic, ``?after=<id>`` names
the last id of the previous page and ``next_after`` in the response is
the cursor for the next one (absent on the final page). Offset
pagination would scan-and-skip the store directory on every page;
keyset stays O(page).
"""

from __future__ import annotations

import json
import logging
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro import perf, store
from repro.errors import ReproError
from repro.service.ratelimit import RateLimiter
from repro.service.routes import Response, dispatch, error
from repro.service.schemas import (
    MAX_N,
    MAX_NPROCS,
    MAX_SOURCE_BYTES,
    SchemaError,
    SubmitRequest,
)

log = logging.getLogger("repro.service")

#: Store cache name artifacts are persisted under.
ARTIFACT_CACHE = "service"


@dataclass
class ServiceConfig:
    """Tunables; defaults suit tests and small deployments."""

    rate_capacity: float = 20.0  # burst tokens per client
    rate_per_s: float = 10.0  # steady-state requests/second/client
    sync: bool = False  # build artifacts inline in the POST
    tune_enabled: bool = True  # allow rankings (requests may still opt out)
    page_limit: int = 50  # default page size for listings
    page_limit_max: int = 200
    max_source_bytes: int = MAX_SOURCE_BYTES
    max_n: int = MAX_N
    max_nprocs: int = MAX_NPROCS
    request_log_size: int = 128


class ServiceApp:
    """One replica of the decomposition service."""

    def __init__(self, config: ServiceConfig | None = None, clock=None):
        self.config = config or ServiceConfig()
        self.limiter = RateLimiter(
            self.config.rate_capacity,
            self.config.rate_per_s,
            **({"clock": clock} if clock is not None else {}),
        )
        self._records: dict[str, dict] = {}  # id -> terminal record
        self._jobs: dict[str, dict] = {}  # id -> {status, request}
        self._lock = threading.Lock()
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._worker: threading.Thread | None = None
        self._started = time.monotonic()
        self.request_log: deque = deque(maxlen=self.config.request_log_size)

    # -- transport entry point ----------------------------------------

    def handle(self, method: str, path: str, query: dict | None = None,
               body=None, client: str = "local") -> Response:
        """Serve one request; the only method transports call."""
        t0 = time.perf_counter()
        method = method.upper()
        query = query or {}
        perf.incr("service.requests")
        if path.rstrip("/") != "/v1/health":  # liveness probes are free
            allowed, retry_after = self.limiter.check(client)
            if not allowed:
                perf.incr("service.rate_limited")
                resp = error(429, "rate limit exceeded")
                resp.headers["Retry-After"] = f"{retry_after:.3f}"
                self._log(method, path, resp.status, t0, client)
                return resp
        try:
            resp = dispatch(self, method, path, query, body, client)
        except SchemaError as exc:
            resp = error(400, str(exc), field=exc.field)
        except Exception:  # a handler bug must not kill the server
            log.exception("unhandled error serving %s %s", method, path)
            perf.incr("service.internal_errors")
            resp = error(500, "internal error")
        self._log(method, path, resp.status, t0, client)
        return resp

    def _log(self, method: str, path: str, status: int,
             t0: float, client: str) -> None:
        ms = (time.perf_counter() - t0) * 1000.0
        self.request_log.append(
            {
                "ts": time.time(),
                "client": client,
                "method": method,
                "path": path,
                "status": status,
                "ms": round(ms, 3),
            }
        )
        log.info("%s %s %s -> %d (%.1f ms)", client, method, path, status, ms)

    # -- routes -------------------------------------------------------

    def route_health(self, query, body, client) -> Response:
        return Response(
            200,
            {
                "status": "ok",
                "uptime_s": round(time.monotonic() - self._started, 3),
                "store_enabled": store.get_store().enabled,
            },
        )

    def route_stats(self, query, body, client) -> Response:
        handle = store.get_store()
        counters = {
            name: perf.counter(f"service.{name}")
            for name in (
                "requests", "submitted", "builds", "build_failures",
                "rate_limited", "internal_errors", "artifacts_served",
            )
        }
        with self._lock:
            in_flight = sum(
                1 for job in self._jobs.values()
                if job["status"] in ("queued", "building")
            )
            in_memory = len(self._records)
        return Response(
            200,
            {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "service": counters,
                "artifacts": {
                    "in_memory": in_memory,
                    "in_flight": in_flight,
                    "on_disk": (
                        len(handle.digests(ARTIFACT_CACHE))
                        if handle.enabled else 0
                    ),
                },
                "store": {
                    "enabled": handle.enabled,
                    "root": str(handle.root) if handle.enabled else None,
                    "size_bytes": (
                        handle.size_bytes() if handle.enabled else 0
                    ),
                    "entries": (
                        handle.entry_count() if handle.enabled else 0
                    ),
                    "evict_scans": perf.counter("store.evict_scan"),
                },
                "cache_stats": perf.cache_stats(),
                "ratelimit": self.limiter.stats(),
                "recent_requests": list(self.request_log)[-20:],
            },
        )

    def route_submit(self, query, body, client) -> Response:
        payload = _decode_body(body)
        req = SubmitRequest.validate(
            payload,
            max_source_bytes=self.config.max_source_bytes,
            max_n=self.config.max_n,
            max_nprocs=self.config.max_nprocs,
        )
        perf.incr("service.submitted")
        artifact_id = req.artifact_id()
        url = f"/v1/artifacts/{artifact_id}"

        status = self._known_status(artifact_id)
        if status is not None:
            return Response(
                200 if status in ("ready", "failed") else 202,
                {"id": artifact_id, "status": status, "url": url,
                 "cached": status in ("ready", "failed")},
            )

        with self._lock:
            # Submit raced another submit for the same id: first wins.
            if artifact_id not in self._jobs:
                self._jobs[artifact_id] = {
                    "status": "queued",
                    "request": req,
                    "created": time.time(),
                }
        if self.config.sync:
            self._build(artifact_id)
            status = self._known_status(artifact_id)
            return Response(
                200,
                {"id": artifact_id, "status": status, "url": url,
                 "cached": False},
            )
        self._ensure_worker()
        self._queue.put(artifact_id)
        return Response(
            202,
            {"id": artifact_id, "status": "queued", "url": url,
             "cached": False},
        )

    def route_artifact(self, query, body, client, artifact_id: str
                       ) -> Response:
        artifact_id = artifact_id.lower()
        # Both tables in one critical section: the build worker stores
        # the record and drops the job under this lock, so an id it
        # has accepted is always in one of them here.
        with self._lock:
            record = self._records.get(artifact_id)
            job = self._jobs.get(artifact_id)
            if record is None and job is not None:
                return Response(
                    200,
                    {"id": artifact_id, "status": job["status"],
                     "request": job["request"].describe()},
                )
        if record is None:
            record = self._load_record(artifact_id)
        if record is None:
            return error(404, f"unknown artifact {artifact_id}")
        perf.incr("service.artifacts_served")
        return Response(200, record)

    def route_list(self, query, body, client) -> Response:
        limit = self.config.page_limit
        if "limit" in query:
            try:
                limit = int(query["limit"])
            except (TypeError, ValueError):
                raise SchemaError("limit", "expected an integer")
            if not 1 <= limit <= self.config.page_limit_max:
                raise SchemaError(
                    "limit",
                    f"must be in [1, {self.config.page_limit_max}]",
                )
        after = query.get("after", "")
        if after and not _looks_like_id(after):
            raise SchemaError("after", "expected an artifact id cursor")

        ids = self._all_ids()
        page = [i for i in ids if i > after.lower()][:limit + 1]
        more = len(page) > limit
        page = page[:limit]
        items = [self._listing_item(i) for i in page]
        body_out = {
            "artifacts": items,
            "count": len(items),
            "total": len(ids),
        }
        if more and page:
            body_out["next_after"] = page[-1]
        return Response(200, body_out)

    # -- artifact plumbing --------------------------------------------

    def _known_status(self, artifact_id: str) -> "str | None":
        with self._lock:
            record = self._records.get(artifact_id)
            if record is not None:
                return record["status"]
            job = self._jobs.get(artifact_id)
            if job is not None:
                return job["status"]
        found, record = store.get_store().fetch(ARTIFACT_CACHE, artifact_id)
        if found:
            with self._lock:
                self._records[artifact_id] = record
            return record["status"]
        return None

    def _load_record(self, artifact_id: str) -> "dict | None":
        with self._lock:
            record = self._records.get(artifact_id)
        if record is not None:
            return record
        found, record = store.get_store().fetch(ARTIFACT_CACHE, artifact_id)
        if found:
            with self._lock:
                self._records[artifact_id] = record
            return record
        return None

    def _all_ids(self) -> "list[str]":
        handle = store.get_store()
        ids = set(handle.digests(ARTIFACT_CACHE)) if handle.enabled else set()
        with self._lock:
            ids.update(self._records)
            ids.update(self._jobs)
        return sorted(ids)

    def _listing_item(self, artifact_id: str) -> dict:
        with self._lock:
            record = self._records.get(artifact_id)
            job = self._jobs.get(artifact_id)
        if record is None and job is not None:
            return {"id": artifact_id, "status": job["status"]}
        if record is None:
            record = self._load_record(artifact_id)
        if record is None:  # evicted between scan and load
            return {"id": artifact_id, "status": "unknown"}
        item = {"id": artifact_id, "status": record["status"]}
        request = record.get("request") or {}
        for field_name in ("strategy", "dist", "nprocs", "n"):
            if field_name in request:
                item[field_name] = request[field_name]
        return item

    # -- build worker -------------------------------------------------

    def _ensure_worker(self) -> None:
        with self._lock:
            if self._worker is not None and self._worker.is_alive():
                return
            self._worker = threading.Thread(
                target=self._worker_loop,
                name="repro-service-builder",
                daemon=True,
            )
            self._worker.start()

    def _worker_loop(self) -> None:
        while True:
            artifact_id = self._queue.get()
            try:
                self._build(artifact_id)
            except Exception:  # defensive: _build already catches
                log.exception("build %s crashed", artifact_id)
            finally:
                self._queue.task_done()

    def _build(self, artifact_id: str) -> None:
        with self._lock:
            job = self._jobs.get(artifact_id)
            if job is None or job["status"] != "queued":
                return  # duplicate enqueue or already built
            job["status"] = "building"
            req: SubmitRequest = job["request"]
        perf.incr("service.builds")
        t0 = time.perf_counter()
        record = {
            "id": artifact_id,
            "status": "ready",
            "created": job["created"],
            "request": req.describe(),
        }
        try:
            record.update(
                build_artifact(req, tune_enabled=self.config.tune_enabled)
            )
        except ReproError as exc:
            perf.incr("service.build_failures")
            record["status"] = "failed"
            record["error"] = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("unexpected build failure for %s", artifact_id)
            perf.incr("service.build_failures")
            record["status"] = "failed"
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["build_seconds"] = round(time.perf_counter() - t0, 6)
        # Record must survive a JSON round-trip for every transport.
        record = json.loads(json.dumps(record))
        store.get_store().put(ARTIFACT_CACHE, artifact_id, record)
        with self._lock:
            self._records[artifact_id] = record
            self._jobs.pop(artifact_id, None)


# -----------------------------------------------------------------------
# Building one artifact (module-level: no app state involved)
# -----------------------------------------------------------------------


def build_artifact(req: SubmitRequest, tune_enabled: bool = True) -> dict:
    """Compile + verify (+ rank) one validated request.

    Raises :class:`ReproError` subtypes on compile failure; verifier
    diagnostics are *data* (the report rides on the artifact), not
    errors. ``tune_enabled=False`` (a replica-level switch, ``serve
    --no-tune``) skips rankings even for requests that ask for one —
    point such replicas at their own store if the fleet mixes configs,
    since artifacts are keyed by request, not by replica config.
    """
    from repro.core.compiler import compile_program_cached
    from repro.analysis import verify_compiled
    from repro.tune.space import STRATEGIES, retarget_source

    source = (
        retarget_source(req.source, req.dist) if req.dist else req.source
    )
    strategy, opt_level = STRATEGIES[req.strategy]
    entry_shapes = (
        {name: dims for name, dims in req.entry_shapes} or None
    )
    compiled = compile_program_cached(
        source,
        entry=req.entry,
        strategy=strategy,
        opt_level=opt_level,
        entry_shapes=entry_shapes,
        assume_nprocs_min=2 if req.nprocs >= 2 else 1,
    )
    # Bind every declared program parameter to the requested problem
    # size — the service's one size knob. (Every shipped app declares
    # exactly N; a multi-param program just sees the same size twice.)
    params = {name: req.n for name in compiled.param_names}
    report = verify_compiled(
        compiled,
        req.nprocs,
        params=params,
        extra_globals={"blksize": req.blksize},
        metadata={
            "strategy": req.strategy,
            "dist": req.dist,
            "nprocs": req.nprocs,
            "n": req.n,
        },
    )
    out = {
        "compile": compile_summary(compiled),
        "verify": report.to_json(verdict=(
            "clean" if not report.diagnostics
            else "errors" if report.has_errors else "warnings"
        )),
    }
    if not tune_enabled:
        out["tune"] = {"disabled": True}
    elif req.tune.enabled:
        out["tune"] = _rank(req)
    else:
        out["tune"] = None
    return out


def _rank(req: SubmitRequest) -> dict:
    """The artifact's decomposition ranking (best-effort: errors ride
    along as data rather than failing the whole artifact)."""
    from repro.tune import tune
    from repro.tune.serialize import report_payload

    try:
        report = tune(
            req.source,
            req.n,
            entry=req.entry,
            proc_counts=(req.nprocs,),
            top_k=req.tune.top_k,
            entry_shapes=dict(req.entry_shapes) or None,
            dists=req.tune.dists or ((req.dist,) if req.dist else None),
            strategies=req.tune.strategies or None,
            blksizes=req.tune.blksizes or (req.blksize,),
        )
    except (ReproError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return report_payload(report)


def compile_summary(compiled) -> dict:
    """A JSON-safe digest of the compiled SPMD IR.

    Not the IR itself (that lives in the compile cache, keyed by the
    same canonical scheme) — the numbers a caller needs to sanity-check
    a decomposition at a glance: per-procedure statement counts,
    communication statements, and the channels they use.
    """
    from repro.spmd import ir

    program = compiled.program
    procs = {}
    total_stmts = 0
    all_channels: set[str] = set()
    for name, proc in sorted(program.procs.items()):
        stmts = list(ir.walk_stmts(list(proc.body)))
        channels = sorted(
            {ch for stmt in stmts for ch in ir.stmt_channels(stmt)}
        )
        comm = sum(1 for stmt in stmts if ir.stmt_channels(stmt))
        procs[name] = {
            "params": list(proc.params),
            "array_params": sorted(proc.array_params),
            "statements": len(stmts),
            "comm_statements": comm,
            "channels": channels,
        }
        total_stmts += len(stmts)
        all_channels.update(channels)
    return {
        "entry": compiled.entry,
        "strategy": compiled.strategy,
        "param_names": list(compiled.param_names),
        "entry_array_params": list(compiled.entry_array_params),
        "procedures": procs,
        "total_statements": total_stmts,
        "channels": sorted(all_channels),
    }


# -----------------------------------------------------------------------
# Body decoding shared by routes
# -----------------------------------------------------------------------


def _decode_body(body):
    if body is None:
        raise SchemaError("body", "expected a JSON object")
    if isinstance(body, (bytes, bytearray)):
        try:
            body = body.decode("utf-8")
        except UnicodeDecodeError:
            raise SchemaError("body", "expected UTF-8 JSON") from None
    if isinstance(body, str):
        try:
            body = json.loads(body)
        except json.JSONDecodeError as exc:
            raise SchemaError("body", f"invalid JSON: {exc}") from None
    return body


def _looks_like_id(text: str) -> bool:
    if len(text) != 64:
        return False
    try:
        int(text, 16)
    except ValueError:
        return False
    return True
