"""Byte-level HTTP tests and the cross-process replica acceptance path.

The stdlib server is the deployment the test suite guarantees, so these
tests speak real HTTP over a loopback socket. The final test is the
PR's acceptance criterion: a *second server process*, pointed at the
same ``REPRO_CACHE_DIR``, must serve an artifact the first process
built — warm from disk, without recompiling — with the store hit
counters to prove it.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.apps import gauss_seidel as gs
from repro.service import ServiceApp, ServiceConfig, make_server


@pytest.fixture
def http_service(tmp_path, monkeypatch):
    """A running server on a free port, isolated store; yields its URL."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    app = ServiceApp(ServiceConfig(sync=True))
    server = make_server(app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def request(url, method="GET", payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.load(resp), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err), dict(err.headers)


def submit_payload(**overrides):
    payload = {
        "source": gs.SOURCE,
        "entry_shapes": {"Old": ["N", "N"]},
        "n": 8,
        "nprocs": 2,
        "dist": "wrapped_cols",
        "strategy": "optI",
        "tune": False,
    }
    payload.update(overrides)
    return payload


def test_http_submit_then_fetch_artifact(http_service):
    status, body, headers = request(
        f"{http_service}/v1/programs", "POST", submit_payload()
    )
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    artifact_id = body["id"]

    status, record, _ = request(f"{http_service}/v1/artifacts/{artifact_id}")
    assert status == 200
    assert record["status"] == "ready"
    assert record["verify"]["verdict"] == "clean"
    assert record["compile"]["total_statements"] > 0

    status, listing, _ = request(f"{http_service}/v1/artifacts?limit=10")
    assert status == 200
    assert listing["count"] == 1

    status, health, _ = request(f"{http_service}/v1/health")
    assert status == 200 and health["status"] == "ok"


def test_http_error_statuses(http_service):
    status, body, _ = request(f"{http_service}/v1/artifacts/{'f' * 64}")
    assert status == 404
    status, body, _ = request(
        f"{http_service}/v1/programs", "POST", {"source": ""}
    )
    assert status == 400 and body["field"] == "source"
    status, body, _ = request(f"{http_service}/v1/nope")
    assert status == 404


def test_http_rate_limit_429_with_retry_after(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    app = ServiceApp(
        ServiceConfig(sync=True, rate_capacity=3, rate_per_s=0.001)
    )
    server = make_server(app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_port}/v1/stats"
        statuses = [request(url)[0] for _ in range(6)]
        assert statuses.count(429) >= 1
        status, body, headers = request(url)
        assert status == 429
        assert float(headers["Retry-After"]) > 0
        assert body["error"] == "rate limit exceeded"
        # Health stays reachable for probes even when throttled.
        health_url = f"http://127.0.0.1:{server.server_port}/v1/health"
        assert request(health_url)[0] == 200
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


_REPLICA_DRIVER = """
import json, sys
from repro import perf
from repro.service import ServiceApp, ServiceConfig, make_server
import threading, urllib.request

artifact_id = sys.argv[1]
app = ServiceApp(ServiceConfig(sync=True))
server = make_server(app)
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
url = f"http://127.0.0.1:{server.server_port}/v1/artifacts/{artifact_id}"
with urllib.request.urlopen(url) as resp:
    record = json.load(resp)
server.shutdown(); server.server_close()
print(json.dumps({
    "status": record["status"],
    "verdict": record["verify"]["verdict"],
    "has_tune": record["tune"] is not None,
    "store_hits": perf.counter("store.service.hit"),
    "compile_misses": perf.counter("compile.miss"),
    "compile_hits": perf.counter("compile.hit"),
    "compile_phase_s": perf.phase_seconds("compile"),
}))
"""


def test_second_server_process_serves_artifact_warm(http_service, tmp_path):
    # First server process (this one) builds the artifact...
    status, body, _ = request(
        f"{http_service}/v1/programs", "POST",
        submit_payload(tune={"top_k": 0}),
    )
    assert status == 200 and body["status"] == "ready"
    artifact_id = body["id"]

    # ...a second server process pointed at the same store serves it
    # warm: one service-cache store hit, zero compiles of any kind.
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "store")
    src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_dir)
    proc = subprocess.run(
        [sys.executable, "-c", _REPLICA_DRIVER, artifact_id],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    replica = json.loads(proc.stdout)
    assert replica["status"] == "ready"
    assert replica["verdict"] == "clean"
    assert replica["has_tune"] is True  # ranking persisted with the record
    assert replica["store_hits"] == 1
    assert replica["compile_misses"] == 0
    assert replica["compile_hits"] == 0
    assert replica["compile_phase_s"] == 0.0


def test_one_response_is_one_socket_write(tmp_path, monkeypatch):
    """Header block and body must leave together: two small writes on a
    keep-alive socket stall ~40 ms on Nagle x delayed ACK."""
    import socket

    from repro.service.server import _Handler

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))

    class Recording(socket.socket):
        def send(self, data, *flags):
            self.writes.append(bytes(data))
            return super().send(data, *flags)

        def sendall(self, data, *flags):
            self.writes.append(bytes(data))
            return super().sendall(data, *flags)

    client, peer = socket.socketpair()
    served = Recording(fileno=peer.detach())
    served.writes = []
    with client, served:
        client.sendall(
            b"GET /v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        handler = type(
            "BoundHandler", (_Handler,), {"app": ServiceApp(ServiceConfig())}
        )
        handler(served, ("127.0.0.1", 0), None)
        [response] = served.writes
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    assert json.loads(body)["status"] == "ok"
