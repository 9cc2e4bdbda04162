"""HTTP transports for the control plane.

The primary adapter is stdlib ``http.server`` — zero new dependencies,
which keeps the test suite and CI hermetic. ``make_server`` binds a
:class:`~repro.service.app.ServiceApp` to a ``ThreadingHTTPServer``
(port 0 picks a free port, handy for tests); :func:`serve` runs it
until interrupted.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.service.app import ServiceApp, ServiceConfig


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON shim over ``ServiceApp.handle``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # Buffer the response: the header block and the body are two small
    # writes, and on an unbuffered keep-alive socket the second waits
    # out the client's delayed ACK (Nagle), ~40 ms a request.
    # ``handle_one_request`` flushes once after the method returns, so
    # a response leaves in one segment.
    wbufsize = -1
    app: ServiceApp  # injected by make_server

    def _serve(self, method: str) -> None:
        split = urlsplit(self.path)
        query = dict(parse_qsl(split.query))
        body = None
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            body = self.rfile.read(length)
        client = self.client_address[0] if self.client_address else "unknown"
        resp = self.app.handle(
            method, split.path, query=query, body=body, client=client
        )
        blob = json.dumps(resp.body, sort_keys=True).encode("utf-8")
        self.send_response(resp.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in resp.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._serve("POST")

    def log_message(self, fmt, *args) -> None:
        # ServiceApp.handle already logs every request (with timing)
        # through the ``repro.service`` logger; the default
        # stderr-per-request here would just double it up.
        pass


def make_server(app: ServiceApp | None = None, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """A bound, not-yet-running server; ``server.server_port`` tells the
    chosen port when ``port=0``."""
    app = app or ServiceApp()
    handler = type("BoundHandler", (_Handler,), {"app": app})
    return ThreadingHTTPServer((host, port), handler)


def serve(app: ServiceApp | None = None, host: str = "127.0.0.1",
          port: int = 8000) -> None:
    """Run the control plane until KeyboardInterrupt."""
    server = make_server(app, host, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
