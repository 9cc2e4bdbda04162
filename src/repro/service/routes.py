"""Route table and dispatcher for the control plane.

Framework-agnostic on purpose: a route is ``(method, pattern, handler
name)``, a handler is a plain :class:`~repro.service.app.ServiceApp`
method returning a :class:`Response`, and :func:`dispatch` is the only
place that knows about paths. The stdlib HTTP adapter funnels through
here, so tests can exercise every route — routing, status codes, error
shapes — in-process without opening a socket.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_ID = r"(?P<artifact_id>[0-9a-fA-F]{64})"

#: (HTTP method, compiled path pattern, ServiceApp handler method name)
ROUTES: "list[tuple[str, re.Pattern, str]]" = [
    ("GET", re.compile(r"^/v1/health/?$"), "route_health"),
    ("GET", re.compile(r"^/v1/stats/?$"), "route_stats"),
    ("POST", re.compile(r"^/v1/programs/?$"), "route_submit"),
    ("GET", re.compile(r"^/v1/artifacts/?$"), "route_list"),
    ("GET", re.compile(rf"^/v1/artifacts/{_ID}/?$"), "route_artifact"),
]


@dataclass
class Response:
    """What a handler produced; transports serialize ``body`` as JSON."""

    status: int
    body: dict
    headers: "dict[str, str]" = field(default_factory=dict)


def error(status: int, message: str, **extra) -> Response:
    return Response(status, {"error": message, **extra})


def dispatch(app, method: str, path: str, query: dict,
             body, client: str) -> Response:
    """Route one request to its handler (404/405 when nothing matches)."""
    allowed: set[str] = set()
    for route_method, pattern, handler_name in ROUTES:
        match = pattern.match(path)
        if match is None:
            continue
        if route_method != method:
            allowed.add(route_method)
            continue
        handler = getattr(app, handler_name)
        return handler(
            query=query, body=body, client=client, **match.groupdict()
        )
    if allowed:
        resp = error(405, f"method {method} not allowed for {path}")
        resp.headers["Allow"] = ", ".join(sorted(allowed))
        return resp
    return error(404, f"no route for {method} {path}")
