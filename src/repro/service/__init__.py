"""Decomposition-as-a-service HTTP control plane.

Wraps the library's compile / verify / tune pipeline in a long-running
service: ``POST /v1/programs`` turns a mini-Id program plus a
decomposition request into a **content-addressed artifact** — the
sha256 of the canonical program key, the same digest scheme the
on-disk artifact store (:mod:`repro.store`) uses — and
``GET /v1/artifacts/{id}`` serves the compiled-IR summary, the static
verifier's diagnostics JSON, and the tuner's ranking, all persisted in
the store so any replica pointed at the same ``REPRO_CACHE_DIR`` serves
a warm artifact without recompiling.

Layering:

* :mod:`repro.service.schemas` — request validation and the artifact
  record shape (no third-party schema library);
* :mod:`repro.service.ratelimit` — token-bucket rate limiter;
* :mod:`repro.service.app` — the framework-agnostic application object:
  every route is a plain method ``handle()`` dispatches to, so tests
  drive it in-process without sockets;
* :mod:`repro.service.server` — stdlib ``http.server`` adapter (the
  test suite needs no new dependency).

Run one with ``python -m repro.bench serve``.
"""

from repro.service.app import ServiceApp, ServiceConfig
from repro.service.ratelimit import TokenBucket
from repro.service.schemas import SchemaError, SubmitRequest
from repro.service.server import make_server, serve

__all__ = [
    "ServiceApp",
    "ServiceConfig",
    "TokenBucket",
    "SchemaError",
    "SubmitRequest",
    "make_server",
    "serve",
]
