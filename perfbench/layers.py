"""The per-layer ledger: span wrappers and call attribution.

Layers are ``repro`` module names. Two independent instruments:

* **Spans** (traced round T1): every entry of :data:`LAYERS` is wrapped
  *from here* — no file under ``src/`` changes. The wrapper replaces the
  object at every import site that holds it (``repro.*`` modules and
  this harness's own) and records (layer, start, end, parent, job) in
  memory. A layer's *self time* is its spans' duration minus the part
  their child spans cover, so the layers of one job sum to its wall.
* **Call counts** (traced round T2): one round under ``cProfile`` with
  no wrappers; ``total_calls`` is split by the package of the callee's
  file, builtins going to their caller's package. Counts repeat exactly
  from run to run, which wall time on a shared VM does not.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict

#: (layer, module, attribute) — ``Class.method`` attributes patch the class.
LAYERS = (
    ("lang.parser", "repro.lang.parser", "parse_program"),
    ("lang.typecheck", "repro.lang.typecheck", "check_program"),
    ("core.compiler", "repro.core.compiler", "compile_program"),
    ("core.transforms", "repro.core.transforms", "optimize"),
    ("core.specialize", "repro.core.specialize", "specialize_for_rank"),
    ("core.runner", "repro.core.runner", "execute"),
    ("spmd.layout", "repro.spmd.layout", "scatter"),
    ("spmd.layout", "repro.spmd.layout", "gather"),
    ("spmd.compile", "repro.spmd.compile", "compiled_node"),
    ("spmd.interp", "repro.spmd.interp", "run_spmd"),
    ("machine.simulator", "repro.machine.simulator", "Simulator.run"),
    ("replay.skeleton", "repro.replay.skeleton", "extract_skeletons"),
    ("replay.plan", "repro.replay.plan", "get_plan"),
    ("replay.engine", "repro.replay.engine", "replay"),
    ("analysis.verify", "repro.analysis.verify", "verify_compiled"),
    ("analysis.locality", "repro.analysis.locality", "analyze"),
    ("tune.model", "repro.tune.model", "predict"),
    ("tune.search", "repro.tune.search", "tune"),
    ("store.put", "repro.store", "ArtifactStore.put"),
    ("store.fetch", "repro.store", "ArtifactStore.fetch"),
    ("service.build", "repro.service.app", "build_artifact"),
    ("service.app", "repro.service.app", "ServiceApp.handle"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))

#: ``pycalls.<package>`` buckets; anything else (stdlib, this harness)
#: lands in ``other`` so the buckets always sum to ``total_calls``.
PACKAGES = (
    "lang", "symbolic", "distrib", "core", "spmd", "machine", "runtime",
    "inspector", "replay", "tune", "analysis", "store", "perf", "service",
    "other",
)


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent, job]
        self.job = None
        self.extra: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, layer: str, fn, after=None):
        spans, local = self.spans, self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        from repro import store

        def stored_bytes(handle, cache, digest) -> int:
            # Documented layout (repro.store module docstring).
            path = (
                handle.root / f"v{store.FORMAT_VERSION}" / cache
                / digest[:2] / f"{digest}.pkl"
            )
            try:
                return path.stat().st_size
            except OSError:
                return 0

        def after_put(ok, handle, cache, digest, value=None):
            if ok:
                self.extra["store.put_mb"] += (
                    stored_bytes(handle, cache, digest) / 1e6
                )

        def after_fetch(found_value, handle, cache, digest):
            self.extra["store.fetch.found" if found_value[0]
                       else "store.fetch.missed"] += 1
            if found_value[0]:
                self.extra["store.fetch_mb"] += (
                    stored_bytes(handle, cache, digest) / 1e6
                )

        def after_extract(skeleton, *args):
            self.extra["replay.skeleton.events_k"] += (
                skeleton.total_events / 1e3
            )

        hooks = {
            "ArtifactStore.put": after_put,
            "ArtifactStore.fetch": after_fetch,
            "extract_skeletons": after_extract,
        }
        modules = [importlib.import_module(m) for _, m, _ in LAYERS]
        # Import sites: every repro module, and this harness's own
        # (its jobs call execute / tune through names it imported).
        holders = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None
            and name.split(".")[0] in ("repro", "perfbench")
        ]
        for (layer, _, attr), module in zip(LAYERS, modules):
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method,
                        self._wrap(layer, original, hooks.get(attr)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original, hooks.get(attr))
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    # -- reduction -----------------------------------------------------

    def ledger(self) -> dict[str, float]:
        """``<layer>.self_ms`` / ``<layer>.calls`` over spans with a job."""
        child_ms: dict[int, float] = defaultdict(float)
        for layer, start, end, parent, job in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out: dict[str, float] = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.self_ms"] = 0.0
            out[f"{layer}.calls"] = 0
        for index, (layer, start, end, parent, job) in enumerate(self.spans):
            if job is None:
                continue
            out[f"{layer}.self_ms"] += (end - start) * 1e3 - child_ms[index]
            out[f"{layer}.calls"] += 1
        return out


def package_of(filename: str) -> str | None:
    """The ``pycalls`` bucket of a profiled function's file, if it is
    ``repro`` code; None for builtins, stdlib and this harness."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    head = filename[at + len(marker):].split("/")[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in PACKAGES else "other"


def attribute_calls(profile) -> tuple[int, dict[str, int]]:
    """``(total_calls, {package: calls})`` from a ``cProfile.Profile``."""
    import pstats

    stats = pstats.Stats(profile)
    buckets = dict.fromkeys(PACKAGES, 0)
    for (filename, _, _), (_, ncalls, _, _, callers) in stats.stats.items():
        package = package_of(filename)
        if package is not None:
            buckets[package] += ncalls
            continue
        if filename != "~" or not callers:  # stdlib / harness code
            buckets["other"] += ncalls
            continue
        # A builtin: bill each call to the package that made it.
        billed = 0
        for (caller_file, _, _), (caller_n, _, _, _) in callers.items():
            buckets[package_of(caller_file) or "other"] += caller_n
            billed += caller_n
        buckets["other"] += ncalls - billed
    return stats.total_calls, buckets
