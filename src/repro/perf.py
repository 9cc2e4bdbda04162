"""Compiler-side performance instrumentation.

One tiny module, imported by the hot paths, holding three things:

* **counters** — monotonically increasing integers;
* **phase timers** — ``with perf.phase("compile"): ...`` accumulates
  host seconds per named phase, giving the compile-vs-execute breakdown
  the bench CLI emits under ``--profile``;
* the **cache registry and the one way to consult it** — every
  memoization table registers itself here and is read and written only
  through :func:`memo` (or its halves :func:`lookup` / :func:`insert`),
  which own the policy: the global switch (``set_caches_enabled(False)``
  is how benchmarks measure the uncached baseline without a separate
  code path), the ``<name>.hit`` / ``<name>.miss`` counters, a cached
  ``None`` being a hit, an unhashable key computing uncounted.

Caches registered with ``persistent=True`` additionally spill to the
process-shared on-disk artifact store (:mod:`repro.store`): a memory
miss falls through to a disk read, and every insert is mirrored to disk,
so cold processes — fresh CLI invocations, ``--jobs`` workers — start
from the fleet's warm state. Persistence requires a ``key_fn`` mapping
the in-memory key (which may contain identity-hashed objects) to a
canonical, process-independent string — :func:`stable_key` builds one
from the key's ``repr``; returning ``None`` marks a key unpersistable
and keeps it memory-only.

Everything else is process-local. The parallel bench harness snapshots
worker state and merges it into the parent with :func:`merge`.
"""

from __future__ import annotations

import re
import sys
import time
from contextlib import contextmanager
from itertools import islice
from typing import Callable, Iterator, MutableMapping

_counters: dict[str, int] = {}
_phases: dict[str, float] = {}
_caches: dict[str, MutableMapping] = {}
_caches_enabled: bool = True


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def incr(name: str, amount: int = 1) -> None:
    _counters[name] = _counters.get(name, 0) + amount


def hit(name: str) -> None:
    incr(f"{name}.hit")


def miss(name: str) -> None:
    incr(f"{name}.miss")


def counter(name: str) -> int:
    return _counters.get(name, 0)


def hit_rate(name: str) -> float:
    """Hits / (hits + misses), or 0.0 when the cache was never consulted."""
    hits = counter(f"{name}.hit")
    total = hits + counter(f"{name}.miss")
    return hits / total if total else 0.0


# ---------------------------------------------------------------------------
# Phase timers
# ---------------------------------------------------------------------------


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Accumulate wall-clock seconds spent in the named phase."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        _phases[name] = _phases.get(name, 0.0) + (time.perf_counter() - t0)


def phase_seconds(name: str) -> float:
    return _phases.get(name, 0.0)


# ---------------------------------------------------------------------------
# Cache registry
# ---------------------------------------------------------------------------


#: "Not cached" — distinct from every cacheable value, ``None`` included.
MISSING = object()


class SpillDict(MutableMapping):
    """A dict whose misses fall through to the on-disk artifact store.

    Behaves exactly like the plain dict it wraps, with two additions:
    ``get``/``[]``/``in`` consult the disk store on a memory miss
    (loading hits back into memory and counting ``store.<name>.hit``),
    and ``[key] = value`` mirrors the entry to disk. ``clear()`` empties
    only the in-memory tier — that is what lets a benchmark simulate a
    fresh process against a primed store.

    A cached ``None`` is a real value, not a miss: the disk tier is
    consulted through :meth:`ArtifactStore.fetch`'s ``(found, value)``
    protocol, so ``None``-valued entries round-trip instead of being
    recomputed (and re-``put``) forever.

    Removal (``pop``/``popitem``/``del``) acts on the **memory tier
    only** and never consults the disk store: the store is shared
    fleet state whose lifecycle belongs to eviction, and resurrecting
    an entry from disk just to hand it to ``pop`` would turn a local
    drop into a cross-process read. ``pop(key)`` on a key that is only
    on disk raises ``KeyError``.
    """

    def __init__(self, name: str,
                 key_fn: Callable[[object], "str | None"]):
        self.name = name
        self.key_fn = key_fn
        self._mem: dict = {}
        self._digests: dict = {}  # key -> sha256 digest (or None)

    def _digest(self, key) -> "str | None":
        digest = self._digests.get(key, MISSING)
        if digest is MISSING:
            from repro import store

            canonical = self.key_fn(key)
            digest = (
                store.key_digest(canonical) if canonical is not None else None
            )
            self._digests[key] = digest
        return digest

    def get(self, key, default=None):
        value = self._mem.get(key, MISSING)
        if value is not MISSING:
            return value
        if _caches_enabled:
            from repro import store

            handle = store.get_store()
            if handle.enabled:
                digest = self._digest(key)
                if digest is not None:
                    found, value = handle.fetch(self.name, digest)
                    if found:
                        self._mem[key] = value
                        return value
        return default

    def __getitem__(self, key):
        value = self.get(key, MISSING)
        if value is MISSING:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return self.get(key, MISSING) is not MISSING

    def __setitem__(self, key, value) -> None:
        self._mem[key] = value
        if _caches_enabled:
            from repro import store

            handle = store.get_store()
            if handle.enabled:
                digest = self._digest(key)
                if digest is not None:
                    handle.put(self.name, digest, value)

    def __delitem__(self, key) -> None:
        del self._mem[key]

    def pop(self, key, *default):
        """Remove ``key`` from the memory tier (disk never consulted)."""
        if default:
            return self._mem.pop(key, default[0])
        return self._mem.pop(key)

    def popitem(self):
        """Remove an arbitrary memory-tier entry (disk never consulted)."""
        return self._mem.popitem()

    def __iter__(self):
        return iter(self._mem)

    def __len__(self) -> int:
        return len(self._mem)

    def clear(self) -> None:  # memory tier only; the store survives
        self._mem.clear()
        self._digests.clear()

    def values(self):
        return self._mem.values()


def register_cache(
    name: str,
    mapping: MutableMapping,
    persistent: bool = False,
    key_fn: Callable[[object], "str | None"] | None = None,
) -> MutableMapping:
    """Register a memoization table so it participates in clear/disable.

    With ``persistent=True`` (requires ``key_fn``), the returned mapping
    is a :class:`SpillDict` backed by the artifact store — one line is
    all a cache needs to become shared across processes.
    """
    if persistent:
        if key_fn is None:
            raise ValueError(f"persistent cache {name!r} requires a key_fn")
        mapping = SpillDict(name, key_fn)
    _caches[name] = mapping
    return mapping


def lookup(name: str, key):
    """The value cached under ``key`` in cache ``name``, or :data:`MISSING`.

    Counts ``<name>.hit`` or ``<name>.miss``. With caches disabled, or
    for an unhashable key, answers :data:`MISSING` and counts nothing.
    """
    if not _caches_enabled:
        return MISSING
    try:
        value = _caches[name].get(key, MISSING)
    except TypeError:  # unhashable key
        return MISSING
    counter_name = name + (".miss" if value is MISSING else ".hit")
    _counters[counter_name] = _counters.get(counter_name, 0) + 1
    return value


def insert(name: str, key, value) -> None:
    """Store what a :func:`lookup` miss went on to compute (a no-op with
    caches disabled or an unhashable key)."""
    if _caches_enabled:
        try:
            _caches[name][key] = value
        except TypeError:  # unhashable key
            pass


def memo(name: str, key, build: Callable[[], object]):
    """``build()``, memoized under ``key`` in cache ``name``.

    :func:`lookup` then, on a miss, ``build`` and :func:`insert` —
    written out rather than called because the symbolic caches sit on
    the compiler's hottest path and every Python call there is measured.
    An exception in ``build`` propagates and caches nothing.
    """
    if not _caches_enabled:
        return build()
    cache = _caches[name]
    try:
        value = cache.get(key, MISSING)
    except TypeError:  # unhashable key
        return build()
    if value is not MISSING:
        counter_name = name + ".hit"
        _counters[counter_name] = _counters.get(counter_name, 0) + 1
        return value
    counter_name = name + ".miss"
    _counters[counter_name] = _counters.get(counter_name, 0) + 1
    value = cache[key] = build()
    return value


_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+>")


def stable_key(tag: str) -> Callable[[object], "str | None"]:
    """A ``key_fn`` for a persistent cache: ``"<tag>|<repr(key)>"``.

    ``tag`` names the cache and its payload schema: bump it when the
    cached type changes shape, because a stale pickle can load yet lack
    new fields. Key components that hash by identity must print
    process-independently (a ``NodeProgram`` prints its source); a
    ``repr`` that raises or leaks a default ``<... at 0x...>`` address
    makes the key unpersistable (``None``).
    """

    def key_fn(key) -> "str | None":
        try:
            text = repr(key)
        except Exception:
            return None
        if _ADDRESS.search(text):
            return None
        return f"{tag}|{text}"

    return key_fn


def caches_enabled() -> bool:
    return _caches_enabled


def set_caches_enabled(enabled: bool) -> None:
    """Globally enable/disable memoization (clears tables on disable)."""
    global _caches_enabled
    _caches_enabled = enabled
    if not enabled:
        clear_caches()


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Temporarily run with every registered cache off and empty."""
    prior = _caches_enabled
    set_caches_enabled(False)
    try:
        yield
    finally:
        set_caches_enabled(prior)


def clear_caches() -> None:
    for mapping in _caches.values():
        mapping.clear()


def cache_sizes() -> dict[str, int]:
    return {name: len(mapping) for name, mapping in _caches.items()}


def _estimate_bytes(obj, _depth: int = 0, _seen=None) -> int:
    """Rough recursive in-memory footprint of one cache value.

    Exact for numpy arrays (``nbytes``); containers and dataclasses
    recurse a few levels with cycle protection; everything else falls
    back to ``sys.getsizeof``. An estimate, not an audit — the point is
    telling a 40 MB skeleton cache from a 4 KB one.
    """
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes + 96
    if _depth >= 6:
        return sys.getsizeof(obj, 64)
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return 0
    total = sys.getsizeof(obj, 64)
    if isinstance(obj, dict):
        _seen.add(id(obj))
        total += sum(
            _estimate_bytes(k, _depth + 1, _seen)
            + _estimate_bytes(v, _depth + 1, _seen)
            for k, v in obj.items()
        )
    elif isinstance(obj, (list, tuple, set, frozenset)):
        _seen.add(id(obj))
        total += sum(_estimate_bytes(v, _depth + 1, _seen) for v in obj)
    else:
        fields = getattr(obj, "__dict__", None)
        if fields is None:
            slots = getattr(type(obj), "__slots__", None)
            if slots:
                fields = {
                    s: getattr(obj, s) for s in slots if hasattr(obj, s)
                }
        if fields:
            _seen.add(id(obj))
            total += sum(
                _estimate_bytes(v, _depth + 1, _seen)
                for v in fields.values()
            )
    return total


_STATS_SAMPLE = 8  # values sampled per cache for the byte estimate


def _table_bytes(mapping) -> int:
    """Exact for a table whose values all state an int ``nbytes`` (a
    replay skeleton does); otherwise estimated from up to
    ``_STATS_SAMPLE`` values, extrapolated by entry count."""
    total = 0
    for value in mapping.values():
        nbytes = getattr(value, "nbytes", None)
        if not isinstance(nbytes, int):
            break
        total += nbytes
    else:
        return total
    sample = [
        _estimate_bytes(value)
        for value in islice(mapping.values(), _STATS_SAMPLE)
    ]
    return int(sum(sample) / len(sample) * len(mapping))


def cache_stats() -> dict[str, dict]:
    """Per-cache entry counts, hit rates, and byte sizes
    (:func:`_table_bytes`). Persistent caches also report their
    disk-tier counters (``store_hits``/``store_puts``/``store_errors``).
    """
    stats: dict[str, dict] = {}
    for name, mapping in _caches.items():
        entry = {
            "entries": len(mapping),
            "hits": counter(f"{name}.hit"),
            "misses": counter(f"{name}.miss"),
            "hit_rate": round(hit_rate(name), 4),
            "est_bytes": _table_bytes(mapping),
            "persistent": isinstance(mapping, SpillDict),
        }
        if entry["persistent"]:
            entry["store_hits"] = counter(f"store.{name}.hit")
            entry["store_misses"] = counter(f"store.{name}.miss")
            entry["store_puts"] = counter(f"store.{name}.put")
            entry["store_errors"] = counter(f"store.{name}.error")
        stats[name] = entry
    return stats


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def snapshot() -> dict:
    """A JSON-ready view of all counters and phase timers."""
    from repro.symbolic.expr import intern_stats

    return {
        "counters": dict(sorted(_counters.items())),
        "phases": dict(sorted(_phases.items())),
        "cache_sizes": cache_sizes(),
        "intern": intern_stats(),
    }


def merge(other: dict) -> None:
    """Fold a snapshot from another process into this one's totals."""
    for name, value in other.get("counters", {}).items():
        incr(name, value)
    for name, value in other.get("phases", {}).items():
        _phases[name] = _phases.get(name, 0.0) + value


def reset(clear_cache_tables: bool = False) -> None:
    """Zero counters and timers (optionally also empty the caches)."""
    _counters.clear()
    _phases.clear()
    if clear_cache_tables:
        clear_caches()
