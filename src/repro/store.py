"""Persistent content-addressed artifact store for perf caches.

The in-process memoization tables in :mod:`repro.perf` make the second
call cheap — but every fresh process (a cold CLI invocation, a
``--jobs`` bench worker, a service replica) pays full price again. This
module gives those caches a shared on-disk tier: a content-addressed
directory of pickles under ``~/.cache/repro`` (override with the
``REPRO_CACHE_DIR`` environment variable; set it to the empty string to
disable persistence entirely) that any number of concurrent processes
can read and write safely.

Layout and invariants:

``<root>/v<FORMAT_VERSION>/<cache>/<hh>/<hash>.pkl``
    ``hash`` is the sha256 hex digest of the cache entry's canonical
    key string (computed by the cache's ``key_fn`` — see
    :func:`repro.perf.register_cache`); ``hh`` is its first two hex
    digits (a fan-out shard so directories stay small). Bumping
    ``FORMAT_VERSION`` orphans every old entry at once — version
    mismatch is just a path miss.

**Writes are atomic**: each entry is pickled to a temp file in the same
directory and ``os.replace``-d into place, so a reader never observes a
half-written pickle and the last concurrent writer wins (both wrote the
same value — keys are content hashes). A write is one open, one write
and one rename: the temp file is ``.tmp-<pid>-<n>.pkl``, where ``n``
counts this process's puts, so no other live writer can pick the same
name; it is created with ``O_CREAT | O_EXCL``, and the shard directory
is made only when that open reports it missing. A writer that dies
between open and rename leaves its temp file behind; eviction sweeps
``.tmp-*`` files older than an hour.

**Reads never raise**: any failure — corrupt pickle, truncated file,
version skew inside the payload, unpicklable class from a newer code
revision — counts as a miss (``store.<cache>.error``), and the corrupt
entry is unlinked so it cannot poison the next reader.

**Eviction** is mtime-LRU over the whole store, triggered opportunistically
after writes once the store exceeds ``max_bytes`` (default 4 GiB,
override with ``REPRO_CACHE_MAX_BYTES``). Reads touch mtimes so hot
entries survive. Concurrent evictors may race to unlink the same file;
losing the race is fine.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import pickle
import time
from pathlib import Path

from repro import perf

#: Bump to orphan all previously written entries (payload schema change).
FORMAT_VERSION = 1

_DEFAULT_MAX_BYTES = 4 << 30
_EVICT_EVERY = 32  # put-credits between opportunistic eviction scans
#: How many put-credits a single "large" blob (> max_bytes // 64) burns.
#: Large blobs can blow the cap in few puts, so they advance the
#: eviction schedule faster — but never one-scan-per-put, which would
#: make a stream of large artifacts quadratic in store size.
_LARGE_BLOB_WEIGHT = 8
#: Numbers this process's temp files; with the pid, a name no other
#: live writer can pick.
_TMP_SEQ = itertools.count()
_TMP_FLAGS = os.O_CREAT | os.O_EXCL | os.O_WRONLY


def key_digest(canonical: str) -> str:
    """sha256 hex digest of a canonical key string."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_root() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


class ArtifactStore:
    """One process's handle on the shared on-disk cache tier."""

    def __init__(self, root: str | os.PathLike | None = None,
                 max_bytes: int | None = None):
        if root is None:
            env = os.environ.get("REPRO_CACHE_DIR")
            if env is not None and env == "":
                self.root = None  # persistence disabled by request
            else:
                self.root = Path(env) if env else default_root()
        else:
            self.root = Path(root)
        if max_bytes is None:
            try:
                max_bytes = int(
                    os.environ.get("REPRO_CACHE_MAX_BYTES", _DEFAULT_MAX_BYTES)
                )
            except ValueError:
                max_bytes = _DEFAULT_MAX_BYTES
        self.max_bytes = max_bytes
        self._puts_since_evict = 0

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, cache: str, digest: str) -> Path:
        return (
            self.root / f"v{FORMAT_VERSION}" / cache / digest[:2]
            / f"{digest}.pkl"
        )

    # -- reads --------------------------------------------------------

    def fetch(self, cache: str, digest: str) -> "tuple[bool, object]":
        """``(found, value)`` — distinguishes a stored ``None`` from a miss.

        Never raises: unreadable or corrupt entries are unlinked and
        counted under ``store.<cache>.error``.
        """
        if self.root is None:
            return False, None
        path = self._path(cache, digest)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if (
                not isinstance(payload, dict)
                or payload.get("format") != FORMAT_VERSION
                or payload.get("key") != digest
            ):
                raise ValueError("payload header mismatch")
        except FileNotFoundError:
            perf.incr(f"store.{cache}.miss")
            return False, None
        except Exception:
            perf.incr(f"store.{cache}.error")
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None
        perf.incr(f"store.{cache}.hit")
        try:  # LRU touch; best-effort (read-only stores still work)
            os.utime(path, None)
        except OSError:
            pass
        return True, payload["value"]

    def get(self, cache: str, digest: str):
        """The stored value, or ``None`` on any kind of miss.

        Callers that must tell a legitimately stored ``None`` apart from
        a miss (the :class:`repro.perf.SpillDict` tier does) use
        :meth:`fetch` instead.
        """
        return self.fetch(cache, digest)[1]

    # -- writes -------------------------------------------------------

    def put(self, cache: str, digest: str, value) -> bool:
        """Persist ``value``; returns False when not persisted.

        Unpicklable values and filesystem errors are silently skipped —
        the in-memory cache still has the entry, persistence is only an
        accelerator.
        """
        if self.root is None:
            return False
        path = self._path(cache, digest)
        try:
            blob = pickle.dumps(
                {"format": FORMAT_VERSION, "key": digest, "value": value},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:
            perf.incr(f"store.{cache}.unpicklable")
            return False
        shard = path.parent
        tmp = f"{shard}/.tmp-{os.getpid()}-{next(_TMP_SEQ)}.pkl"
        try:
            try:
                fd = os.open(tmp, _TMP_FLAGS, 0o600)
            except FileNotFoundError:
                shard.mkdir(parents=True, exist_ok=True)
                fd = os.open(tmp, _TMP_FLAGS, 0o600)
            try:
                try:
                    written = os.write(fd, blob)
                finally:
                    os.close(fd)
                if written != len(blob):
                    raise OSError(f"short write to {tmp}")
                os.replace(tmp, path)  # atomic: readers see old or new
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            perf.incr(f"store.{cache}.write_error")
            return False
        perf.incr(f"store.{cache}.put")
        self._puts_since_evict += (
            _LARGE_BLOB_WEIGHT if len(blob) > self.max_bytes // 64 else 1
        )
        if self._puts_since_evict >= _EVICT_EVERY:
            self._puts_since_evict = 0
            self.evict()
        return True

    # -- maintenance --------------------------------------------------

    def _entries(self):
        if self.root is None:
            return
        version_dir = self.root / f"v{FORMAT_VERSION}"
        if not version_dir.is_dir():
            return
        for cache_dir in version_dir.iterdir():
            if not cache_dir.is_dir():
                continue
            for shard in cache_dir.iterdir():
                if not shard.is_dir():
                    continue
                for entry in shard.iterdir():
                    if entry.suffix != ".pkl" or entry.name.startswith("."):
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue  # concurrently evicted
                    yield entry, stat

    def size_bytes(self) -> int:
        return sum(stat.st_size for _, stat in self._entries())

    def entry_count(self) -> int:
        return sum(1 for _ in self._entries())

    def digests(self, cache: str) -> "list[str]":
        """Sorted digests currently stored under ``cache``.

        A directory scan, not an index — callers (the service's
        keyset-paginated listings) treat it as a best-effort snapshot:
        concurrent writers and evictors may add or drop entries while it
        runs.
        """
        if self.root is None:
            return []
        cache_dir = self.root / f"v{FORMAT_VERSION}" / cache
        if not cache_dir.is_dir():
            return []
        found: list[str] = []
        for shard in cache_dir.iterdir():
            if not shard.is_dir():
                continue
            for entry in shard.iterdir():
                if entry.suffix == ".pkl" and not entry.name.startswith("."):
                    found.append(entry.stem)
        return sorted(found)

    def evict(self, target_bytes: int | None = None) -> int:
        """Drop least-recently-used entries until under the cap.

        Also sweeps stale temp files (crashed writers). Returns the
        number of entries removed.
        """
        if self.root is None:
            return 0
        perf.incr("store.evict_scan")
        cap = self.max_bytes if target_bytes is None else target_bytes
        entries = sorted(self._entries(), key=lambda e: e[1].st_mtime)
        total = sum(stat.st_size for _, stat in entries)
        removed = 0
        for path, stat in entries:
            if total <= cap:
                break
            try:
                os.unlink(path)
            except OSError:
                continue  # lost a race with another evictor; fine
            total -= stat.st_size
            removed += 1
        self._sweep_tmp()
        if removed:
            perf.incr("store.evicted", removed)
        return removed

    def _sweep_tmp(self, older_than_s: float = 3600.0) -> None:
        version_dir = self.root / f"v{FORMAT_VERSION}"
        if not version_dir.is_dir():
            return
        cutoff = time.time() - older_than_s
        for tmp in version_dir.glob("*/*/.tmp-*"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    os.unlink(tmp)
            except OSError:
                pass


_store: ArtifactStore | None = None
_store_env: "tuple[str | None, str | None] | None" = None


@contextlib.contextmanager
def store_disabled():
    """Temporarily disable the on-disk tier; in-memory caches unaffected.

    Benchmarks that measure the *in-process* memoization layers (e.g.
    ``bench_compile``'s warm hit-rate sweeps) use this so a primed disk
    store cannot satisfy a top-level lookup and short-circuit the very
    work whose caches they are measuring.
    """
    prev = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = ""
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = prev


def get_store() -> ArtifactStore:
    """The process-wide store handle.

    Re-resolved whenever ``REPRO_CACHE_DIR`` *or*
    ``REPRO_CACHE_MAX_BYTES`` changes, so tests (and callers) can
    repoint, re-cap, or disable the store by mutating the environment —
    no module reload needed.
    """
    global _store, _store_env
    env = (
        os.environ.get("REPRO_CACHE_DIR"),
        os.environ.get("REPRO_CACHE_MAX_BYTES"),
    )
    if _store is None or env != _store_env:
        _store = ArtifactStore()
        _store_env = env
    return _store
