"""The persistent artifact store and its perf-cache integration.

Covers the store's survival guarantees — corrupted or version-skewed
entries are *misses*, never crashes; eviction is LRU and bounded — and
the :class:`repro.perf.SpillDict` tier that gives any registered cache a
disk fallthrough, including the ``cache_stats()`` accounting the bench
CLI reports — and, across two processes, that what one persisted the
next one starts from.
"""

import json
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import perf, store


@pytest.fixture
def tmp_store(tmp_path, monkeypatch):
    """A store handle rooted in this test's private directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    return store.get_store()


def digest(text: str) -> str:
    return store.key_digest(text)


# ---------------------------------------------------------------------------
# ArtifactStore basics
# ---------------------------------------------------------------------------


def test_roundtrip_and_counters(tmp_store):
    d = digest("k1")
    puts = perf.counter("store.t.put")
    hits = perf.counter("store.t.hit")
    assert tmp_store.put("t", d, {"answer": 42})
    assert perf.counter("store.t.put") == puts + 1
    assert tmp_store.get("t", d) == {"answer": 42}
    assert perf.counter("store.t.hit") == hits + 1


def test_absent_entry_is_a_counted_miss(tmp_store):
    misses = perf.counter("store.t.miss")
    assert tmp_store.get("t", digest("nope")) is None
    assert perf.counter("store.t.miss") == misses + 1


def test_disabled_store_never_touches_disk(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    handle = store.get_store()
    assert not handle.enabled
    assert not handle.put("t", digest("k"), 1)
    assert handle.get("t", digest("k")) is None
    assert handle.evict() == 0


def test_get_store_reresolves_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
    first = store.get_store()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
    second = store.get_store()
    assert first.root != second.root


def test_get_store_reresolves_max_bytes(tmp_path, monkeypatch):
    # Regression: the staleness check used to watch only REPRO_CACHE_DIR,
    # so re-capping the store via the environment silently kept the old
    # cap on the process-wide handle.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1000")
    assert store.get_store().max_bytes == 1000
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "2000")
    assert store.get_store().max_bytes == 2000
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
    assert store.get_store().max_bytes == store._DEFAULT_MAX_BYTES


def test_fetch_distinguishes_stored_none_from_miss(tmp_store):
    d = digest("none-key")
    assert tmp_store.fetch("t", d) == (False, None)
    assert tmp_store.put("t", d, None)
    assert tmp_store.fetch("t", d) == (True, None)
    # get() keeps its historical None-on-miss contract.
    assert tmp_store.get("t", d) is None


def test_store_disabled_context_blocks_disk_and_restores(tmp_store):
    digest_k = digest("ctx-key")
    assert tmp_store.put("t", digest_k, {"v": 1})
    with store.store_disabled():
        assert not store.get_store().enabled
        assert store.get_store().get("t", digest_k) is None
    assert store.get_store().get("t", digest_k) == {"v": 1}


def test_unpicklable_value_is_skipped_not_raised(tmp_store):
    before = perf.counter("store.t.unpicklable")
    assert not tmp_store.put("t", digest("k"), lambda: None)
    assert perf.counter("store.t.unpicklable") == before + 1


# ---------------------------------------------------------------------------
# Robustness: corruption and version skew are misses, not crashes
# ---------------------------------------------------------------------------


def test_corrupted_entry_is_a_miss_and_gets_unlinked(tmp_store):
    d = digest("k")
    assert tmp_store.put("t", d, [1, 2, 3])
    path = tmp_store._path("t", d)
    path.write_bytes(b"\x80\x04 this is not a pickle")
    errors = perf.counter("store.t.error")
    assert tmp_store.get("t", d) is None
    assert perf.counter("store.t.error") == errors + 1
    assert not path.exists()  # poisoned entry swept
    # ... and the *next* read is a plain miss, not another error.
    assert tmp_store.get("t", d) is None
    assert perf.counter("store.t.error") == errors + 1


def test_truncated_entry_is_a_miss(tmp_store):
    d = digest("k")
    assert tmp_store.put("t", d, list(range(1000)))
    path = tmp_store._path("t", d)
    path.write_bytes(path.read_bytes()[:20])
    assert tmp_store.get("t", d) is None
    assert not path.exists()


def test_payload_format_version_mismatch_is_a_miss(tmp_store):
    d = digest("k")
    path = tmp_store._path("t", d)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps(
        {"format": store.FORMAT_VERSION + 1, "key": d, "value": "stale"}
    ))
    assert tmp_store.get("t", d) is None
    assert not path.exists()


def test_format_version_bump_orphans_old_entries(tmp_store, monkeypatch):
    d = digest("k")
    assert tmp_store.put("t", d, "old-format")
    monkeypatch.setattr(store, "FORMAT_VERSION", store.FORMAT_VERSION + 1)
    # The versioned path no longer exists: a plain miss, no error.
    errors = perf.counter("store.t.error")
    assert tmp_store.get("t", d) is None
    assert perf.counter("store.t.error") == errors


def test_key_collision_header_check(tmp_store):
    # An entry whose header key disagrees with its path digest (e.g. a
    # buggy writer) must not be served under the wrong key.
    d = digest("k")
    path = tmp_store._path("t", d)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps(
        {"format": store.FORMAT_VERSION, "key": digest("other"), "value": 1}
    ))
    assert tmp_store.get("t", d) is None


# ---------------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------------


def test_eviction_is_lru_and_bounded(tmp_path):
    handle = store.ArtifactStore(root=tmp_path / "s", max_bytes=1 << 40)
    payload = b"x" * 2000
    digests = [digest(f"k{i}") for i in range(6)]
    for i, d in enumerate(digests):
        assert handle.put("t", d, payload)
        path = handle._path("t", d)
        os.utime(path, (1_000_000 + i, 1_000_000 + i))  # deterministic LRU
    total = handle.size_bytes()
    per_entry = total // len(digests)
    removed = handle.evict(target_bytes=per_entry * 2)
    assert removed == 4
    assert handle.size_bytes() <= per_entry * 2
    # The most recently used entries survive.
    assert handle.get("t", digests[-1]) == payload
    assert handle.get("t", digests[-2]) == payload
    assert handle.get("t", digests[0]) is None


def test_put_triggers_opportunistic_eviction(tmp_path, monkeypatch):
    monkeypatch.setattr(store, "_EVICT_EVERY", 1)
    handle = store.ArtifactStore(root=tmp_path / "s", max_bytes=4000)
    for i in range(8):
        handle.put("t", digest(f"k{i}"), b"y" * 1500)
    assert handle.size_bytes() <= 4000


def test_large_blob_eviction_is_rate_limited(tmp_path):
    # Regression: once a single blob exceeded max_bytes // 64, *every*
    # put ran a full-store eviction scan — quadratic for workloads whose
    # artifacts are all "large" (replay skeletons routinely are). Large
    # blobs now burn _LARGE_BLOB_WEIGHT put-credits instead, so a stream
    # of them scans every _EVICT_EVERY // _LARGE_BLOB_WEIGHT puts.
    handle = store.ArtifactStore(root=tmp_path / "s", max_bytes=64 * 64)
    blob = b"z" * 200  # > max_bytes // 64 == 64: a "large" blob
    puts = 12
    scans_before = perf.counter("store.evict_scan")
    for i in range(puts):
        assert handle.put("t", digest(f"big{i}"), blob)
    scans = perf.counter("store.evict_scan") - scans_before
    expected = puts * store._LARGE_BLOB_WEIGHT // store._EVICT_EVERY
    assert scans == expected
    assert scans < puts  # the old behaviour: one scan per put


def test_small_blob_eviction_cadence_unchanged(tmp_path):
    handle = store.ArtifactStore(root=tmp_path / "s", max_bytes=1 << 30)
    scans_before = perf.counter("store.evict_scan")
    for i in range(store._EVICT_EVERY * 2):
        assert handle.put("t", digest(f"small{i}"), b"x")
    assert perf.counter("store.evict_scan") - scans_before == 2


def test_concurrent_writers_and_evictors_never_break_readers(tmp_path):
    # Two writer threads race put() on the same digest while an evictor
    # repeatedly unlinks everything and a reader polls. The invariants
    # pinned: reads never raise (atomic os.replace means a reader sees a
    # whole old value, a whole new value, or a clean miss) and once the
    # dust settles the last writer's value is served.
    handle = store.ArtifactStore(root=tmp_path / "s", max_bytes=1 << 30)
    d = digest("contended")
    rounds = 150
    valid = {("w", i) for i in range(rounds)} | {("v", i) for i in range(rounds)}
    failures: list = []
    stop = threading.Event()

    def writer(tag):
        for i in range(rounds):
            handle.put("t", d, (tag, i))

    def evictor():
        while not stop.is_set():
            handle.evict(target_bytes=0)

    def reader():
        while not stop.is_set():
            try:
                found, value = handle.fetch("t", d)
            except Exception as exc:  # the invariant under test
                failures.append(exc)
                return
            if found and value not in valid:
                failures.append(ValueError(f"torn read: {value!r}"))
                return

    threads = [
        threading.Thread(target=writer, args=("w",)),
        threading.Thread(target=writer, args=("v",)),
        threading.Thread(target=evictor),
        threading.Thread(target=reader),
    ]
    for t in threads:
        t.start()
    threads[0].join()
    threads[1].join()
    stop.set()
    for t in threads[2:]:
        t.join()
    assert not failures
    # Last writer wins: with racing over, one more put is authoritative.
    handle.put("t", d, ("final", 0))
    assert handle.fetch("t", d) == (True, ("final", 0))


def test_evict_sweeps_stale_tmp_files(tmp_path):
    handle = store.ArtifactStore(root=tmp_path / "s", max_bytes=1 << 40)
    handle.put("t", digest("k"), 1)
    shard = handle._path("t", digest("k")).parent
    stale = shard / ".tmp-stale.pkl"
    stale.write_bytes(b"partial")
    os.utime(stale, (1, 1))
    handle.evict()
    assert not stale.exists()


# ---------------------------------------------------------------------------
# The write path: one open, one write, one rename
# ---------------------------------------------------------------------------


def _tmp_files(root: Path) -> list:
    return sorted(root.rglob(".tmp-*"))


def test_put_creates_missing_shard_directories(tmp_path):
    root = tmp_path / "fresh"
    handle = store.ArtifactStore(root=root, max_bytes=1 << 40)
    assert not root.exists()
    digests = [digest(f"k{i}") for i in range(6)]
    for i, d in enumerate(digests):
        assert handle.put(f"c{i % 2}", d, i)
    for i, d in enumerate(digests):
        assert handle._path(f"c{i % 2}", d).is_file()
        assert handle.fetch(f"c{i % 2}", d) == (True, i)
    assert not _tmp_files(root)


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_failed_put_leaves_no_temp_file(tmp_path, monkeypatch, failing):
    handle = store.ArtifactStore(root=tmp_path / "s", max_bytes=1 << 40)
    assert handle.put("t", digest("warm"), 0)  # the shard dir exists
    errors = perf.counter("store.t.write_error")
    puts = perf.counter("store.t.put")

    def boom(*args):
        raise OSError(28, "No space left on device")

    d = digest("k")
    with monkeypatch.context() as m:
        m.setattr(os, failing, boom)
        assert not handle.put("t", d, list(range(100)))
        assert not handle.put("t", digest("other shard"), 1)
    assert perf.counter("store.t.write_error") == errors + 2
    assert perf.counter("store.t.put") == puts
    assert not _tmp_files(tmp_path / "s")
    assert handle.fetch("t", d) == (False, None)


def test_short_write_is_a_write_error(tmp_path, monkeypatch):
    handle = store.ArtifactStore(root=tmp_path / "s", max_bytes=1 << 40)
    real_write = os.write
    errors = perf.counter("store.t.write_error")
    with monkeypatch.context() as m:
        m.setattr(os, "write", lambda fd, data: real_write(fd, data[:3]))
        assert not handle.put("t", digest("k"), list(range(100)))
    assert perf.counter("store.t.write_error") == errors + 1
    assert not _tmp_files(tmp_path / "s")
    assert handle.fetch("t", digest("k")) == (False, None)


def test_threads_putting_the_same_digests_leave_valid_entries(tmp_path):
    # More writers than cores, switching often: two threads that drew
    # the same temp name would fail O_EXCL (a write_error) or rename
    # each other's half-written file into place.
    handle = store.ArtifactStore(root=tmp_path / "s", max_bytes=1 << 40)
    digests = [digest(f"shared{i}") for i in range(24)]
    failures: list = []

    def writer():
        for d in digests:
            if not handle.put("t", d, ("value", d)):
                failures.append(d)

    threads = [threading.Thread(target=writer)
               for _ in range((os.cpu_count() or 1) + 4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    hits = perf.counter("store.t.hit")
    for d in digests:
        assert handle.fetch("t", d) == (True, ("value", d))
    assert perf.counter("store.t.hit") == hits + len(digests)
    assert not _tmp_files(tmp_path / "s")
    assert handle.entry_count() == len(digests)


# ---------------------------------------------------------------------------
# SpillDict: the perf-cache disk tier
# ---------------------------------------------------------------------------


@pytest.fixture
def spill(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    name = "t_spill"
    mapping = perf.register_cache(
        name, {}, persistent=True,
        key_fn=lambda key: None if key == "volatile" else f"t|{key}",
    )
    yield mapping
    perf._caches.pop(name, None)


def test_spilldict_clear_is_memory_only(spill):
    spill["k"] = {"v": 1}
    spill.clear()
    assert len(spill) == 0
    hits = perf.counter("store.t_spill.hit")
    assert spill["k"] == {"v": 1}  # reloaded from disk
    assert perf.counter("store.t_spill.hit") == hits + 1
    assert len(spill) == 1  # loaded back into the memory tier


def test_spilldict_unpersistable_key_stays_memory_only(spill):
    spill["volatile"] = 123
    assert spill["volatile"] == 123
    spill.clear()
    with pytest.raises(KeyError):
        spill["volatile"]


def test_spilldict_respects_caches_disabled(spill):
    spill["k"] = 1
    spill.clear()
    with perf.caches_disabled():
        assert spill.get("k") is None  # no disk fallthrough while off
    assert spill.get("k") == 1


def test_spilldict_contains_and_delete(spill):
    spill["k"] = 1
    assert "k" in spill
    del spill["k"]
    # Deletion drops the memory tier; the disk tier still answers (the
    # store is shared state, deletion of shared artifacts is eviction's
    # job) — documented behaviour, pinned here.
    assert spill.get("k") == 1


def test_spilldict_none_value_roundtrips_through_disk_tier(spill):
    # Regression: ArtifactStore.get returned None for both "stored None"
    # and "miss", so a legitimately cached None was re-fetched (and
    # re-put) forever. The disk tier now answers through fetch()'s
    # (found, value) protocol.
    spill["k"] = None
    puts = perf.counter("store.t_spill.put")
    spill.clear()  # memory gone; disk must still answer
    assert "k" in spill
    assert spill.get("k", "MISS") is None
    assert spill["k"] is None
    # Loading it back is a store hit, not a rebuild-and-re-put.
    assert perf.counter("store.t_spill.put") == puts


def test_spilldict_pop_is_memory_tier_only(spill):
    spill["k"] = {"v": 1}
    assert spill.pop("k") == {"v": 1}
    assert "k" not in spill._mem
    # The disk copy survives (removal never reaches the shared store)
    # but pop must not resurrect it: a key that is only on disk is
    # absent as far as pop is concerned.
    hits = perf.counter("store.t_spill.hit")
    with pytest.raises(KeyError):
        spill.pop("k")
    assert spill.pop("k", "fallback") == "fallback"
    assert perf.counter("store.t_spill.hit") == hits  # disk never consulted
    # ...while lookups still fall through to the store as ever.
    assert spill["k"] == {"v": 1}


def test_spilldict_popitem_is_memory_tier_only(spill):
    spill["a"] = 1
    spill.clear()  # "a" now exists only on disk
    spill["b"] = 2
    assert spill.popitem() == ("b", 2)
    with pytest.raises(KeyError):
        spill.popitem()  # memory empty; the disk-tier "a" must not leak


def test_register_cache_requires_key_fn_for_persistence():
    with pytest.raises(ValueError):
        perf.register_cache("t_bad", {}, persistent=True)
    perf._caches.pop("t_bad", None)


# ---------------------------------------------------------------------------
# cache_stats: entries, hit rates, byte estimates, store counters
# ---------------------------------------------------------------------------


def test_cache_stats_reports_persistent_flag_and_store_counters(spill):
    spill["k"] = {"v": 1}
    spill.clear()
    assert spill["k"] == {"v": 1}  # one store hit
    stats = perf.cache_stats()["t_spill"]
    assert stats["persistent"] is True
    assert stats["entries"] == 1
    assert stats["store_hits"] >= 1
    assert stats["store_puts"] >= 1
    assert stats["est_bytes"] > 0


def test_cache_stats_plain_dict_is_not_persistent():
    name = "t_plain"
    mapping = perf.register_cache(name, {})
    try:
        mapping["a"] = [1.0] * 100
        mapping["b"] = [2.0] * 100
        stats = perf.cache_stats()[name]
        assert stats["persistent"] is False
        assert "store_hits" not in stats
        assert stats["entries"] == 2
        assert stats["est_bytes"] > 0
    finally:
        perf._caches.pop(name, None)


def test_estimate_bytes_exact_for_numpy_arrays():
    np = pytest.importorskip("numpy")
    arr = np.zeros(1024, dtype=np.float64)
    est = perf._estimate_bytes(arr)
    assert est >= arr.nbytes
    assert est <= arr.nbytes + 256


def test_estimate_bytes_recurses_containers_with_cycles():
    inner: list = [1, 2, 3]
    inner.append(inner)  # cycle must not recurse forever
    assert perf._estimate_bytes({"k": inner}) > 0


# ---------------------------------------------------------------------------
# Two processes, one store
# ---------------------------------------------------------------------------

#: One replay run of gauss_seidel (wrapped columns, Optimized I, N=64,
#: S=8) in a fresh interpreter; prints what it put to and found in the
#: store as one JSON line.
REPLAY_RUN = """
import json
from repro import perf
from repro.apps import gauss_seidel
from repro.core.compiler import compile_program_cached
from repro.core.runner import execute
from repro.machine import MachineParams
from repro.spmd.layout import make_full
from repro.tune.space import STRATEGIES, retarget_source

strategy, opt_level = STRATEGIES["optI"]
compiled = compile_program_cached(
    retarget_source(gauss_seidel.SOURCE, "wrapped_cols"),
    strategy=strategy, opt_level=opt_level,
    entry_shapes={"Old": ("N", "N")}, assume_nprocs_min=2,
)
outcome = execute(
    compiled, 8, inputs={"Old": make_full((64, 64), 1, name="Old")},
    params={"N": 64}, machine=MachineParams.ipsc2(),
    extra_globals={"blksize": 4}, backend="replay",
)
print(json.dumps({
    "backend": outcome.spmd.backend,
    "puts": {name: entry.get("store_puts", 0)
             for name, entry in perf.cache_stats().items()
             if entry["persistent"]},
    "hits": {name: perf.counter(f"store.{name}.hit")
             for name in ("compile", "replay_skeleton")},
    "extracted": perf.counter("replay_skeleton.miss"),
}))
"""


def test_a_second_process_starts_warm(tmp_path):
    """The first process persists its compilation and its skeleton; a
    second one with the same store loads both and extracts nothing."""
    pytest.importorskip("numpy")  # the replay backend's
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "store"),
               PYTHONPATH=str(Path(repro.__file__).parents[1]))

    def run() -> dict:
        done = subprocess.run([sys.executable, "-c", REPLAY_RUN], env=env,
                              capture_output=True, text=True, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    first = run()
    assert first["puts"].get("compile") and first["puts"].get(
        "replay_skeleton"), first
    second = run()
    assert second["backend"] == "replay"
    assert all(second["hits"].values()), second
    assert second["extracted"] == 0, second
