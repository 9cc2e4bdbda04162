"""The compact skeleton: one table per program, expanded once in numpy.

``columnize`` packs every rank's walker rows — repeat markers included —
into one table; ``ProgramSkeleton`` expands it with a fixed number of
numpy calls and pickles only the table. Checked here: the numpy
expansion against the plain-Python meaning of the marker
(``repro.machine.rows.expand``) on random flat streams, the pickle
round-trip, the validation that keeps a corrupt store entry from being
expanded, the bumped persistent key, and the exact byte accounting.
"""

import pickle

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf, store
from repro.machine.rows import KIND_REPEAT, expand
from repro.replay import ProgramSkeleton, extract_skeletons
from repro.replay.skeleton import _skeleton_cache, columnize
from tests.machine.test_rows import flat_stream
from tests.spmd.test_walk_repeat import NESTED

NAMES = ("kind", "peer", "chan", "plen", "ops", "mems")


def zipped(rank_skeleton):
    return list(zip(*(
        getattr(rank_skeleton, name).tolist() for name in NAMES
    )))


@settings(max_examples=200, deadline=None)
@given(st.lists(flat_stream(), min_size=1, max_size=5))
def test_numpy_expansion_is_expand_row_for_row(per_rank_rows):
    nprocs = len(per_rank_rows)
    skeleton = columnize(nprocs, ("a", "b", "c", "d"), per_rank_rows)
    expected = [expand(rows) for rows in per_rank_rows]
    assert [zipped(rs) for rs in skeleton.ranks] == expected
    assert [len(rs) for rs in skeleton.ranks] == [len(e) for e in expected]
    assert skeleton.total_events == sum(len(e) for e in expected)
    assert skeleton.compact_rows() == per_rank_rows
    compact = sum(len(rows) for rows in per_rank_rows)
    assert skeleton.nbytes == (
        (1 + 4 + 4 + 8 + 8 + 8) * (compact + skeleton.total_events)
        + 8 * (nprocs + 1)
    )

    loaded = pickle.loads(pickle.dumps(skeleton, pickle.HIGHEST_PROTOCOL))
    assert (loaded.nprocs, loaded.channels) == (nprocs, skeleton.channels)
    assert loaded.total_events == skeleton.total_events
    assert loaded.nbytes == skeleton.nbytes
    assert loaded.compact_rows() == per_rank_rows
    for mine, theirs in zip(loaded.ranks, skeleton.ranks):
        for name in NAMES:
            got, want = getattr(mine, name), getattr(theirs, name)
            assert got.dtype == want.dtype and (got == want).all(), name


def nested_skeleton():
    return extract_skeletons(NESTED, 3, lambda rank: [], {})


def test_only_the_compact_table_is_pickled():
    skeleton = nested_skeleton()
    assert skeleton.total_events == 3 * 81
    assert len(skeleton.table[0]) == 3 * 37
    arrays = [x for x in skeleton.__getstate__() if isinstance(x, np.ndarray)]
    assert len(arrays) <= 8
    assert sum(a.shape[0] for a in arrays) == 6 * 3 * 37 + 4
    # A plan hung on the skeleton by a replay is not part of its state.
    from repro.replay import replay

    replay(skeleton)
    assert len(pickle.dumps(skeleton, -1)) < 33 * 3 * 37 + 1024


def _state(edit):
    """The nested skeleton's pickled state after ``edit(state)``, where
    ``state`` is ``[nprocs, channels, total, offsets, *columns]`` with
    fresh copies of the arrays."""
    state = [
        x.copy() if isinstance(x, np.ndarray) else x
        for x in nested_skeleton().__getstate__()
    ]
    edit(state)
    return tuple(state)


def _first_marker(state):
    return int(np.flatnonzero(state[4] == KIND_REPEAT)[0])


def span_past_rank_start(state):
    state[8][_first_marker(state)] = 9  # the marker is row 8 of rank 0


def span_past_later_rank_start(state):
    first_of_rank_1 = int(state[3][1]) + 8
    assert state[4][first_of_rank_1] == KIND_REPEAT
    state[8][first_of_rank_1] = 9


def zero_span(state):
    state[8][_first_marker(state)] = 0


def zero_count(state):
    state[9][_first_marker(state)] = 0


def giant_count(state):
    state[9][_first_marker(state)] = 2 ** 40


def wrapping_count(state):
    state[9][_first_marker(state)] = 2 ** 62


def marker_inside_a_span(state):
    second = int(np.flatnonzero(state[4] == KIND_REPEAT)[1])
    state[8][second] = 9  # reaches back over the first marker


def offsets_not_monotone(state):
    state[3][1], state[3][2] = state[3][2], state[3][1]


def offsets_short_of_the_table(state):
    state[3][-1] -= 1


def truncated_column(state):
    state[7] = state[7][:-1]


def wrong_dtype(state):
    state[5] = state[5].astype(np.int64)


def missing_column(state):
    del state[-1]


def count_off_by_one(state):
    state[9][_first_marker(state)] += 1


CORRUPTIONS = (
    span_past_rank_start, span_past_later_rank_start, zero_span,
    zero_count, giant_count, wrapping_count, marker_inside_a_span,
    offsets_not_monotone, offsets_short_of_the_table, truncated_column,
    wrong_dtype, missing_column, count_off_by_one,
)


@pytest.mark.parametrize("edit", CORRUPTIONS, ids=lambda f: f.__name__)
def test_setstate_rejects_before_expanding(edit):
    blank = ProgramSkeleton.__new__(ProgramSkeleton)
    with pytest.raises(ValueError):
        blank.__setstate__(_state(edit))
    assert not hasattr(blank, "ranks")


def test_setstate_accepts_what_getstate_wrote():
    blank = ProgramSkeleton.__new__(ProgramSkeleton)
    blank.__setstate__(_state(lambda state: None))
    assert blank.total_events == 3 * 81


@pytest.fixture
def private_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    perf.clear_caches()
    yield store.get_store()
    perf.clear_caches()


def _counters():
    return {
        name: perf.counter(f"store.replay_skeleton.{name}")
        for name in ("hit", "miss", "put", "error")
    }


def _delta(before):
    return {
        name: value - before[name] for name, value in _counters().items()
    }


def _entry(handle):
    (path,) = (handle.root / f"v{store.FORMAT_VERSION}"
               / "replay_skeleton").glob("*/*.pkl")
    return path


class _Raw:
    """Pickles as a ``ProgramSkeleton`` with exactly the given state."""

    def __init__(self, state):
        self.state = state

    def __reduce__(self):
        return (ProgramSkeleton.__new__, (ProgramSkeleton,), self.state)


@pytest.mark.parametrize(
    "edit", (span_past_rank_start, giant_count), ids=lambda f: f.__name__
)
def test_corrupt_store_entry_is_an_error_and_a_rebuild(private_store, edit):
    fresh = nested_skeleton()
    path = _entry(private_store)
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    blob = pickle.dumps(
        {**payload, "value": _Raw(_state(edit))}, pickle.HIGHEST_PROTOCOL
    )
    path.write_bytes(blob)

    perf.clear_caches()
    before = _counters()
    rebuilt = nested_skeleton()
    assert _delta(before) == {"hit": 0, "miss": 0, "put": 1, "error": 1}
    assert rebuilt.compact_rows() == fresh.compact_rows()
    assert rebuilt.total_events == fresh.total_events

    perf.clear_caches()  # ... and what it wrote back loads
    before = _counters()
    assert nested_skeleton().total_events == fresh.total_events
    assert _delta(before) == {"hit": 1, "miss": 0, "put": 0, "error": 0}


def test_truncated_store_entry_is_an_error_and_a_rebuild(private_store):
    fresh = nested_skeleton()
    path = _entry(private_store)
    path.write_bytes(path.read_bytes()[:-40])
    perf.clear_caches()
    before = _counters()
    assert nested_skeleton().total_events == fresh.total_events
    assert _delta(before) == {"hit": 0, "miss": 0, "put": 1, "error": 1}


def test_entry_under_the_old_tag_is_a_miss_not_a_load(private_store):
    nested_skeleton()
    (key,) = list(_skeleton_cache)
    new_path = _entry(private_store)
    # What the parent wrote: its own key tag, per-rank column objects.
    old_digest = store.key_digest(perf.stable_key("skeleton")(key))
    assert private_store.put(
        "replay_skeleton", old_digest,
        {"nprocs": 3, "channels": ("ring",), "ranks": ()},
    )
    new_path.unlink()

    perf.clear_caches()
    before = _counters()
    skeleton = nested_skeleton()
    assert _delta(before) == {"hit": 0, "miss": 1, "put": 1, "error": 0}
    assert isinstance(skeleton, ProgramSkeleton)
    assert skeleton.total_events == 3 * 81


def test_est_bytes_is_the_exact_sum_fresh_and_primed(private_store):
    def run():
        return [
            extract_skeletons(NESTED, nprocs, lambda rank: [], {})
            for nprocs in (2, 3, 4)
        ]

    fresh = run()
    fresh_bytes = perf.cache_stats()["replay_skeleton"]["est_bytes"]
    assert fresh_bytes == sum(skeleton.nbytes for skeleton in fresh)

    perf.clear_caches()
    before = _counters()
    primed = run()
    assert _delta(before)["hit"] == 3
    assert all(a is not b for a, b in zip(fresh, primed))
    assert perf.cache_stats()["replay_skeleton"]["est_bytes"] == fresh_bytes
