"""The one cache protocol: ``perf.memo`` / ``lookup`` / ``insert`` and
the one canonicaliser, ``perf.stable_key``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import perf

NAME = "t_memo"


@pytest.fixture
def cache():
    mapping = perf.register_cache(NAME, {})
    before = perf.counter(f"{NAME}.hit"), perf.counter(f"{NAME}.miss")

    def counts():
        return (
            perf.counter(f"{NAME}.hit") - before[0],
            perf.counter(f"{NAME}.miss") - before[1],
        )

    yield mapping, counts
    perf._caches.pop(NAME, None)


def builder(value):
    calls = []

    def build():
        calls.append(1)
        return value

    return build, calls


def test_counters_carry_the_registered_name(cache):
    mapping, counts = cache
    build, calls = builder("v")
    assert perf.memo(NAME, "k", build) == "v"
    assert counts() == (0, 1)
    assert perf.memo(NAME, "k", build) == "v"
    assert counts() == (1, 1)
    assert len(calls) == 1 and mapping == {"k": "v"}
    assert perf.cache_stats()[NAME]["hits"] == perf.counter(f"{NAME}.hit")


@pytest.mark.parametrize("value", (None, False, 0, ()))
def test_a_cached_falsy_value_is_a_hit(cache, value):
    _, counts = cache
    build, calls = builder(value)
    assert perf.memo(NAME, "k", build) is value
    assert perf.memo(NAME, "k", build) is value
    assert len(calls) == 1 and counts() == (1, 1)
    assert perf.lookup(NAME, "k") is value
    assert perf.lookup(NAME, "other") is perf.MISSING
    assert counts() == (2, 2)


def test_unhashable_key_builds_every_time_and_counts_nothing(cache):
    mapping, counts = cache
    build, calls = builder("v")
    key = ("program", {"unhashable": 1})
    assert perf.memo(NAME, key, build) == "v"
    assert perf.memo(NAME, key, build) == "v"
    assert perf.lookup(NAME, key) is perf.MISSING
    perf.insert(NAME, key, "v")
    assert len(calls) == 2 and counts() == (0, 0) and not mapping


def test_disabled_caches_are_neither_read_nor_written(cache):
    mapping, counts = cache
    perf.insert(NAME, "k", "stale")
    build, calls = builder("fresh")
    with perf.caches_disabled():  # also empties every table
        assert perf.memo(NAME, "k", build) == "fresh"
        assert perf.memo(NAME, "k", build) == "fresh"
        assert perf.lookup(NAME, "k") is perf.MISSING
        perf.insert(NAME, "k", "fresh")
        assert not mapping
    assert len(calls) == 2 and counts() == (0, 0)


def test_an_exception_in_build_caches_nothing(cache):
    mapping, counts = cache

    def build():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        perf.memo(NAME, "k", build)
    assert not mapping and counts() == (0, 1)
    assert perf.memo(NAME, "k", lambda: 7) == 7


def test_lookup_then_insert_is_memo_in_two_steps(cache):
    mapping, counts = cache
    assert perf.lookup(NAME, "k") is perf.MISSING
    perf.insert(NAME, "k", None)
    assert perf.lookup(NAME, "k") is None
    assert counts() == (1, 1) and mapping == {"k": None}


def test_memo_round_trips_a_persistent_cache_through_disk(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    mapping = perf.register_cache(
        NAME, {}, persistent=True, key_fn=perf.stable_key("t|s1")
    )
    try:
        build, calls = builder({"rows": [1, 2, 3]})
        key = ("source text", 4)
        assert perf.memo(NAME, key, build) == {"rows": [1, 2, 3]}
        mapping.clear()  # a fresh process: memory tier gone, store primed
        assert len(mapping) == 0
        hits = perf.counter(f"store.{NAME}.hit")
        assert perf.memo(NAME, key, build) == {"rows": [1, 2, 3]}
        assert len(calls) == 1
        assert perf.counter(f"store.{NAME}.hit") == hits + 1
        # A key whose repr leaks an address memoizes in memory only.
        leaky = ("k", object())
        puts = perf.counter(f"store.{NAME}.put")
        assert perf.memo(NAME, leaky, lambda: 1) == 1
        assert perf.counter(f"store.{NAME}.put") == puts
        assert leaky in mapping
    finally:
        perf._caches.pop(NAME, None)


@pytest.mark.parametrize("name", ["spmd_compile", "walk_code"])
def test_the_program_to_closure_tables_follow_the_protocol(name):
    from repro.spmd import NodeProc, NodeProgram, compiled_node
    from repro.spmd.ir import NMyNode, NReturn
    from repro.spmd.walk import walk_code

    build = {"spmd_compile": compiled_node, "walk_code": walk_code}[name]
    program = NodeProgram(
        "tiny", {"main": NodeProc("main", (), body=(NReturn(NMyNode()),))},
        "main",
    )
    perf.reset(clear_cache_tables=True)
    first = build(program)
    assert build(program) is first
    stats = perf.cache_stats()[name]
    assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)
    perf.reset(clear_cache_tables=True)
    assert perf.cache_sizes()[name] == 0
    assert build(program) is not first  # really compiled again
    with perf.caches_disabled():
        assert build(program) is not build(program)
        assert perf.cache_sizes()[name] == 0
    assert perf.counter(f"{name}.miss") == 1 and not perf.counter(f"{name}.hit")
    perf.reset(clear_cache_tables=True)


def test_stable_key_refuses_leaked_addresses_and_broken_reprs():
    key_fn = perf.stable_key("tag|s2")
    assert key_fn(("src", 4, None)) == "tag|s2|('src', 4, None)"
    assert key_fn(("src", object())) is None
    assert key_fn(("src", lambda: 0)) is None
    # Prose that merely mentions an address is not an object repr.
    assert key_fn("# jump at 0x10 and back") is not None

    class Broken:
        def __repr__(self):
            raise RuntimeError("no repr")

    assert key_fn((Broken(),)) is None


_KEY_SCRIPT = """
from repro import perf
from repro.apps import gauss_seidel as gs
from repro.core.compiler import OptLevel, Strategy, compile_program
from repro.machine import MachineParams
from repro.spmd.walk import ARRAY, UNKNOWN
compiled = compile_program(
    gs.SOURCE, strategy=Strategy.COMPILE_TIME, opt_level=OptLevel.STRIPMINE,
    entry_shapes={"Old": ("N", "N")}, assume_nprocs_min=2,
)
key = (compiled.program, 4, MachineParams.ipsc2(),
       (("N", 12), ("blksize", 4)), ((ARRAY, UNKNOWN),))
print(perf.stable_key("verify")(key))
"""


def test_stable_key_of_a_compiled_program_survives_the_hash_seed(tmp_path):
    def canonical(seed):
        env = dict(
            os.environ, PYTHONHASHSEED=seed,
            REPRO_CACHE_DIR=str(tmp_path / "store"),
            PYTHONPATH=str(Path(repro.__file__).parents[1]),
        )
        return subprocess.run(
            [sys.executable, "-c", _KEY_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout

    first, second = canonical("1"), canonical("2")
    assert first == second
    assert first.startswith("verify|(/* SPMD program:")
    assert "ARRAY, UNKNOWN" in first and " at 0x" not in first
