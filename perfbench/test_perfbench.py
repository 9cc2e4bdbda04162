"""Smoke tests for the benchmark itself (quick sizes, one timed round).

Outside tier-1 ``testpaths``; run explicitly:

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

import cProfile
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, layers
from perfbench.__main__ import end_to_end
from perfbench.workloads import WHY

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_contract_names_every_workload_with_its_reason():
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == WHY
    assert CONTRACT["paths"] == ["perfbench"]
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower",
              "bound": m["bound"]}
        for m in CONTRACT["end_to_end"]
    )


@pytest.mark.parametrize("name", list(WHY))
def test_quick_run_is_correct_and_complete(name):
    result = harness.run_workload(name, rounds=1, quick=True)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == 2 * result["jobs"]  # profiled + timed
    metrics = end_to_end(result)
    wanted = [m["name"] for m in CONTRACT["end_to_end"]] + ["failed_frac"]
    assert sorted(metrics) == sorted(wanted)
    for m in CONTRACT["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    assert not harness.WORK.exists()  # temp stores removed


def test_traced_run_reports_every_layer_metric_and_covers_the_wall():
    result = harness.run_workload("replay_fresh", trace=1, quick=True)
    assert result["failed"] == 0, result["failures"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in CONTRACT["per_layer"])
    assert metrics["ledger.coverage"]["value"] >= 0.95
    assert metrics["replay.skeleton.calls"]["value"] == result["jobs"]
    assert metrics["store.put_mb"]["value"] > 0
    calls = sum(metrics[f"pycalls.{p}"]["value"] for p in layers.PACKAGES)
    assert calls > 0 and metrics["pycalls.replay"]["value"] > 0


def test_drifted_or_unpinned_statistics_fail_the_job():
    from perfbench.workloads import compare

    pinned = {"makespan_us": 690.0, "messages": 12}
    assert compare({"makespan_us": 690.0, "messages": 12, "x": 1}, pinned) is None
    assert "messages 13" in compare({"makespan_us": 690.0, "messages": 13}, pinned)
    assert compare({"messages": 12}, None) == "no golden entry"


def test_call_attribution_sums_to_total_calls():
    from repro.lang import parse_program
    from repro.apps import jacobi

    profile = cProfile.Profile()
    profile.enable()
    parse_program(jacobi.SOURCE_WRAPPED)
    profile.disable()
    total, buckets = layers.attribute_calls(profile)
    assert sum(buckets.values()) == total
    assert buckets["lang"] > 0.9 * total


def test_span_self_times_sum_to_the_outer_span():
    from repro.core import compiler
    from repro.apps import jacobi

    tracer = layers.Tracer()
    tracer.install()
    try:
        tracer.job = "one"
        compiler.compile_program(
            jacobi.SOURCE_WRAPPED, entry_shapes={"Old": ("N", "N")}
        )
    finally:
        tracer.uninstall()
    assert compiler.compile_program.__name__ == "compile_program"
    assert not hasattr(compiler.compile_program, "__wrapped__")
    ledger = tracer.ledger()
    outer = next(s for s in tracer.spans if s[0] == "core.compiler")
    total = sum(v for k, v in ledger.items() if k.endswith(".self_ms"))
    assert total == pytest.approx((outer[2] - outer[1]) * 1e3)
    assert ledger["lang.parser.calls"] == 1


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune_rank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
