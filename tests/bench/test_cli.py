"""End-to-end tests for the bench CLI flags: --backend, --json,
--profile, and --jobs. Grids are tiny so every command is fast; the
simulated numbers themselves are covered by tests/bench/test_harness.py."""

import json

import pytest

from repro.bench.cli import main


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestBackendFlag:
    def test_backends_agree_on_fig6(self, capsys):
        outs = {
            backend: run_cli(
                capsys, "fig6", "--n", "8", "--procs", "2",
                "--backend", backend,
            )
            for backend in ("compiled", "interp")
        }
        assert outs["compiled"] == outs["interp"]
        assert "Figure 6" in outs["compiled"]

    def test_bad_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig6", "--n", "8", "--backend", "nonsense"])


class TestJsonFlag:
    def test_fig6_json_file(self, tmp_path, capsys):
        path = tmp_path / "fig6.json"
        run_cli(capsys, "fig6", "--n", "8", "--procs", "2,4",
                "--json", str(path))
        payload = json.loads(path.read_text())
        assert payload["figure"] == "fig6"
        assert payload["n"] == 8
        assert set(payload["series"]) == {
            "runtime", "compile", "optI", "handwritten"
        }
        for points in payload["series"].values():
            assert [p["nprocs"] for p in points] == [2, 4]
            for p in points:
                assert p["host_seconds"] >= 0.0
                assert p["compile_seconds"] >= 0.0
        assert "profile" not in payload  # only with --profile

    def test_json_to_stdout(self, capsys):
        out = run_cli(capsys, "fig7", "--n", "8", "--procs", "2",
                      "--json", "-")
        body = out[out.index("{"):]
        payload = json.loads(body)
        assert payload["figure"] == "fig7"


class TestProfileFlag:
    def test_profile_prints_phases_and_caches(self, capsys):
        out = run_cli(capsys, "fig6", "--n", "8", "--procs", "2",
                      "--profile")
        assert "-- profile --" in out
        assert "phase compile" in out
        assert "cache simplify" in out
        assert "intern" in out

    def test_profile_embedded_in_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        run_cli(capsys, "fig6", "--n", "8", "--procs", "2",
                "--profile", "--json", str(path))
        payload = json.loads(path.read_text())
        snap = payload["profile"]
        assert "compile" in snap["phases"]
        assert any(k.endswith(".hit") for k in snap["counters"])

    def test_no_profile_by_default(self, capsys):
        out = run_cli(capsys, "blocksize", "--n", "8", "--nprocs", "2")
        assert "-- profile --" not in out


class TestTraceCommand:
    def test_renders_full_report(self, capsys):
        out = run_cli(capsys, "trace", "--n", "10", "--nprocs", "2",
                      "--blksize", "2")
        assert "timeline" in out
        assert "utilization over makespan" in out
        assert "critical path:" in out
        assert "heatmap" in out

    def test_trace_out_writes_valid_chrome_json(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        path = tmp_path / "trace.json"
        out = run_cli(capsys, "trace", "--n", "10", "--nprocs", "2",
                      "--blksize", "2", "--trace-out", str(path))
        assert "perfetto" in out.lower()
        payload = json.loads(path.read_text())
        validate_chrome_trace(payload)
        assert payload["traceEvents"]

    @pytest.mark.parametrize("app", ["jacobi", "triangular"])
    def test_other_apps_supported(self, app, capsys):
        out = run_cli(capsys, "trace", "--app", app, "--n", "8",
                      "--nprocs", "2", "--strategy", "compile")
        assert "critical path:" in out

    def test_backends_agree_on_report(self, capsys):
        outs = {
            backend: run_cli(
                capsys, "trace", "--n", "8", "--nprocs", "2",
                "--blksize", "2", "--backend", backend,
            )
            for backend in ("compiled", "interp")
        }
        assert outs["compiled"] == outs["interp"]


class TestTuneCommand:
    ARGS = ["tune", "--n", "10", "--procs", "2,4",
            "--dists", "wrapped_cols,block_cols",
            "--strategies", "compile,optIII", "--blksizes", "2,4"]

    def test_prints_ranked_report(self, capsys):
        out = run_cli(capsys, *self.ARGS)
        assert "tune gauss_seidel (N=10)" in out
        assert "simulations=" in out
        assert "best:" in out
        # Pruning: the searched space is larger than the simulated set.
        assert "space=12" in out

    def test_json_payload(self, tmp_path, capsys):
        path = tmp_path / "BENCH_tune.json"
        run_cli(capsys, *self.ARGS, "--json", str(path))
        payload = json.loads(path.read_text())
        assert payload["command"] == "tune"
        assert payload["space_size"] == 12
        assert payload["simulations"] <= 3
        assert len(payload["candidates"]) == 12
        best = payload["best"]
        assert best is not None
        assert best["measured_us"] == best["predicted_us"]
        assert best["measured"]["messages"] == sum(
            best["predicted"]["per_channel"].values()
        )
        ranked = [
            c["predicted_us"] for c in payload["candidates"]
            if c["error"] is None
        ]
        assert ranked == sorted(ranked)

    def test_jacobi_app(self, capsys):
        out = run_cli(capsys, "tune", "--app", "jacobi", "--n", "8",
                      "--procs", "2", "--dists", "wrapped_cols",
                      "--strategies", "compile,optII", "--top-k", "1")
        assert "tune jacobi" in out
        # optII genuinely deadlocks on jacobi: the static verifier prunes
        # it with a DL001 diagnostic before any prediction or simulation.
        assert "verify: DL001" in out


class TestVerifyCommand:
    """`bench verify` exit codes are an API: 0 clean, 1 diagnostics
    (or compile failure), 2 usage error. CI scripts key on them."""

    def test_clean_config_exits_zero(self, capsys):
        out = run_cli(capsys, "verify", "--n", "8", "--nprocs", "4")
        assert "verify gauss_seidel" in out
        assert "clean: no diagnostics" in out

    def test_unsafe_config_exits_one(self, capsys):
        assert main(["verify", "--app", "jacobi", "--strategy", "optII",
                     "--n", "12", "--nprocs", "2"]) == 1
        out = capsys.readouterr().out
        assert "DL001" in out
        assert "cycle" in out or "waits for rank" in out

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--dist", "bogus", "--n", "8"])
        assert excinfo.value.code == 2
        assert "unknown distribution" in capsys.readouterr().err

    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "verify.json"
        run_cli(capsys, "verify", "--n", "8", "--nprocs", "4",
                "--json", str(path))
        payload = json.loads(path.read_text())
        assert payload["command"] == "verify"
        assert payload["app"] == "gauss_seidel"
        assert payload["error_count"] == 0
        assert payload["diagnostics"] == []

    def test_json_report_with_errors(self, tmp_path, capsys):
        path = tmp_path / "verify.json"
        assert main(["verify", "--app", "jacobi", "--strategy", "optII",
                     "--n", "12", "--nprocs", "2",
                     "--json", str(path)]) == 1
        payload = json.loads(path.read_text())
        assert payload["error_count"] >= 1
        assert any(d["code"] == "DL001" for d in payload["diagnostics"])


class TestIrregularCommand:
    """`bench irregular` exit codes: 0 all gates hold, 1 a gate fails,
    2 usage error."""

    def test_all_apps_table(self, capsys):
        out = run_cli(capsys, "irregular", "--n", "16", "--nprocs", "2")
        assert "strategy=inspector" in out
        for app in ("spmv", "histogram", "mesh"):
            assert app in out

    def test_single_app_json(self, tmp_path, capsys):
        path = tmp_path / "irregular.json"
        run_cli(capsys, "irregular", "--app", "histogram", "--n", "64",
                "--nprocs", "2", "--bins", "8", "--json", str(path))
        payload = json.loads(path.read_text())
        (point,) = payload["points"]
        assert point["app"] == "histogram"
        assert point["params"] == {"N": 64, "M": 8}
        # The reuse gates the command enforces, restated on the payload:
        # warm data traffic is exactly the schedule, replayed.
        assert point["data_messages"] == (
            point["site_executions"] * point["schedule_messages"]
        )
        assert point["warm_messages"] < point["cold_messages"]

    def test_cache_stats_embedded(self, tmp_path, capsys):
        path = tmp_path / "irregular.json"
        run_cli(capsys, "irregular", "--app", "mesh", "--n", "12",
                "--nprocs", "3", "--steps", "1", "--json", str(path))
        payload = json.loads(path.read_text())
        assert "cache_stats" in payload


class TestArgValidation:
    """Nonsense numeric arguments exit with code 2 and a one-line
    parser error, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig6", "--n", "0"], "--n must be a positive"),
            (["blocksize", "--nprocs", "-3"], "--nprocs must be a positive"),
            (["timeline", "--blksize", "0"], "--blksize must be a positive"),
            (["fig7", "--procs", "0,2"], "--procs entries must be positive"),
            (["fig7", "--procs", ""], "--procs must name at least one"),
            (["fig6", "--procs", "a,b"], "comma-separated list of integers"),
            (["fig6", "--jobs", "0"], "--jobs must be positive"),
            (["verify", "--blksize", "0"], "--blksize must be a positive"),
            (["tune", "--top-k", "0"], "--top-k must be positive"),
            (["tune", "--blksizes", "4,-1"], "--blksizes entries"),
            (["tune", "--strategies", "optIX"], "unknown strategy"),
            (["tune", "--dists", "bogus"], "unknown distribution"),
            (["tune", "--dists", ""], "empty search space: no dists"),
            (["tune", "--strategies", ""], "empty search space: no strat"),
            (["irregular", "--n", "0"], "--n must be a positive"),
            (["irregular", "--nprocs", "-2"], "--nprocs must be a positive"),
            (["irregular", "--nnz", "-1"], "--nnz must be a non-negative"),
            (["irregular", "--bins", "0"], "--bins must be a positive"),
            (["irregular", "--steps", "0"], "--steps must be a positive"),
            (["irregular", "--app", "bogus"], "invalid choice"),
        ],
    )
    def test_rejected_with_exit_code_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestNoIgnoredOptions:
    """A subcommand registers only the options it reads: one it would
    ignore, or an abbreviation of one it reads, exits 2 naming it."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "--procs", "1,3,4"], "--procs"),
            (["verify", "--backend", "interp"], "--backend"),
            (["verify", "--jobs", "2"], "--jobs"),
            (["maps", "--backend", "interp"], "--backend"),
            (["maps", "--procs", "2,4"], "--procs"),
            (["fig6", "--nprocs", "4"], "--nprocs"),
            (["speedup", "--backend", "interp"], "--backend"),
            (["msgcount", "--n", "16"], "--n"),
            (["blocksize", "--blksize", "4"], "--blksize"),
            (["tune", "--blksize", "4"], "--blksize"),
            (["tune", "--nprocs", "4"], "--nprocs"),
            (["replay", "--n", "16"], "--n"),
            (["irregular", "--backend", "interp"], "--backend"),
            (["timeline", "--json", "-"], "--json"),
        ],
    )
    def test_an_ignored_option_is_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        [line] = [ln for ln in err.splitlines() if "error:" in ln]
        assert line.endswith(f"unrecognized arguments: {' '.join(argv[1:])}")
        assert flag in line
        assert "Traceback" not in err
    def test_parallel_sweep_matches_serial(self, tmp_path, capsys):
        paths = {}
        for jobs in ("1", "2"):
            paths[jobs] = tmp_path / f"jobs{jobs}.json"
            run_cli(capsys, "fig6", "--n", "8", "--procs", "2,4",
                    "--jobs", jobs, "--json", str(paths[jobs]))

        def simulated(path):
            payload = json.loads(path.read_text())
            return {
                strategy: [
                    (p["time_us"], p["messages"], p["bytes"]) for p in points
                ]
                for strategy, points in payload["series"].items()
            }

        assert simulated(paths["1"]) == simulated(paths["2"])

    def test_worker_counters_merged(self, capsys):
        out = run_cli(capsys, "fig6", "--n", "8", "--procs", "2",
                      "--jobs", "2", "--profile")
        # All compilation happened in workers; the parent only sees it
        # through merged snapshots.
        assert "cache simplify" in out


class TestMapsCommand:
    @pytest.mark.parametrize(
        "app", ["gauss_seidel", "jacobi", "matmul", "triangular"]
    )
    def test_gate_holds_on_affine_suite(self, capsys, app):
        out = run_cli(capsys, "maps", "--app", app, "--n", "12")
        assert "-> ok" in out
        assert "6 candidates by predicted makespan" in out

    def test_json_payload(self, tmp_path, capsys):
        path = tmp_path / "maps.json"
        run_cli(capsys, "maps", "--app", "gauss_seidel", "--n", "12",
                "--json", str(path))
        payload = json.loads(path.read_text())
        assert payload["command"] == "maps"
        assert payload["gate"]["ok"] is True
        assert payload["gate"]["hand_in_derived"] is True
        assert payload["hand"]["dist"] == "wrapped_cols"
        for cand in payload["candidates"]:
            assert cand["predicted_us"] is None or cand["predicted_us"] > 0
            assert cand["rationale"]
        assert {d["code"] for d in payload["diagnostics"]} >= {"LOC001"}

    def test_json_lists_candidates_in_predicted_order(
        self, tmp_path, capsys, monkeypatch
    ):
        """Every layout of the family, cheapest predicted first; a
        candidate the model cannot price comes last."""
        import repro.tune.search as search
        from repro.errors import TuneError
        from repro.tune.space import DEFAULT_DISTS

        real = search.predict

        def predict(compiled, *args, **kwargs):
            if "block_rows" in map(str, compiled.spec.distributions.values()):
                raise TuneError("no estimate")
            return real(compiled, *args, **kwargs)

        monkeypatch.setattr(search, "predict", predict)
        path = tmp_path / "maps.json"
        run_cli(capsys, "maps", "--app", "jacobi", "--n", "12",
                "--json", str(path))
        cands = json.loads(path.read_text())["candidates"]
        assert sorted(c["dist"] for c in cands) == sorted(DEFAULT_DISTS)
        priced = [c["predicted_us"] for c in cands[:-1]]
        assert None not in priced and priced == sorted(priced)
        assert cands[-1]["dist"] == "block_rows"
        assert cands[-1]["predicted_us"] is None

    def test_bad_app_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["maps", "--app", "nonsense"])
        assert exc.value.code == 2


class TestTuneDefaults:
    def test_derived_maps_searched_and_named(self, tmp_path, capsys):
        path = tmp_path / "tune.json"
        out = run_cli(
            capsys, "tune", "--app", "jacobi", "--n", "8", "--top-k", "1",
            "--strategies", "compile", "--blksizes", "8",
            "--json", str(path),
        )
        assert "derived maps:" in out
        payload = json.loads(path.read_text())
        derived = [m["dist"] for m in payload["derived_maps"]]
        assert derived
        assert all(
            c["dist"] in derived for c in payload["candidates"]
        )

    def test_default_space_is_the_library_default(self, capsys):
        """Six derived layouts x (four strategies + optIII at one
        blksize): the CLI adds no inspector rows of its own."""
        out = run_cli(
            capsys, "tune", "--app", "gauss_seidel", "--n", "8",
            "--top-k", "1", "--blksizes", "8",
        )
        assert "space=30 " in out
        assert "inspector" not in out
