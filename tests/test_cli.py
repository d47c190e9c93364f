"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.agents == 10
        assert args.dataset == "cifar10"
        assert args.target == 0.9

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--dataset", "imagenet"])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for command in ("compare", "table1", "table2", "table3", "fig1", "fig3", "privacy"):
            args = parser.parse_args([command])
            assert callable(args.handler)


class TestMain:
    def test_compare_runs_and_prints(self, capsys):
        exit_code = main(
            [
                "compare",
                "--agents",
                "6",
                "--target",
                "0.5",
                "--max-rounds",
                "80",
                "--methods",
                "ComDML",
                "AllReduce",
                "--granularity",
                "9",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "ComDML" in captured and "AllReduce" in captured
        assert "faster than" in captured

    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        assert "offloaded layers" in capsys.readouterr().out

    def test_table1_json_export(self, tmp_path, capsys):
        out = tmp_path / "table1.json"
        exit_code = main(["table1", "--samples", "1000", "--json", str(out)])
        assert exit_code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"setting1", "setting2"}
        assert len(payload["setting1"]) == 8

    def test_target_zero_disables_early_stop(self, capsys):
        exit_code = main(
            [
                "compare",
                "--agents",
                "4",
                "--target",
                "0",
                "--max-rounds",
                "5",
                "--methods",
                "ComDML",
                "--granularity",
                "9",
            ]
        )
        assert exit_code == 0
        assert "total_time_s" in capsys.readouterr().out

    def test_json_export_creates_parent_dirs(self, tmp_path, capsys):
        out = tmp_path / "deep" / "nested" / "fig1.json"
        assert main(["fig1", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["offloaded_layers"] > 0
        # No stray temp files left next to the target.
        assert list(out.parent.iterdir()) == [out]

    def test_compare_json_keeps_legacy_columns(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        assert (
            main(
                [
                    "compare",
                    "--agents",
                    "4",
                    "--target",
                    "0",
                    "--max-rounds",
                    "4",
                    "--methods",
                    "ComDML",
                    "--granularity",
                    "9",
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        [row] = json.loads(out.read_text())
        assert list(row) == [
            "method",
            "rounds",
            "time_to_target_s",
            "total_time_s",
            "final_accuracy",
            "events",
        ]


class TestCampaignCommands:
    def test_run_preset_with_cache_then_all_hits(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [
            "campaign",
            "run",
            "ablation-allreduce",
            "--cache-dir",
            str(cache),
        ]
        assert main(argv + ["--report-json", str(tmp_path / "r1.json")]) == 0
        assert main(argv + ["--report-json", str(tmp_path / "r2.json")]) == 0
        first = json.loads((tmp_path / "r1.json").read_text())
        second = json.loads((tmp_path / "r2.json").read_text())
        assert first["cache_misses"] == first["cells"]
        assert second["cache_hits"] == second["cells"] > 0
        assert second["cache_misses"] == 0

    def test_summary_json_is_deterministic_across_runs(self, tmp_path, capsys):
        """--summary-json carries only result facts: identical bytes whether
        cells were computed or served from the cache."""
        cache = tmp_path / "cache"
        argv = ["campaign", "run", "ablation-allreduce", "--cache-dir", str(cache)]
        assert main(argv + ["--summary-json", str(tmp_path / "s1.json")]) == 0
        assert main(argv + ["--summary-json", str(tmp_path / "s2.json")]) == 0
        assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()
        summary = json.loads((tmp_path / "s1.json").read_text())
        assert summary["cells"] == len(summary["per_cell"])
        assert all(len(row["payload_digest"]) == 64 for row in summary["per_cell"])

    def test_jobs_flag_process_matches_serial(self, tmp_path, capsys):
        argv = ["campaign", "run", "ablation-allreduce", "--cache-dir"]
        assert main(
            argv
            + [
                str(tmp_path / "c1"),
                "--jobs",
                "1",
                "--summary-json",
                str(tmp_path / "serial.json"),
            ]
        ) == 0
        assert main(
            argv
            + [
                str(tmp_path / "c2"),
                "--jobs",
                "3",
                "--summary-json",
                str(tmp_path / "process.json"),
                "--report-json",
                str(tmp_path / "process-report.json"),
            ]
        ) == 0
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "process.json"
        ).read_bytes()
        report = json.loads((tmp_path / "process-report.json").read_text())
        assert report["backend"] == "process"

    def test_progress_flag_streams_events(self, tmp_path, capsys):
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "ablation-allreduce",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--progress",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "cell 0 started" in err and "finished" in err

    def test_cache_dir_env_var_is_honoured(self, tmp_path, capsys, monkeypatch):
        env_cache = tmp_path / "env-cache"
        monkeypatch.setenv("COMDML_CACHE_DIR", str(env_cache))
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "ablation-allreduce",
                    "--report-json",
                    str(tmp_path / "report.json"),
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["cache_dir"] == str(env_cache)
        assert env_cache.exists()
        # The explicit flag still wins over the environment.
        flag_cache = tmp_path / "flag-cache"
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "ablation-allreduce",
                    "--cache-dir",
                    str(flag_cache),
                    "--report-json",
                    str(tmp_path / "report2.json"),
                ]
            )
            == 0
        )
        assert json.loads((tmp_path / "report2.json").read_text())["cache_dir"] == str(
            flag_cache
        )

    def test_run_spec_file(self, tmp_path, capsys):
        from repro.experiments.ablations import allreduce_spec

        spec_path = tmp_path / "sweep.json"
        allreduce_spec(agent_counts=(4, 8)).save(spec_path)
        payloads = tmp_path / "out.json"
        assert (
            main(
                [
                    "campaign",
                    "run",
                    str(spec_path),
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--json",
                    str(payloads),
                ]
            )
            == 0
        )
        rows = json.loads(payloads.read_text())
        assert [row["num_agents"] for row in rows] == [4, 8]
        assert "campaign ablation-allreduce" in capsys.readouterr().out

    def test_show_reports_cache_status(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["campaign", "run", "ablation-allreduce", "--cache-dir", cache])
        capsys.readouterr()
        assert main(["campaign", "show", "ablation-allreduce", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "cached" in out and "pending" not in out

    def test_clean_removes_entries(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["campaign", "run", "ablation-allreduce", "--cache-dir", cache])
        capsys.readouterr()
        assert main(["campaign", "clean", "--cache-dir", cache]) == 0
        assert "removed 6" in capsys.readouterr().out

    def test_unknown_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "not-a-preset-or-file"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "run", "table2", "--jobs", "0"],
            ["table2", "--jobs", "-3"],
            ["compare", "--jobs", "two"],
            ["compare", "--agents", "0"],
            ["compare", "--max-rounds", "0"],
            ["compare", "--granularity", "0"],
            ["compare", "--churn-interval", "0"],
            ["table2", "--agents", "0"],
            ["table3", "--agent-counts", "20", "0"],
            ["privacy", "--agents", "0"],
            ["privacy", "--rounds", "0"],
            ["trace", "record", "--out", "t.jsonl", "--agents", "0"],
            ["trace", "record", "--out", "t.jsonl", "--max-rounds", "0"],
            ["trace", "record", "--out", "t.jsonl", "--segment-events", "0"],
            ["compare", "--participation", "1.5"],
            ["compare", "--participation", "half"],
            ["compare", "--churn", "2"],
            ["compare", "--target", "-0.1"],
            ["compare", "--quorum", "0"],
            ["compare", "--quorum", "1.5"],
            ["compare", "--deadline-factor", "-1"],
            ["compare", "--deadline-factor", "nan"],
            ["trace", "record", "--out", "t.jsonl", "--churn", "1.5"],
            ["fig1", "--slow-cpu", "-1"],
            ["fig1", "--slow-cpu", "nan"],
            ["fig1", "--fast-cpu", "0"],
            ["fig1", "--bandwidth", "nan"],
            ["schedule", "poisson", "--horizon", "-5"],
            ["schedule", "poisson", "--horizon", "nan"],
            ["schedule", "poisson", "--horizon", "inf"],
            ["schedule", "poisson", "--horizon", "10", "--arrival-rate", "-1"],
            ["schedule", "poisson", "--horizon", "10", "--arrival-rate", "nan"],
            ["schedule", "poisson", "--horizon", "10", "--arrival-rate", "inf"],
            ["schedule", "poisson", "--horizon", "10", "--departure-rate", "nan"],
            ["schedule", "poisson", "--horizon", "10", "--departure-rate", "inf"],
        ],
        ids=[
            "jobs-zero",
            "jobs-negative",
            "jobs-not-an-integer",
            "compare-agents",
            "compare-max-rounds",
            "compare-granularity",
            "compare-churn-interval",
            "table2-agents",
            "table3-agent-counts",
            "privacy-agents",
            "privacy-rounds",
            "record-agents",
            "record-max-rounds",
            "record-segment-events",
            "compare-participation",
            "compare-participation-not-a-number",
            "compare-churn",
            "compare-target",
            "compare-quorum-zero",
            "compare-quorum-above-one",
            "compare-deadline-factor",
            "compare-deadline-factor-nan",
            "record-churn",
            "fig1-slow-cpu",
            "fig1-slow-cpu-nan",
            "fig1-fast-cpu",
            "fig1-bandwidth-nan",
            "poisson-horizon",
            "poisson-horizon-nan",
            "poisson-horizon-inf",
            "poisson-arrival-rate",
            "poisson-arrival-rate-nan",
            "poisson-arrival-rate-inf",
            "poisson-departure-rate-nan",
            "poisson-departure-rate-inf",
        ],
    )
    def test_invalid_flag_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        flag = next(arg for arg in reversed(argv) if arg.startswith("--"))
        assert "usage:" in err
        assert f"argument {flag}: must be " in err
        assert f"got {argv[-1]!r}" in err


class TestScheduleCommands:
    def test_poisson_generates_and_saves(self, tmp_path, capsys):
        out = tmp_path / "sched.json"
        assert (
            main(
                [
                    "schedule",
                    "poisson",
                    "--horizon",
                    "20000",
                    "--arrival-rate",
                    "0.0005",
                    "--departure-rate",
                    "0.0002",
                    "--candidates",
                    "0",
                    "1",
                    "--seed",
                    "3",
                    "--attachment",
                    "random-k",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert "arrivals" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["events"], "expected a non-empty schedule"

    def test_compare_consumes_saved_schedule(self, tmp_path, capsys):
        out = tmp_path / "sched.json"
        main(
            [
                "schedule",
                "poisson",
                "--horizon",
                "20000",
                "--arrival-rate",
                "0.0005",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "compare",
                    "--agents",
                    "5",
                    "--target",
                    "0",
                    "--max-rounds",
                    "30",
                    "--methods",
                    "ComDML",
                    "--granularity",
                    "9",
                    "--schedule",
                    str(out),
                ]
            )
            == 0
        )
        assert "arr" in capsys.readouterr().out
