"""Tests for the declarative campaign engine (spec, cache, executor)."""

import json

import hypothesis
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.campaign import (
    CampaignCache,
    CampaignExecutor,
    CampaignSpec,
    cell_key,
    execute_campaign,
    register_cell_runner,
    resolve_cache_dir,
    resolve_runner,
)
from repro.experiments import comparison, table2
from repro.experiments.reporting import (
    campaign_summary,
    execution_report,
    format_campaign_summary,
)


def tiny_spec(**base_overrides) -> CampaignSpec:
    """A cheap two-cell campaign over the AllReduce ablation runner."""
    base = {"bandwidth_mbps": 10.0}
    base.update(base_overrides)
    return CampaignSpec.create(
        name="tiny",
        runner="ablation-allreduce",
        axes={"num_agents": (4, 8)},
        base=base,
    )


class TestSpec:
    def test_expand_is_nested_loop_order(self):
        spec = CampaignSpec.create(
            name="grid",
            runner="ablation-allreduce",
            axes={"a": (1, 2), "b": ("x", "y", "z")},
            base={"c": 0},
        )
        cells = spec.expand()
        assert spec.num_cells == len(cells) == 6
        assert [(cell["a"], cell["b"]) for cell in cells] == [
            (1, "x"), (1, "y"), (1, "z"), (2, "x"), (2, "y"), (2, "z"),
        ]
        assert all(cell["c"] == 0 for cell in cells)

    def test_axis_overrides_base(self):
        spec = CampaignSpec.create(
            name="o", runner="r", axes={"a": (1,)}, base={"a": 9}
        )
        assert spec.expand()[0]["a"] == 1

    def test_json_round_trip(self):
        spec = table2.campaign_spec(datasets=("cifar10",), methods=("ComDML", "FedAvg"))
        assert CampaignSpec.from_json(spec.to_json()) == spec
        # And through an actual JSON string (what a spec file contains).
        assert CampaignSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec

    def test_save_load_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "specs" / "tiny.json"
        spec.save(path)
        assert CampaignSpec.load(path) == spec

    def test_list_values_survive_round_trip(self):
        spec = CampaignSpec.create(
            name="lists", runner="r", axes={"a": (1,)}, base={"ids": [3, 4]}
        )
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.expand()[0]["ids"] == [3, 4]

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis"):
            CampaignSpec(name="d", runner="r", axes=(("a", (1,)), ("a", (2,))))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            CampaignSpec.create(name="e", runner="r", axes={"a": ()})


class TestCellKey:
    def test_stable_across_processes(self):
        params = {"dataset": "cifar10", "seed": 0}
        assert cell_key("table2-cell", params) == cell_key("table2-cell", dict(params))

    def test_changes_with_params_and_runner(self):
        base = cell_key("r", {"seed": 0})
        assert cell_key("r", {"seed": 1}) != base
        assert cell_key("other", {"seed": 0}) != base


class TestRunnerRegistry:
    def test_resolves_registered_runner(self):
        runner = resolve_runner("ablation-allreduce")
        payload = runner(num_agents=4)
        assert payload["num_agents"] == 4

    def test_unknown_runner_rejected(self):
        with pytest.raises(KeyError, match="unknown cell runner"):
            resolve_runner("nope")

    def test_register_requires_dotted_path(self):
        with pytest.raises(ValueError, match="module:function"):
            register_cell_runner("bad", "no-colon")


class TestExecutorCaching:
    def test_cache_hit_on_identical_cell(self, tmp_path):
        spec = tiny_spec()
        first = execute_campaign(spec, cache_dir=tmp_path)
        assert [cell.status for cell in first.cells] == ["miss", "miss"]
        second = execute_campaign(spec, cache_dir=tmp_path)
        assert [cell.status for cell in second.cells] == ["hit", "hit"]
        assert second.payloads() == first.payloads()

    def test_cache_miss_on_config_change(self, tmp_path):
        execute_campaign(tiny_spec(), cache_dir=tmp_path)
        changed = execute_campaign(
            tiny_spec(bandwidth_mbps=20.0), cache_dir=tmp_path
        )
        assert changed.misses == 2

    def test_resume_recomputes_only_missing_cells(self, tmp_path):
        spec = tiny_spec()
        first = execute_campaign(spec, cache_dir=tmp_path)
        # Simulate an interrupted sweep: one finished cell is lost.
        cache = CampaignCache(tmp_path)
        cache.path_for(first.cells[0].key).unlink()
        resumed = execute_campaign(spec, cache_dir=tmp_path)
        assert [cell.status for cell in resumed.cells] == ["miss", "hit"]
        assert resumed.payloads() == first.payloads()

    def test_corrupt_entry_treated_as_miss_and_quarantined(self, tmp_path):
        spec = tiny_spec()
        first = execute_campaign(spec, cache_dir=tmp_path)
        cache = CampaignCache(tmp_path)
        corrupt_source = cache.path_for(first.cells[1].key)
        corrupt_source.write_text("{truncated", encoding="utf-8")
        rerun = execute_campaign(spec, cache_dir=tmp_path)
        assert [cell.status for cell in rerun.cells] == ["hit", "miss"]
        # The broken file was renamed aside (recomputed once, never
        # re-parsed), and the recomputed entry is a clean hit afterwards.
        quarantined = cache.quarantined()
        assert [path.name for path in quarantined] == [corrupt_source.name + ".corrupt"]
        assert not corrupt_source.exists() or corrupt_source.read_text() != "{truncated"
        third = execute_campaign(spec, cache_dir=tmp_path)
        assert [cell.status for cell in third.cells] == ["hit", "hit"]

    def test_clear_removes_quarantined_files(self, tmp_path):
        spec = tiny_spec()
        first = execute_campaign(spec, cache_dir=tmp_path)
        cache = CampaignCache(tmp_path)
        cache.path_for(first.cells[0].key).write_text("{truncated", encoding="utf-8")
        cache.load(first.cells[0].key)  # quarantines
        assert len(cache.quarantined()) == 1
        assert len(cache) == 1
        # 1 live entry + 1 quarantined file.
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.quarantined() == []

    def test_force_recomputes_everything(self, tmp_path):
        spec = tiny_spec()
        execute_campaign(spec, cache_dir=tmp_path)
        forced = execute_campaign(spec, cache_dir=tmp_path, force=True)
        assert forced.misses == 2

    def test_no_cache_dir_disables_caching(self):
        result = execute_campaign(tiny_spec())
        assert result.misses == 2
        assert result.cache_dir is None

    def test_clear_empties_cache(self, tmp_path):
        execute_campaign(tiny_spec(), cache_dir=tmp_path)
        cache = CampaignCache(tmp_path)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_leaves_foreign_files_alone(self, tmp_path):
        """clear() pointed at a directory with other JSON must not eat it."""
        execute_campaign(tiny_spec(), cache_dir=tmp_path)
        spec_file = tmp_path / "my_sweep.json"
        spec_file.write_text("{}", encoding="utf-8")
        nested = tmp_path / "results" / "table2.json"
        nested.parent.mkdir()
        nested.write_text("[]", encoding="utf-8")
        assert CampaignCache(tmp_path).clear() == 2
        assert spec_file.exists()
        assert nested.exists()

    def test_failed_cell_does_not_discard_finished_ones(self, tmp_path):
        """Parallel runs cache completed cells even when another cell fails."""
        spec = CampaignSpec.create(
            name="partial",
            runner="table1-setting",
            # "setting3" does not exist, so its cell raises; the two valid
            # settings must still land in the cache.
            axes={"setting": ("setting1", "setting2", "setting3")},
            base={"samples_per_agent": 500, "seed": 0},
        )
        with pytest.raises(KeyError, match="setting3"):
            execute_campaign(spec, jobs=2, cache_dir=tmp_path)
        assert len(CampaignCache(tmp_path)) == 2
        # Resume: the good cells are hits; only the bad one re-runs (and
        # fails again).
        with pytest.raises(KeyError, match="setting3"):
            execute_campaign(spec, jobs=2, cache_dir=tmp_path)

    def test_unknown_runner_rejected_up_front(self):
        spec = CampaignSpec.create(name="x", runner="missing", axes={"a": (1,)})
        with pytest.raises(KeyError, match="unknown cell runner"):
            CampaignExecutor(spec)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            CampaignExecutor(tiny_spec(), jobs=0)


class TestCacheDirResolution:
    def test_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("COMDML_CACHE_DIR", "/env/cache")
        assert resolve_cache_dir("/flag/cache") == "/flag/cache"

    def test_env_wins_over_fallback(self, monkeypatch):
        monkeypatch.setenv("COMDML_CACHE_DIR", "/env/cache")
        assert resolve_cache_dir(None, "/fallback") == "/env/cache"

    def test_fallback_when_unset(self, monkeypatch):
        monkeypatch.delenv("COMDML_CACHE_DIR", raising=False)
        assert resolve_cache_dir(None, "/fallback") == "/fallback"
        assert resolve_cache_dir(None) is None

    def test_empty_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("COMDML_CACHE_DIR", "")
        assert resolve_cache_dir(None, "/fallback") == "/fallback"


class TestParallelDeterminism:
    def test_jobs_do_not_change_payloads(self, tmp_path):
        spec = table2.campaign_spec(
            datasets=("cifar10",),
            distributions=(True,),
            methods=("ComDML", "AllReduce", "FedAvg"),
            max_rounds=40,
        )
        serial = execute_campaign(spec)
        parallel = execute_campaign(spec, jobs=4)
        assert serial.payloads() == parallel.payloads()

    @hypothesis.seed(20261033)
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_history_digests_identical_for_any_job_count(self, seed):
        """--jobs 1 and --jobs 4 yield bit-identical RunHistory digests."""
        spec = comparison.campaign_spec(
            methods=("ComDML", "AllReduce"),
            num_agents=4,
            max_rounds=4,
            target_accuracy=None,
            offload_granularity=9,
            seed=seed,
        )
        serial = execute_campaign(spec, jobs=1)
        parallel = execute_campaign(spec, jobs=4)
        assert [row["history_digest"] for row in serial.payloads()] == [
            row["history_digest"] for row in parallel.payloads()
        ]


class TestSummary:
    def test_execution_report_counts(self, tmp_path):
        spec = tiny_spec()
        execute_campaign(spec, cache_dir=tmp_path)
        result = execute_campaign(spec, cache_dir=tmp_path)
        report = execution_report(result)
        assert report["cells"] == 2
        assert report["cache_hits"] == 2
        assert report["cache_misses"] == 0
        assert report["backend"] == "serial"
        assert report["events"].get("cell_cached") == 2
        assert [row["status"] for row in report["per_cell"]] == ["hit", "hit"]
        text = format_campaign_summary(result, verbose=True)
        assert "2 cells" in text and "2 cached" in text

    def test_campaign_summary_is_cache_and_backend_agnostic(self, tmp_path):
        spec = tiny_spec()
        cold = campaign_summary(execute_campaign(spec, cache_dir=tmp_path))
        warm = campaign_summary(execute_campaign(spec, cache_dir=tmp_path))
        pooled = execute_campaign(spec, jobs=2)
        assert pooled.backend == "process"
        assert cold == warm == campaign_summary(pooled)
        assert cold["digest"] and len(cold["digest"]) == 64

    def test_payload_order_matches_expansion(self, tmp_path):
        spec = tiny_spec()
        result = execute_campaign(spec, cache_dir=tmp_path)
        assert [cell.params["num_agents"] for cell in result.cells] == [4, 8]
        assert [p["num_agents"] for p in result.payloads()] == [4, 8]


class TestPlannerReporting:
    """Planner stats flow from cells into the execution report."""

    def test_comdml_cells_report_planner_stats(self):
        spec = comparison.campaign_spec(
            methods=("ComDML", "AllReduce"),
            num_agents=4,
            max_rounds=3,
            target_accuracy=None,
            offload_granularity=9,
            seed=3,
        )
        result = execute_campaign(spec)
        by_method = {row["method"]: row for row in result.payloads()}
        assert "planner" in by_method["ComDML"]
        planner = by_method["ComDML"]["planner"]
        assert planner["rounds"] >= 0
        assert {"rows_recomputed", "rows_reused", "pairs_evaluated"} <= set(planner)
        # Baselines have no planner and must not grow the key.
        assert "planner" not in by_method["AllReduce"]
        report = execution_report(result)
        assert report["planner"]["cells_reporting"] == 1
        assert report["planner"]["rounds"] == planner["rounds"]

    def test_aggregate_sums_flat_counters(self):
        from repro.experiments.reporting import aggregate_planner_reports

        payloads = [
            {"planner": {"rounds": 2, "scan_rounds": 3, "label": "a", "ok": True}},
            {"planner": {"rounds": 4, "scan_rounds": 0, "rows_reused": 7}},
            {"method": "AllReduce"},
            "not-a-dict",
        ]
        aggregate = aggregate_planner_reports(payloads)
        assert aggregate == {
            "rounds": 6,
            "scan_rounds": 3,
            "rows_reused": 7,
            "cells_reporting": 2,
        }
        assert aggregate_planner_reports([{"x": 1}, "y"]) is None
