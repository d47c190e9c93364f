"""The benchmark's own checks, on every workload at a few hundred agents.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.bench import (
    PER_LAYER,
    Measurement,
    Repetition,
    check_record,
    end_to_end,
    measure,
    metric_units,
    result,
    run_repetition,
    typical_rounds,
)
from perfbench.hostspeed import REFERENCE_S, HostSpeed, adjusted
from perfbench.tracing import PROBES, LayerTracer, Probe, _resolve
from perfbench.workloads import WORKLOADS, table3_config
from repro.experiments.runner import ExperimentRunner
from repro.training.metrics import RoundRecord

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_agree(name):
    workload = WORKLOADS[name]
    plain = run_repetition(workload, SEED, small=True)
    with LayerTracer() as tracer:
        traced = run_repetition(workload, SEED, small=True, tracer=tracer)
    for rep in (plain, traced):
        assert rep.failed == 0 and not rep.problems, rep.problems
        assert rep.attempted == len(rep.digests) * workload.rounds_for(small=True)
    assert traced.digests == plain.digests
    assert traced.steady_rounds > 0
    assert traced.absent_layers == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_loop_matches_library_runs(name):
    """Driving ``run_round`` equals ``ComDML.run`` / ``ExperimentRunner.compare``."""
    workload = WORKLOADS[name]
    rounds = workload.rounds_for(small=True)
    if name.startswith("table3"):
        histories = ExperimentRunner(table3_config(SEED, True, rounds)).compare()
    else:
        histories = {
            method: trainer.run()
            for method, trainer in workload.setup(SEED, small=True).methods
        }
    expected = {method: history.digest() for method, history in histories.items()}
    assert run_repetition(workload, SEED, small=True).digests == expected


def _bound(probe):
    owner, name, _, owned = _resolve(probe)
    return owner, name, vars(owner).get(name) if owned else None, owned


def test_wrappers_are_restored_even_after_an_error():
    before = [_bound(probe) for probe in PROBES]
    callbacks = list(gc.callbacks)
    with pytest.raises(RuntimeError, match="inside"):
        with LayerTracer():
            assert [_bound(probe) for probe in PROBES] != before
            raise RuntimeError("inside")
    assert gc.callbacks == callbacks
    after = [_bound(probe) for probe in PROBES]
    assert all(a[2] is b[2] for a, b in zip(after, before))
    for owner, name, _, owned in after:
        assert owned or name not in vars(owner)


def test_missing_wrapped_name_is_reported_absent_and_the_run_goes_on():
    probes = (
        Probe("timing", "repro.core.comdml", "renamed_round_timing"),
        Probe("ghost", "repro.no_such_module", "anything"),
        Probe("ghost", "repro.core.comdml", "ComDML.no_such_method"),
        Probe("trace.record", "repro.runtime.trace", "EventTrace.record"),
    )
    workload = WORKLOADS["sync-ring-20k"]
    with LayerTracer(probes) as tracer:
        rep = run_repetition(workload, SEED, small=True, tracer=tracer)
    assert tracer.absent_layers == ["ghost", "timing"]
    assert rep.absent_layers == ["ghost", "timing"]
    assert rep.failed == 0 and not rep.problems
    assert rep.steady["trace.record.calls"] > 0
    assert rep.digests == run_repetition(workload, SEED, small=True).digests


def test_self_time_excludes_wrapped_children():
    ticks = iter(range(100))
    tracer = LayerTracer(probes=(), clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    # outer: start 0, inner 1..2, end 3 → self 3 - 1 = 2; inner self 1.
    assert tracer.self_seconds == {"outer": 2.0, "inner": 1.0}
    assert tracer.calls == {"outer": 1, "inner": 1}


def test_gc_pauses_are_charged_to_their_own_layer():
    ticks = iter(range(100))
    tracer = LayerTracer(probes=(), clock=lambda: float(next(ticks)))

    def collect():
        tracer._on_gc("start", {})
        tracer._on_gc("stop", {})

    tracer.wrap("caller", collect)()
    # caller: start 0, collection 1..2, end 3 → self 3 - 1 = 2; gc 1.
    assert tracer.self_seconds == {"caller": 2.0, "gc": 1.0}
    assert tracer.calls == {"caller": 1, "gc": 1}
    with LayerTracer(probes=()) as installed:
        gc.collect()
    assert installed.calls["gc"] >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_result_reports_every_metric(name):
    measurement = measure(WORKLOADS[name], SEED, seconds=0, trace=True, small=True)
    assert measurement.correct, measurement.problems()
    assert len(measurement.traced) == 1 and len(measurement.untraced) == 1
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        report = result(measurement, trace)
        units = metric_units(group)
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
        assert list(report["metrics"]) == list(units)
        for metric_name, metric in report["metrics"].items():
            assert metric["unit"] == units[metric_name]
            assert math.isfinite(metric["value"])
            if not trace:
                assert metric["value"] > 0, metric_name
        json.dumps(report, allow_nan=False)


def test_a_raising_round_counts_as_failed():
    base = WORKLOADS["async-rk-5k"]

    def build(seed, small, rounds):
        setup = base.build(seed, small, rounds)
        _, trainer = setup.methods[0]
        run_round = trainer.run_round

        def flaky(round_index):
            if round_index == 1:
                raise RuntimeError("boom")
            return run_round(round_index)

        trainer.run_round = flaky
        return setup

    workload = replace(base, build=build)
    rep = run_repetition(workload, SEED, small=True)
    assert (rep.attempted, rep.failed) == (2, 1)
    assert any("boom" in problem for problem in rep.problems)
    assert any("expected 3" in problem for problem in rep.problems)


def test_round_metrics_take_each_rounds_median_repetition():
    reps = [
        Repetition(traced=False, round_s={"A": [4.0, 1.0, 3.0], "B": [2.0]}, participants=10),
        Repetition(traced=False, round_s={"A": [2.0, 5.0], "B": [1.0]}, participants=10),
        Repetition(traced=False, round_s={"A": [3.0, 2.0], "B": [6.0]}, participants=10),
    ]
    assert typical_rounds(reps) == {"A": [3.0, 2.0, 3.0], "B": [2.0]}
    metrics = end_to_end(Measurement(reps, setup_only_s=[0.5]))
    assert metrics["first_round_ms"] == 3000.0
    assert metrics["round_ms_p50"] == 1000.0 * statistics.median([2.0, 3.0, 2.0])
    assert metrics["agent_rounds_per_s"] == 10 / 10.0


def test_times_are_adjusted_by_the_latest_reference_sample():
    assert adjusted(3.0, REFERENCE_S) == pytest.approx(3.0)
    assert adjusted(3.0, 2 * REFERENCE_S) == pytest.approx(1.5)
    samples = iter([1.0, 2.0])
    speed = HostSpeed(interval=3600.0, sample=lambda: next(samples))
    assert (speed.now(), speed.now()) == (1.0, 1.0)
    speed.interval = 0.0
    assert speed.now() == 2.0


def test_check_record_rejects_bad_rounds():
    good = RoundRecord(round_index=0, duration_seconds=1.0, cumulative_seconds=1.0, accuracy=0.5)
    assert check_record(good) is None
    assert "finite" in check_record(replace(good, compute_seconds=math.nan))
    assert "positive" in check_record(replace(good, duration_seconds=0.0))
    assert "[0, 1]" in check_record(replace(good, accuracy=1.5))


def test_every_metric_in_benchmark_json_has_a_source():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(metric_units("end_to_end")) == set(end_to_end(Measurement([])))
    assert set(metric_units("per_layer")) == set(PER_LAYER)


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table3-500-p20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_workloads_have_later_rounds():
    for workload in WORKLOADS.values():
        assert workload.rounds >= 2
