#!/usr/bin/env python3
"""Trace pipeline + audit-chain smoke check (run in CI).

End-to-end through the real CLI:

1. **Record** — ``comdml trace record`` runs a mini scenario with a
   sealed JSONL sink.
2. **Verify clean** — ``comdml trace verify`` accepts the untampered
   trace (exit 0) and its event count matches the sealed payload.
3. **Tamper** — a single byte is mutated inside one event line; verify
   must now exit 1 and name exactly that event as the first divergent
   index. A dropped line and a swapped adjacent pair must do the same.
4. **Conservation** — a capped trace with a sealed JSONL sink and a
   callback sink that fails on every other event holds
   ``emitted == delivered + dropped`` for every sink.
5. **Campaign chain** — a mini ``campaign run --summary-json`` output
   passes ``verify_campaign_summary`` and fails it after one cell digest
   is mutated.
6. **Flight-table blocks** — a semi-sync ComDML run under a seeded
   ``DynamicsSchedule`` (arrivals, departures and churn landing
   mid-round), and a semi-sync and an async run without one, each through
   ``ExperimentRunner.run_method_sealed``, verify clean, and their sealed
   events equal ``to_dicts()`` of the same run on the default in-memory
   pipeline: the unit completions the runtime records as blocks read back
   as the stream the sealed sink received event by event.

Exits non-zero on any violation.  Run locally with::

    PYTHONPATH=src python tools/trace_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import main  # noqa: E402  (needs src on sys.path first)
from repro.experiments import table2  # noqa: E402
from repro.experiments.runner import ExperimentRunner  # noqa: E402
from repro.experiments.scenarios import ScenarioConfig  # noqa: E402
from repro.runtime.audit import (  # noqa: E402
    read_sealed_events,
    verify_campaign_summary,
    verify_sealed_jsonl,
)
from repro.runtime.dynamics import DynamicsSchedule  # noqa: E402
from repro.runtime.sinks import CallbackSink, JSONLSink  # noqa: E402
from repro.runtime.trace import EventTrace  # noqa: E402

TAMPER_EVENT = 3


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok  " if condition else "FAIL") + f" {message}")
    if not condition:
        failures.append(message)


def event_line_numbers(path: Path) -> list[int]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [i for i, line in enumerate(lines) if "seal" not in json.loads(line)]


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record_and_tamper(tmp_path: Path, failures: list[str]) -> None:
    trace_path = tmp_path / "run.jsonl"
    code = main(
        [
            "trace",
            "record",
            "--out",
            str(trace_path),
            "--agents",
            "8",
            "--max-rounds",
            "6",
            "--churn",
            "0.4",
            "--segment-events",
            "16",
        ]
    )
    check(code == 0, "trace record exits 0", failures)

    result = verify_sealed_jsonl(trace_path)
    check(result.ok, "untampered trace verifies clean", failures)
    check(
        result.events == len(read_sealed_events(trace_path)),
        "sealed event count matches the payload",
        failures,
    )
    check(
        main(["trace", "verify", str(trace_path)]) == 0,
        "CLI verify exits 0 on the clean trace",
        failures,
    )

    lines = trace_path.read_text(encoding="utf-8").splitlines()
    event_lines = event_line_numbers(trace_path)

    # One mutated byte inside event TAMPER_EVENT's kind field.
    flipped = list(lines)
    line_no = event_lines[TAMPER_EVENT]
    flipped[line_no] = flipped[line_no].replace('"kind": "', '"kind": "x', 1).replace(
        '"kind":"', '"kind":"x', 1
    )
    check(flipped[line_no] != lines[line_no], "byte flip edited the line", failures)
    flipped_path = tmp_path / "flipped.jsonl"
    write_lines(flipped_path, flipped)
    result = verify_sealed_jsonl(flipped_path)
    check(
        not result.ok and result.first_divergent_index == TAMPER_EVENT,
        f"byte flip detected at exactly event {TAMPER_EVENT}",
        failures,
    )
    check(
        main(["trace", "verify", str(flipped_path)]) == 1,
        "CLI verify exits 1 on the tampered trace",
        failures,
    )

    # One dropped event line.
    dropped = [line for i, line in enumerate(lines) if i != event_lines[TAMPER_EVENT]]
    dropped_path = tmp_path / "dropped.jsonl"
    write_lines(dropped_path, dropped)
    result = verify_sealed_jsonl(dropped_path)
    check(
        not result.ok and result.first_divergent_index == TAMPER_EVENT,
        f"dropped event detected at exactly event {TAMPER_EVENT}",
        failures,
    )

    # Two adjacent events swapped.
    swapped = list(lines)
    a, b = event_lines[TAMPER_EVENT], event_lines[TAMPER_EVENT + 1]
    swapped[a], swapped[b] = swapped[b], swapped[a]
    swapped_path = tmp_path / "swapped.jsonl"
    write_lines(swapped_path, swapped)
    result = verify_sealed_jsonl(swapped_path)
    check(
        not result.ok and result.first_divergent_index == TAMPER_EVENT,
        f"reordered events detected at exactly event {TAMPER_EVENT}",
        failures,
    )


def pipeline_conservation(tmp_path: Path, failures: list[str]) -> None:
    offered = []

    def flaky(event) -> None:
        offered.append(event)
        if len(offered) % 2 == 0:
            raise RuntimeError("injected fault")

    trace = EventTrace(
        max_events=16,
        sinks=(
            JSONLSink(tmp_path / "pipeline.jsonl", segment_events=8),
            CallbackSink(flaky),
        ),
    )
    for i in range(100):
        kind = ("unit_complete", "aggregation", "round_end")[i % 3]
        trace.record(float(i), i // 10, kind)
    trace.close()
    check(trace.stats.emitted == 100, "pipeline saw every offered event", failures)
    check(
        trace.dropped_events > 0 and trace.stats.sink_errors.get("callback") == 50,
        "the memory cap and the failing sink dropped events",
        failures,
    )
    try:
        trace.check_conservation()
        conserved = True
    except AssertionError:
        conserved = False
    check(conserved, "emitted == delivered + dropped for every sink", failures)
    check(
        verify_sealed_jsonl(tmp_path / "pipeline.jsonl").ok,
        "pipeline-produced sealed trace verifies clean",
        failures,
    )


def campaign_chain(tmp_path: Path, failures: list[str]) -> None:
    spec = table2.campaign_spec(
        datasets=("cifar10",),
        distributions=(True,),
        methods=("ComDML", "FedAvg"),
        max_rounds=40,
    )
    spec_path = tmp_path / "mini.json"
    spec.save(spec_path)
    summary_path = tmp_path / "summary.json"
    code = main(
        [
            "campaign",
            "run",
            str(spec_path),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--summary-json",
            str(summary_path),
            "--no-progress",
        ]
    )
    check(code == 0, "mini campaign run exits 0", failures)
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    check(
        verify_campaign_summary(summary).ok,
        "campaign summary chain verifies clean",
        failures,
    )
    summary["per_cell"][0]["payload_digest"] = "0" * 64
    result = verify_campaign_summary(summary)
    check(
        not result.ok and result.first_divergent_index == 0,
        "mutated cell digest detected at exactly cell 0",
        failures,
    )


def dynamics_schedule() -> DynamicsSchedule:
    """Seeded arrivals, departures and churn that land mid-round (one per run)."""
    schedule = DynamicsSchedule.poisson(
        horizon=500.0,
        arrival_rate=1 / 100.0,
        departure_rate=1 / 100.0,
        seed=3,
        departure_candidates=range(16),
        attachment="random-k",
    )
    for time in (150.0, 350.0):
        schedule.churn(time, fraction=0.5)
    return schedule


def sealed_equals_memory(
    config: ScenarioConfig,
    label: str,
    tmp_path: Path,
    failures: list[str],
    schedule: Optional[Callable[[], DynamicsSchedule]] = None,
) -> EventTrace:
    """Run ComDML sealed and in memory; the two must read back the same events.

    ``schedule`` builds a fresh schedule for each run (a schedule's agents
    are mutated by the run that carries it).  Returns the in-memory trace.
    """
    runner = ExperimentRunner(config)
    sealed_path = tmp_path / f"{label}.jsonl"
    sealed_history = runner.run_method_sealed(
        "ComDML",
        sealed_path,
        dynamics=schedule() if schedule else None,
        segment_events=16,
    )
    check(
        verify_sealed_jsonl(sealed_path).ok,
        f"{label}: sealed trace verifies clean",
        failures,
    )
    history, trace = runner.run_method_with_trace(
        "ComDML", dynamics=schedule() if schedule else None
    )
    check(
        read_sealed_events(sealed_path) == trace.to_dicts(),
        f"{label}: sealed events equal the block-recorded in-memory events",
        failures,
    )
    check(
        sealed_history.digest() == history.digest(),
        f"{label}: the sealed and in-memory runs have one history",
        failures,
    )
    return trace


def dynamic_round_blocks(tmp_path: Path, failures: list[str]) -> None:
    def config(mode: str) -> ScenarioConfig:
        return ScenarioConfig(
            num_agents=16,
            execution_mode=mode,
            max_rounds=6,
            offload_granularity=9,
            samples_per_agent=500,
            seed=3,
        )

    trace = sealed_equals_memory(
        config("semi-sync"),
        "dynamics-aware semi-sync",
        tmp_path,
        failures,
        schedule=dynamics_schedule,
    )
    kinds = trace.kind_counts()
    check(
        all(
            kinds.get(kind)
            for kind in ("arrival", "departure", "unit_repriced", "unit_abandoned")
        ),
        "the schedule re-costs and abandons units mid-round",
        failures,
    )
    trace = sealed_equals_memory(
        config("async"),
        "dynamics-aware async",
        tmp_path,
        failures,
        schedule=dynamics_schedule,
    )
    kinds = trace.kind_counts()
    check(
        all(kinds.get(kind) for kind in ("aggregation", "unit_repriced")),
        "async under the schedule aggregates and re-costs units mid-round",
        failures,
    )
    for mode in ("semi-sync", "async"):
        trace = sealed_equals_memory(config(mode), mode, tmp_path, failures)
        check(
            trace.kind_counts().get("unit_complete", 0) > 0,
            f"{mode}: units complete without a schedule",
            failures,
        )


def main_smoke() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="trace-smoke-") as tmp:
        tmp_path = Path(tmp)
        record_and_tamper(tmp_path, failures)
        pipeline_conservation(tmp_path, failures)
        campaign_chain(tmp_path, failures)
        dynamic_round_blocks(tmp_path, failures)
    if failures:
        for message in failures:
            print(f"FAILED: {message}", file=sys.stderr)
        return 1
    print("trace smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main_smoke())
