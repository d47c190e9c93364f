"""Fault-injection tests for the tamper-evident audit chain.

Sealed JSONL traces from real runs in all three execution modes must
verify clean; flipping one byte, dropping one event, or reordering two
events must fail verification at exactly the first divergent event index.
Also covers the hash-chained run-history audit record, the chain-folded
campaign summary, and the ``comdml trace verify`` CLI exit codes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.campaign import CampaignSpec, CellResult, CampaignResult
from repro.experiments.reporting import campaign_summary
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import ScenarioConfig
from repro.runtime.audit import (
    ALGORITHM,
    ChainState,
    canonical_digest,
    canonical_json,
    genesis_head,
    read_sealed_events,
    verify_campaign_summary,
    verify_history_record,
    verify_sealed_jsonl,
)
from repro.runtime.sinks import JSONLSink
from repro.runtime.trace import EventTrace

GOLDEN_PATH = Path(__file__).parent / "data" / "runtime_sync_golden.json"
SCENARIO = json.loads(GOLDEN_PATH.read_text())["scenario"]


def sealed_run(tmp_path: Path, mode: str = "sync", rounds: int = 4) -> Path:
    """Record a small real run to a sealed JSONL trace."""
    scenario = dict(SCENARIO, max_rounds=rounds, execution_mode=mode)
    runner = ExperimentRunner(ScenarioConfig(**scenario))
    path = tmp_path / f"{mode}.jsonl"
    runner.run_method_sealed("ComDML", path, segment_events=10)
    return path


def event_lines(path: Path) -> list[int]:
    """Line numbers (0-based) of the event (non-seal) records."""
    lines = path.read_text().splitlines()
    return [i for i, line in enumerate(lines) if "seal" not in json.loads(line)]


def small_sealed(tmp_path: Path) -> Path:
    """A sealed trace of 12 events in segments of 5.

    Lines 0–4 hold events 0–4, line 5 seals segment 0, lines 6–10 hold
    events 5–9, line 11 seals segment 1, lines 12–13 hold events 10–11,
    line 14 seals segment 2 and line 15 is the final seal.
    """
    path = tmp_path / "small.jsonl"
    trace = EventTrace(sinks=(JSONLSink(path, segment_events=5),))
    for index in range(12):
        trace.record(float(index), 0, "unit_complete", (index,))
    trace.close()
    return path


def rewrite(path: Path, line_no: int, text: str) -> Path:
    """A copy of ``path`` with line ``line_no`` (0-based) replaced by ``text``."""
    lines = path.read_text().splitlines()
    lines[line_no] = text
    edited = path.with_name("edited.jsonl")
    edited.write_text("\n".join(lines) + "\n")
    return edited


def edit_seal(path: Path, line_no: int, **changes) -> Path:
    """A copy of ``path`` whose seal on line ``line_no`` has ``changes`` applied."""
    record = json.loads(path.read_text().splitlines()[line_no])
    record["seal"].update(changes)
    return rewrite(path, line_no, canonical_json(record))


# ----------------------------------------------------------------------
# Chain primitives
# ----------------------------------------------------------------------

class TestChainPrimitives:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert canonical_digest({"b": 1, "a": 2}) == canonical_digest(
            {"a": 2, "b": 1}
        )

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_chain_is_deterministic_and_order_sensitive(self):
        a, b = ChainState(), ChainState()
        for record in ({"r": 0}, {"r": 1}, {"r": 2}):
            a.update(record)
            b.update(record)
        assert a.head == b.head
        assert a.index == 3
        c = ChainState()
        for record in ({"r": 1}, {"r": 0}, {"r": 2}):  # swapped
            c.update(record)
        assert c.head != a.head

    def test_genesis_head_commits_to_algorithm_label(self):
        assert genesis_head() == ChainState().head
        assert ALGORITHM in ("sha256-chain-v1",)


# ----------------------------------------------------------------------
# Sealed traces: clean verification across execution modes
# ----------------------------------------------------------------------

class TestCleanVerification:
    @pytest.mark.parametrize("mode", ["sync", "semi-sync", "async"])
    def test_untampered_trace_verifies_clean(self, tmp_path, mode):
        path = sealed_run(tmp_path, mode)
        result = verify_sealed_jsonl(path)
        assert result.ok, result.error
        assert result.events == len(event_lines(path))
        assert result.first_divergent_index is None

    def test_read_sealed_events_round_trips(self, tmp_path):
        path = sealed_run(tmp_path)
        events = read_sealed_events(path)
        assert events
        assert all({"timestamp", "round_index", "kind"} <= set(e) for e in events)

    def test_missing_file_reports_unreadable(self, tmp_path):
        result = verify_sealed_jsonl(tmp_path / "absent.jsonl")
        assert not result.ok
        assert "unreadable" in result.error

    def test_failed_write_is_a_counted_drop_not_a_broken_chain(self, tmp_path):
        """An event whose line was never written must not advance the chain."""

        class FailingWrites:
            """File handle whose ``fail_on``-th ``write`` raises ENOSPC."""

            def __init__(self, handle, fail_on):
                self.handle, self.fail_on, self.calls = handle, fail_on, 0

            def write(self, text):
                self.calls += 1
                if self.calls == self.fail_on:
                    raise OSError(28, "No space left on device")
                return self.handle.write(text)

            def __getattr__(self, name):
                return getattr(self.handle, name)

        path = tmp_path / "faulty.jsonl"
        sink = JSONLSink(path, segment_events=4)
        sink._handle = FailingWrites(sink._handle, fail_on=3)
        trace = EventTrace(sinks=(sink,))
        for index in range(6):
            trace.record(float(index), 0, "unit_complete", (index,))
        trace.close()
        assert (sink.delivered, sink.dropped) == (5, 1)
        trace.check_conservation()
        result = verify_sealed_jsonl(path)
        assert result.ok, result.error
        assert result.events == 5
        assert [event["agent_ids"] for event in read_sealed_events(path)] == [
            [0], [1], [3], [4], [5]
        ]


# ----------------------------------------------------------------------
# Tamper detection: exact first divergent index
# ----------------------------------------------------------------------

class TestTamperDetection:
    @pytest.mark.parametrize("target_event", [0, 5, 12])
    def test_byte_flip_fails_at_exact_index(self, tmp_path, target_event):
        path = sealed_run(tmp_path)
        lines = path.read_text().splitlines()
        line_no = event_lines(path)[target_event]
        record = json.loads(lines[line_no])
        record["event"]["timestamp"] += 1e-9  # one perturbed value
        lines[line_no] = canonical_json(record)
        tampered = tmp_path / "flip.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        result = verify_sealed_jsonl(tampered)
        assert not result.ok
        assert result.first_divergent_index == target_event

    @pytest.mark.parametrize("target_event", [0, 7])
    def test_dropped_event_fails_at_exact_index(self, tmp_path, target_event):
        path = sealed_run(tmp_path)
        lines = path.read_text().splitlines()
        del lines[event_lines(path)[target_event]]
        tampered = tmp_path / "drop.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        result = verify_sealed_jsonl(tampered)
        assert not result.ok
        assert result.first_divergent_index == target_event

    @pytest.mark.parametrize("target_event", [0, 9])
    def test_reordered_events_fail_at_exact_index(self, tmp_path, target_event):
        path = sealed_run(tmp_path)
        lines = path.read_text().splitlines()
        indices = event_lines(path)
        a, b = indices[target_event], indices[target_event + 1]
        lines[a], lines[b] = lines[b], lines[a]
        tampered = tmp_path / "swap.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        result = verify_sealed_jsonl(tampered)
        assert not result.ok
        assert result.first_divergent_index == target_event

    def test_truncated_trace_is_unsealed(self, tmp_path):
        path = sealed_run(tmp_path)
        lines = path.read_text().splitlines()
        truncated = tmp_path / "cut.jsonl"
        truncated.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        result = verify_sealed_jsonl(truncated)
        assert not result.ok

    def test_forged_final_seal_head_is_rejected(self, tmp_path):
        path = sealed_run(tmp_path)
        lines = path.read_text().splitlines()
        seal = json.loads(lines[-1])
        assert seal["seal"].get("final")
        seal["seal"]["head"] = "0" * 64
        lines[-1] = canonical_json(seal)
        tampered = tmp_path / "forged.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert not verify_sealed_jsonl(tampered).ok

    def test_content_after_final_seal_is_rejected(self, tmp_path):
        path = sealed_run(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"i": 999, "event": {}, "chain": "00"}\n')
        assert not verify_sealed_jsonl(path).ok

    @pytest.mark.parametrize(
        "old, new",
        [
            (None, b"not json {"),
            (b"unit_complete", b"unit_\xffomplete"),
            (None, b"[" * 100_000),
            (None, b"[1, 2]"),
            (None, b"7"),
            (None, b"null"),
            (b'"timestamp":1.0', b'"timestamp":NaN'),
            (b'"i":1}', b'"i":true}'),
            (b'"i":1}', b'"i":1.0}'),
        ],
        ids=[
            "not-json",
            "not-utf8",
            "too-deep",
            "array",
            "number",
            "null",
            "nan-body",
            "index-a-boolean",
            "index-a-float",
        ],
    )
    def test_malformed_event_line_fails_at_its_index(self, tmp_path, capsys, old, new):
        """Event 1's line replaced by ``new``, or with ``old`` replaced by it."""
        path = small_sealed(tmp_path)
        lines = path.read_bytes().splitlines()
        line = new if old is None else lines[1].replace(old, new)
        assert line != lines[1]
        lines[1] = line
        path.write_bytes(b"\n".join(lines) + b"\n")
        result = verify_sealed_jsonl(path)
        assert not result.ok
        assert result.first_divergent_index == 1
        assert cli_main(["trace", "verify", str(path)]) == 1
        assert "first divergent event index: 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seal", [5, [1], None], ids=["number", "array", "null"])
    @pytest.mark.parametrize(
        "line_no, index", [(5, 5), (15, 12)], ids=["segment", "final"]
    )
    def test_seal_that_is_not_an_object_fails_at_its_position(
        self, tmp_path, line_no, index, seal
    ):
        edited = rewrite(small_sealed(tmp_path), line_no, canonical_json({"seal": seal}))
        result = verify_sealed_jsonl(edited)
        assert not result.ok
        assert result.first_divergent_index == index

    @pytest.mark.parametrize("line_no, segment", [(5, 0), (11, 1), (14, 2)])
    def test_edited_segment_seal_head_fails_at_its_last_event(
        self, tmp_path, line_no, segment
    ):
        path = small_sealed(tmp_path)
        assert verify_sealed_jsonl(path).ok
        result = verify_sealed_jsonl(edit_seal(path, line_no, head="0" * 64))
        assert not result.ok
        assert f"segment {segment} seal head" in result.error
        assert result.first_divergent_index == line_no - 1 - segment

    def test_foreign_final_seal_algorithm_is_rejected(self, tmp_path):
        edited = edit_seal(small_sealed(tmp_path), 15, algorithm="md5-chain-v0")
        result = verify_sealed_jsonl(edited)
        assert not result.ok
        assert "'md5-chain-v0'" in result.error

    @pytest.mark.parametrize(
        "count, index",
        [("x", 12), (True, 12), (None, 12), (-4, 0), (9, 9), (14, 12)],
        ids=["string", "boolean", "null", "negative", "too-small", "too-large"],
    )
    def test_final_seal_with_a_wrong_event_count_is_rejected(
        self, tmp_path, count, index
    ):
        edited = edit_seal(small_sealed(tmp_path), 15, events=count)
        result = verify_sealed_jsonl(edited)
        assert not result.ok
        assert result.events == 12
        assert result.first_divergent_index == index


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestTraceCLI:
    def test_record_then_verify_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert (
            cli_main(
                [
                    "trace",
                    "record",
                    "--out",
                    str(out),
                    "--max-rounds",
                    "3",
                    "--agents",
                    "6",
                ]
            )
            == 0
        )
        assert cli_main(["trace", "verify", str(out)]) == 0
        captured = capsys.readouterr()
        assert "OK" in captured.out
        # single-byte mutation → exit 1 with the exact divergent index
        lines = out.read_text().splitlines()
        line_no = event_lines(out)[2]
        lines[line_no] = lines[line_no].replace('"kind":"', '"kind":"x', 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert cli_main(["trace", "verify", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "first divergent event index: 2" in captured.err


# ----------------------------------------------------------------------
# Run-history audit records
# ----------------------------------------------------------------------

class TestHistoryAuditRecord:
    def _history(self):
        scenario = dict(SCENARIO, max_rounds=4)
        return ExperimentRunner(ScenarioConfig(**scenario)).run_method("ComDML")

    def test_audit_record_verifies_and_extends_digest(self):
        history = self._history()
        record = history.audit_record()
        assert record["algorithm"] == ALGORITHM
        assert record["digest"] == history.digest()
        assert len(record["rounds"]) == len(history)
        assert verify_history_record(record).ok

    def test_tampered_round_localised_exactly(self):
        record = self._history().audit_record()
        record["rounds"][2]["record"]["accuracy"] += 1e-12
        result = verify_history_record(record)
        assert not result.ok
        assert result.first_divergent_index == 2

    def test_tampered_head_is_rejected(self):
        record = self._history().audit_record()
        record["head"] = "f" * 64
        assert not verify_history_record(record)


# ----------------------------------------------------------------------
# Campaign summary chain
# ----------------------------------------------------------------------

def _fake_campaign_result() -> CampaignResult:
    spec = CampaignSpec.create(
        name="audit-demo",
        runner="demo:run",
        axes={"x": (1, 2, 3)},
        base={},
    )
    cells = []
    for index, x in enumerate((1, 2, 3)):
        payload = {"x": x, "value": x * x}
        cells.append(
            CellResult(
                index=index,
                params={"x": x},
                key=f"key-{index}",
                status="miss",
                payload=payload,
                elapsed_seconds=0.0,
                payload_digest=canonical_digest(payload),
            )
        )
    return CampaignResult(
        spec=spec, cells=tuple(cells), wall_seconds=0.1, jobs=1
    )


class TestCampaignSummaryChain:
    def test_summary_chain_verifies_clean(self):
        summary = campaign_summary(_fake_campaign_result())
        assert verify_campaign_summary(summary).ok
        assert summary["digest"] == summary["per_cell"][-1]["chain"]
        assert all(len(r["payload_digest"]) == 64 for r in summary["per_cell"])

    def test_tampered_cell_digest_localised(self):
        summary = campaign_summary(_fake_campaign_result())
        summary["per_cell"][1]["payload_digest"] = "0" * 64
        result = verify_campaign_summary(summary)
        assert not result.ok
        assert result.first_divergent_index == 1

    def test_tampered_overall_digest_rejected(self):
        summary = campaign_summary(_fake_campaign_result())
        summary["digest"] = "0" * 64
        assert not verify_campaign_summary(summary)

    def test_summary_consumes_streamed_digests(self):
        """The summary uses the digest stamped on each CellResult."""
        result = _fake_campaign_result()
        summary = campaign_summary(result)
        for cell, row in zip(result.cells, summary["per_cell"]):
            assert row["payload_digest"] == cell.payload_digest
