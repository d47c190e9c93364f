"""Tests for the rendering/export helpers in experiments.reporting: EventTrace
timelines and summaries, and the live campaign progress renderer."""

import io
import json

from repro.experiments.backends import CellCached, CellFailed, CellFinished, CellStarted
from repro.experiments.reporting import (
    CampaignProgressRenderer,
    dynamics_annotation,
    export_trace_json,
    format_agent_timeline,
    format_dynamics_summary,
    per_agent_timelines,
)
from repro.runtime.trace import EventTrace


def sample_trace() -> EventTrace:
    trace = EventTrace()
    trace.record(0.0, 0, "round_start")
    trace.record(5.0, 0, "churn", (1, 2), detail={"source": "schedule"})
    trace.record(6.0, 0, "unit_repriced", (1,), detail={"old_completion": 10.0, "new_completion": 12.0})
    trace.record(8.0, 0, "arrival", (7,), detail={"num_samples": 500})
    trace.record(12.0, 0, "unit_complete", (1,), detail={"duration": 12.0})
    trace.record(12.0, 0, "round_end", detail={"accuracy": 0.1, "duration": 12.0})
    trace.record(13.0, 1, "departure", (2,))
    trace.record(13.0, 1, "straggler_dropped", (3,), detail={"projected_completion": 20.0})
    return trace


class TestPerAgentTimelines:
    def test_every_mentioned_agent_gets_a_chronological_timeline(self):
        timelines = per_agent_timelines(sample_trace())
        assert set(timelines) == {1, 2, 3, 7}
        assert [event["kind"] for event in timelines[1]] == [
            "churn",
            "unit_repriced",
            "unit_complete",
        ]
        for events in timelines.values():
            timestamps = [event["timestamp"] for event in events]
            assert timestamps == sorted(timestamps)

    def test_round_level_events_belong_to_no_agent(self):
        timelines = per_agent_timelines(sample_trace())
        for events in timelines.values():
            assert all(event["kind"] != "round_start" for event in events)


class TestExportTraceJson:
    def test_round_trips_through_json(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.json"
        export_trace_json(trace, str(path))
        payload = json.loads(path.read_text())
        assert len(payload["events"]) == len(trace)
        assert payload["kind_counts"]["churn"] == 1
        assert payload["dropped_events"] == 0
        assert set(payload["per_agent"]) == {"1", "2", "3", "7"}
        assert payload["per_agent"]["7"][0]["kind"] == "arrival"


class TestPlainTextRendering:
    def test_annotation_counts_only_dynamics_kinds(self):
        assert dynamics_annotation(sample_trace()) == "1 arr · 1 dep · 1 churn"
        assert dynamics_annotation(EventTrace()) == "-"

    def test_dynamics_summary_rows_per_round(self):
        summary = format_dynamics_summary(sample_trace())
        assert "round" in summary and "repriced" in summary
        assert format_dynamics_summary(EventTrace()) == "(no dynamics events)"

    def test_agent_timeline_renders_and_caps(self):
        rendered = format_agent_timeline(sample_trace(), 1, max_rows=2)
        assert "agent 1 timeline" in rendered
        assert "... and 1 more" in rendered
        assert format_agent_timeline(sample_trace(), 99) == "(no events for agent 99)"


def drive_renderer(live: bool) -> tuple[CampaignProgressRenderer, str]:
    """Feed one of each cell event kind to a renderer writing to a buffer."""
    stream = io.StringIO()
    renderer = CampaignProgressRenderer(
        total_cells=4, name="demo", axes=["cell_id"], stream=stream, live=live
    )
    for event in (
        CellCached(index=0, key="k0", elapsed_seconds=3.0),
        CellStarted(index=1, key="k1", params={"cell_id": 1}),
        CellStarted(index=2, key="k2", params={"cell_id": 2}),
        CellFinished(index=1, key="k1", payload={}, elapsed_seconds=0.25),
        CellFailed(index=2, key="k2", error="boom", exception=RuntimeError("boom")),
    ):
        renderer(event)
    renderer.close()
    return renderer, stream.getvalue()


class TestCampaignProgressRenderer:
    def test_plain_mode_writes_one_line_per_event(self):
        renderer, text = drive_renderer(live=False)
        assert text == (
            "[demo] cell 0 cached\n"
            "[demo] cell 1 started (cell_id=1)\n"
            "[demo] cell 2 started (cell_id=2)\n"
            "[demo] cell 1 finished in 0.25s (cell_id=1)\n"
            "[demo] cell 2 FAILED: boom\n"
        )
        assert (renderer.done, renderer.cached, renderer.failed) == (1, 1, 1)
        assert renderer.running == set()

    def test_live_mode_redraws_the_status_line_and_keeps_failures(self):
        _, text = drive_renderer(live=True)
        clear = "\r\x1b[2K"
        assert text == (
            clear + "demo: 1/4 · 0 computed · 1 cached"
            + clear + "demo: 1/4 · 0 computed · 1 cached · 1 running"
            + clear + "demo: 1/4 · 0 computed · 1 cached · 2 running"
            + clear + "demo: 2/4 · 1 computed · 1 cached · 1 running"
            + clear + "[demo] cell 2 FAILED: boom\n"
            + clear + "demo: 3/4 · 1 computed · 1 cached · 1 FAILED"
            + "\n"
        )
