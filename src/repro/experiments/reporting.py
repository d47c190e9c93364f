"""Result formatting helpers shared by the benchmark harnesses and examples.

Besides the aligned plain-text tables (:func:`format_table`) and the
speedup arithmetic the CLI prints, this module renders the runtime's
:class:`~repro.runtime.trace.EventTrace` for human consumption:
per-agent timelines (:func:`per_agent_timelines`,
:func:`format_agent_timeline`), a per-round dynamics summary
(:func:`format_dynamics_summary`), and the compact arrival/churn/departure
annotation string (:func:`dynamics_annotation`) shown as the ``events``
column of ``comdml compare``.  Campaign runs get two aggregation
surfaces with deliberately different guarantees:

* :func:`campaign_summary` — the *deterministic* result summary
  (per-cell payload digests and an overall campaign digest).  Its bytes
  are identical for the same spec regardless of job count, execution
  path, or cache state, which is what the CI campaign smoke asserts on.
* :func:`execution_report` — the *run-dependent* facts: execution path,
  cache hit/miss counts, wall-clock time and speedup, per-cell status and
  timings.

Live campaigns stream through :class:`CampaignProgressRenderer`, the
consumer for cell events (``cell_started``, ``cell_finished``,
``cell_failed``, ``cell_cached``): a refreshing status line on a TTY, one
line per event otherwise.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Mapping, Optional, Sequence, TextIO

from repro.experiments.campaign import CampaignResult
from repro.experiments.campaign import cell_payload_digest as payload_digest
from repro.runtime.audit import ChainState
from repro.runtime.dynamics import DYNAMICS_KINDS
from repro.runtime.sinks import CallbackSink
from repro.runtime.trace import EventTrace, TraceEvent
from repro.training.metrics import RunHistory

#: Trace kinds counted as scenario dynamics in annotations/summaries —
#: exactly the event kinds a DynamicsSchedule can produce.
DYNAMICS_TRACE_KINDS = DYNAMICS_KINDS


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.0f}",
) -> str:
    """Render a list of row dictionaries as an aligned plain-text table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), max(len(cells[i]) for cells in rendered))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        "  ".join(cells[i].rjust(widths[i]) for i in range(len(columns)))
        for cells in rendered
    )
    return f"{header}\n{separator}\n{body}"


def time_to_target_or_total(history: RunHistory, target: Optional[float]) -> float:
    """Time to reach the target accuracy, falling back to the run's total time."""
    if target is not None:
        reached = history.time_to_accuracy(target)
        if reached is not None:
            return reached
    return history.total_time


def speedup_over_baselines(
    results: Mapping[str, RunHistory],
    target: Optional[float],
    reference_method: str = "ComDML",
) -> dict[str, float]:
    """Per-baseline speedup factor of the reference method (>1 means faster)."""
    if reference_method not in results:
        raise KeyError(f"{reference_method!r} not present in results")
    reference_time = time_to_target_or_total(results[reference_method], target)
    speedups: dict[str, float] = {}
    for method, history in results.items():
        if method == reference_method:
            continue
        baseline_time = time_to_target_or_total(history, target)
        speedups[method] = baseline_time / reference_time if reference_time > 0 else float("inf")
    return speedups


def reduction_percentage(reference_time: float, baseline_time: float) -> float:
    """Percentage reduction of the reference vs a baseline (the paper's "up to 71 %")."""
    if baseline_time <= 0:
        return 0.0
    return 100.0 * (1.0 - reference_time / baseline_time)


# ----------------------------------------------------------------------
# EventTrace rendering
# ----------------------------------------------------------------------

def _event_row(event: TraceEvent) -> dict[str, Any]:
    return {
        "t (s)": round(event.timestamp, 1),
        "round": event.round_index,
        "event": event.kind,
        "agents": ",".join(str(agent_id) for agent_id in event.agent_ids),
    }


def per_agent_timelines(trace: EventTrace) -> dict[int, list[dict[str, Any]]]:
    """JSON-serialisable per-agent timelines of a runtime trace.

    One chronological event list per agent the trace mentions; round-level
    events (``round_start``, ``quorum_reached``, …) carry no agent ids and
    are therefore not part of any per-agent timeline.
    """
    timelines: dict[int, list[dict[str, Any]]] = {
        agent_id: [] for agent_id in trace.agent_ids()
    }
    for event, payload in zip(trace, trace.to_dicts()):
        for agent_id in event.agent_ids:
            timelines[agent_id].append(payload)
    return timelines


def export_trace_json(trace: EventTrace, path: str) -> None:
    """Write the full trace plus per-agent timelines to a JSON file."""
    payload = {
        "events": trace.to_dicts(),
        "per_agent": per_agent_timelines(trace),
        "kind_counts": trace.kind_counts(),
        "dropped_events": trace.dropped_events,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def format_agent_timeline(
    trace: EventTrace, agent_id: int, max_rows: int = 30
) -> str:
    """One agent's chronological trace as an aligned plain-text table."""
    events = trace.for_agent(agent_id)
    rows = [_event_row(event) for event in events[:max_rows]]
    if not rows:
        return f"(no events for agent {agent_id})"
    table = format_table(rows, float_format="{:.1f}")
    if len(events) > max_rows:
        table += f"\n... and {len(events) - max_rows} more"
    return f"agent {agent_id} timeline\n{table}"


class StreamingTraceSummary:
    """Incremental trace consumer: summary figures without event retention.

    Attach via :meth:`sink` as an extra pipeline sink and the summary
    accumulates kind counts and per-round dynamics tallies *as the run
    executes* — memory stays O(rounds), so a capped (or even empty)
    in-memory view no longer limits reporting.  The rendering helpers
    (:func:`dynamics_annotation`, :func:`format_dynamics_summary`) accept a
    summary anywhere they accept a trace.
    """

    #: Kinds tallied per round (matches the dynamics summary table).
    TRACKED = DYNAMICS_TRACE_KINDS + (
        "unit_repriced",
        "unit_abandoned",
        "straggler_dropped",
    )

    def __init__(self) -> None:
        self.events = 0
        self._kind_counts: dict[str, int] = {}
        self.per_round: dict[int, dict[str, int]] = {}
        self._sink: Optional[CallbackSink] = None

    def consume(self, event: TraceEvent) -> None:
        """Fold one event into the running summary."""
        self.events += 1
        self._kind_counts[event.kind] = self._kind_counts.get(event.kind, 0) + 1
        if event.kind in self.TRACKED:
            counts = self.per_round.setdefault(
                event.round_index, {kind: 0 for kind in self.TRACKED}
            )
            counts[event.kind] += 1

    def sink(self, name: str = "summary") -> CallbackSink:
        """The pipeline sink that feeds this summary."""
        self._sink = CallbackSink(self.consume, name=name)
        return self._sink

    @property
    def dropped_events(self) -> int:
        """Events the summary's sink dropped, so its tallies miss them.

        The sink drops an event only when :meth:`consume` raises; the
        trace's in-memory cap does not limit the summary.
        """
        return self._sink.dropped if self._sink is not None else 0

    def kind_counts(self) -> dict[str, int]:
        """Histogram of consumed event kinds."""
        return dict(self._kind_counts)


def dynamics_annotation(trace: "EventTrace | StreamingTraceSummary") -> str:
    """Compact arrival/churn/departure summary, e.g. ``"2 arr · 1 dep · 3 churn"``.

    Accepts an event trace or a :class:`StreamingTraceSummary`.  Returns
    ``"-"`` when there are no dynamics events, so the string can be used
    directly as a table cell.
    """
    counts = trace.kind_counts()
    parts = []
    for kind, label in (
        ("arrival", "arr"),
        ("departure", "dep"),
        ("churn", "churn"),
    ):
        if counts.get(kind, 0):
            parts.append(f"{counts[kind]} {label}")
    return " · ".join(parts) if parts else "-"


def _per_round_dynamics(
    trace: "EventTrace | StreamingTraceSummary",
) -> dict[int, dict[str, int]]:
    """Per-round dynamics tallies from a trace or a streaming summary."""
    if isinstance(trace, StreamingTraceSummary):
        return trace.per_round
    per_round: dict[int, dict[str, int]] = {}
    tracked = StreamingTraceSummary.TRACKED
    for event in trace:
        if event.kind not in tracked:
            continue
        counts = per_round.setdefault(event.round_index, {k: 0 for k in tracked})
        counts[event.kind] += 1
    return per_round


def format_dynamics_summary(trace: "EventTrace | StreamingTraceSummary") -> str:
    """Per-round table of dynamics events and their casualties.

    One row per round that saw an arrival, departure, churn, re-cost,
    abandoned unit or dropped straggler — the observability surface for
    :class:`~repro.runtime.dynamics.DynamicsSchedule` runs.  Accepts an
    event trace or a :class:`StreamingTraceSummary`.  When the tallies
    miss events (a trace's in-memory cap, a summary sink's failed
    deliveries), the count is stated below the table — truncation is
    never silent.
    """
    per_round = _per_round_dynamics(trace)
    dropped = getattr(trace, "dropped_events", 0)
    suffix = (
        f"\n({dropped} trace events dropped by capacity; "
        "tallies reflect retained events only)"
        if dropped
        else ""
    )
    if not per_round:
        return "(no dynamics events)" + suffix
    rows = [
        {
            "round": round_index,
            "arrivals": counts["arrival"],
            "departures": counts["departure"],
            "churn": counts["churn"],
            "repriced": counts["unit_repriced"],
            "abandoned": counts["unit_abandoned"],
            "dropped": counts["straggler_dropped"],
        }
        for round_index, counts in sorted(per_round.items())
    ]
    return format_table(rows) + suffix


# ----------------------------------------------------------------------
# Campaign-level aggregation
# ----------------------------------------------------------------------

def cell_label(params: Mapping[str, Any], axes: Sequence[str]) -> str:
    """Compact per-cell label built from the campaign's axis values."""
    if not axes:
        return "-"
    return ", ".join(f"{axis}={params.get(axis)}" for axis in axes)


def campaign_summary(result: "CampaignResult") -> dict[str, Any]:
    """The *deterministic* summary of a campaign's results.

    Contains only facts that are a pure function of the spec and the
    runner code — cell keys and payload digests, folded through the audit
    hash chain of :mod:`repro.runtime.audit` — and none of how the run
    happened (execution path, jobs, cache state, timing: see
    :func:`execution_report`).  The CI campaign smoke asserts these bytes
    are identical for the ``serial`` and ``process`` paths.

    Each ``per_cell`` row carries its payload digest (streamed from the
    executor as results arrive, re-derived here as a fallback) plus the
    chain head after folding it in; ``digest`` is the final head, so
    :func:`repro.runtime.audit.verify_campaign_summary` localises any
    tampering to the exact first divergent cell.
    """
    axes = [axis for axis, _ in result.spec.axes]
    chain = ChainState()
    per_cell = []
    for cell in result.cells:
        digest = getattr(cell, "payload_digest", None) or payload_digest(
            cell.payload
        )
        per_cell.append(
            {
                "index": cell.index,
                "cell": cell_label(cell.params, axes),
                "key": cell.key,
                "payload_digest": digest,
                "chain": chain.update(digest),
            }
        )
    return {
        "name": result.spec.name,
        "runner": result.spec.runner,
        "cells": len(result.cells),
        "digest": chain.head,
        "per_cell": per_cell,
    }


def aggregate_planner_reports(
    payloads: Sequence[Any],
) -> Optional[dict[str, Any]]:
    """Fold per-cell planner stats into one campaign-wide view.

    Cells whose payload carries a ``"planner"`` dict (see
    :meth:`repro.core.comdml.ComDML.planner_report`) contribute to the
    aggregate: numeric counters sum across cells; anything else is
    dropped.  Returns ``None`` when no cell reported planner stats.
    """
    aggregate: dict[str, Any] = {}
    reported = 0
    for payload in payloads:
        if isinstance(payload, Mapping) and isinstance(
            payload.get("planner"), Mapping
        ):
            for key, value in payload["planner"].items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    aggregate[key] = aggregate.get(key, 0) + value
            reported += 1
    if not reported:
        return None
    aggregate["cells_reporting"] = reported
    return aggregate


def execution_report(result: "CampaignResult") -> dict[str, Any]:
    """The *run-dependent* report of one campaign execution.

    Everything :func:`campaign_summary` deliberately leaves out: which
    execution path ran the sweep (``backend``: ``serial`` or ``process``),
    cache hit/miss counts, wall-clock time and speedup, per-cell status
    and compute time, and — when cells report planner stats — the
    aggregated planner counters (``planner`` key, see
    :func:`aggregate_planner_reports`).
    """
    axes = [axis for axis, _ in result.spec.axes]
    return {
        "name": result.spec.name,
        "backend": result.backend,
        "jobs": result.jobs,
        "cache_dir": result.cache_dir,
        "cells": len(result.cells),
        "cache_hits": result.hits,
        "cache_misses": result.misses,
        "wall_seconds": result.wall_seconds,
        "cell_seconds": result.cell_seconds,
        "speedup": result.speedup,
        "events": dict(result.event_counts),
        "planner": aggregate_planner_reports(
            [cell.payload for cell in result.cells]
        ),
        "per_cell": [
            {
                "index": cell.index,
                "cell": cell_label(cell.params, axes),
                "status": cell.status,
                "elapsed_seconds": cell.elapsed_seconds,
                "key": cell.key[:12],
            }
            for cell in result.cells
        ],
    }


def format_campaign_summary(result: "CampaignResult", verbose: bool = False) -> str:
    """Render a campaign run: headline counters, plus per-cell rows if verbose."""
    report = execution_report(result)
    headline = (
        f"campaign {report['name']}: {report['cells']} cells "
        f"({report['cache_hits']} cached, {report['cache_misses']} computed) "
        f"in {report['wall_seconds']:.2f}s wall "
        f"[backend={report['backend']}, jobs={report['jobs']}, "
        f"{report['speedup']:.2f}x vs serial cold run]"
    )
    lines = [headline]
    if verbose and report["per_cell"]:
        lines.append(format_table(report["per_cell"], float_format="{:.3f}"))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Live campaign progress
# ----------------------------------------------------------------------

class CampaignProgressRenderer:
    """Stream cell events to a terminal as the campaign executes.

    On a TTY (``live=True``) a single status line is redrawn in place —
    computed/cached/failed counters and the number of in-flight cells;
    cell failures still get a full line each so they survive in the
    scrollback.  On a non-TTY (CI logs, redirects) every event becomes
    one plain line.  Pass the instance as ``on_event`` to
    :class:`~repro.experiments.campaign.CampaignExecutor` and call
    :meth:`close` when the run returns.
    """

    def __init__(
        self,
        total_cells: int,
        name: str = "",
        axes: Sequence[str] = (),
        stream: Optional[TextIO] = None,
        live: Optional[bool] = None,
    ) -> None:
        self.total = total_cells
        self.name = name
        self.axes = list(axes)
        self.stream = stream if stream is not None else sys.stderr
        if live is None:
            live = bool(getattr(self.stream, "isatty", lambda: False)())
        self.live = live
        self.done = 0
        self.cached = 0
        self.failed = 0
        self.running: set[int] = set()
        self._labels: dict[int, str] = {}
        self._status_shown = False

    # ------------------------------------------------------------------
    def _label(self, index: int) -> str:
        return self._labels.get(index, f"#{index}")

    def _println(self, text: str) -> None:
        if self.live and self._status_shown:
            self.stream.write("\r\x1b[2K")
        self.stream.write(text + "\n")
        self._status_shown = False
        if self.live:
            self._render_status()
        self.stream.flush()

    def _render_status(self) -> None:
        finished = self.done + self.cached + self.failed
        parts = [
            f"{self.name or 'campaign'}: {finished}/{self.total}",
            f"{self.done} computed",
            f"{self.cached} cached",
        ]
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        if self.running:
            parts.append(f"{len(self.running)} running")
        self.stream.write("\r\x1b[2K" + " · ".join(parts))
        self._status_shown = True
        self.stream.flush()

    # ------------------------------------------------------------------
    def __call__(self, event: Any) -> None:
        kind = getattr(event, "kind", "")
        if kind == "cell_started":
            self._labels[event.index] = cell_label(event.params, self.axes)
            self.running.add(event.index)
            if not self.live:
                self._println(
                    f"[{self.name}] cell {event.index} started "
                    f"({self._label(event.index)})"
                )
            else:
                self._render_status()
        elif kind == "cell_finished":
            self.running.discard(event.index)
            self.done += 1
            if not self.live:
                self._println(
                    f"[{self.name}] cell {event.index} finished "
                    f"in {event.elapsed_seconds:.2f}s ({self._label(event.index)})"
                )
            else:
                self._render_status()
        elif kind == "cell_cached":
            self.cached += 1
            if not self.live:
                self._println(f"[{self.name}] cell {event.index} cached")
            else:
                self._render_status()
        elif kind == "cell_failed":
            self.running.discard(event.index)
            self.failed += 1
            self._println(
                f"[{self.name}] cell {event.index} FAILED: {event.error}"
            )

    def close(self) -> None:
        """Terminate the status line so the next print starts clean."""
        if self.live and self._status_shown:
            self.stream.write("\n")
            self._status_shown = False
            self.stream.flush()


def progress_renderer_for(
    spec: Any,
    enabled: Optional[bool] = None,
    stream: Optional[TextIO] = None,
) -> Optional[CampaignProgressRenderer]:
    """Build a renderer for a spec, honouring the ``--progress`` tri-state.

    ``enabled=None`` (auto) turns progress on only when the stream is a
    TTY — CI logs and redirected output stay clean unless ``--progress``
    is passed explicitly.  Returns ``None`` when progress is off.
    """
    out = stream if stream is not None else sys.stderr
    if enabled is None:
        enabled = bool(getattr(out, "isatty", lambda: False)())
    if not enabled:
        return None
    return CampaignProgressRenderer(
        total_cells=spec.num_cells,
        name=spec.name,
        axes=[axis for axis, _ in spec.axes],
        stream=out,
    )
