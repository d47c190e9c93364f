"""Table I reproduction: 2-agent training with varying layer offloading.

Two agents train ResNet-56 on CIFAR-10-scale shards to a 90 % target, with a
fixed number of layers offloaded from the slower to the faster agent.  Two
resource settings are evaluated:

* setting 1 — fast agent 2 CPUs, slow agent 0.25 CPU, 50 Mbps link;
* setting 2 — fast agent 2 CPUs, slow agent 1 CPU, 100 Mbps link.

For every offload choice the harness reports the fast agent's training time,
the communication time, the combined idle time and the total time, all summed
over the rounds needed to reach the target — the same four columns as the
paper's Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.agents.agent import Agent
from repro.experiments.campaign import (
    CampaignPreset,
    CampaignResult,
    CampaignSpec,
    execute_campaign,
)
from repro.agents.resources import ResourceProfile
from repro.core.profiling import SplitProfile, profile_architecture
from repro.core.workload import estimate_offload_time
from repro.models.resnet import resnet56_spec
from repro.network.allreduce import allreduce_time
from repro.training.curves import LearningCurveModel, curve_preset_for
from repro.utils.units import mbps_to_bytes_per_second

#: The offload options listed in the paper's Table I.
TABLE1_OFFLOAD_OPTIONS = (0, 1, 10, 19, 28, 37, 46, 55)

#: Target accuracy of the Table I experiment.
TABLE1_TARGET_ACCURACY = 0.90


@dataclass(frozen=True)
class Table1Setting:
    """One resource setting (columns group) of Table I."""

    name: str
    fast_cpu: float
    slow_cpu: float
    bandwidth_mbps: float


TABLE1_SETTINGS = (
    Table1Setting("setting1", fast_cpu=2.0, slow_cpu=0.25, bandwidth_mbps=50.0),
    Table1Setting("setting2", fast_cpu=2.0, slow_cpu=1.0, bandwidth_mbps=100.0),
)


@dataclass(frozen=True)
class Table1Row:
    """One (offload, setting) cell group of Table I."""

    setting: str
    layers_offloaded: int
    fast_train_seconds: float
    communication_seconds: float
    idle_seconds: float
    total_seconds: float
    rounds: int


def _rounds_to_target(offloaded_layers: int, seed: int) -> int:
    """Rounds to 90 % accuracy (split training pays a small efficiency cost)."""
    preset = curve_preset_for("cifar10", "resnet56")
    method = "comdml" if offloaded_layers > 0 else "allreduce"
    curve = LearningCurveModel(preset=preset, method=method, iid=True, noise_scale=0.0)
    return curve.rounds_to_accuracy(TABLE1_TARGET_ACCURACY)


def run_setting(
    setting: Table1Setting,
    offload_options: tuple[int, ...] = TABLE1_OFFLOAD_OPTIONS,
    samples_per_agent: int = 25_000,
    batch_size: int = 100,
    seed: int = 0,
    profile: SplitProfile | None = None,
) -> list[Table1Row]:
    """Run one resource setting of Table I and return its rows."""
    spec = resnet56_spec()
    if profile is None:
        profile = profile_architecture(spec, offload_options=offload_options)
    bandwidth = mbps_to_bytes_per_second(setting.bandwidth_mbps)

    slow_agent = Agent(
        agent_id=0,
        profile=ResourceProfile(cpu_share=setting.slow_cpu, bandwidth_mbps=setting.bandwidth_mbps),
        num_samples=samples_per_agent,
        batch_size=batch_size,
    )
    fast_agent = Agent(
        agent_id=1,
        profile=ResourceProfile(cpu_share=setting.fast_cpu, bandwidth_mbps=setting.bandwidth_mbps),
        num_samples=samples_per_agent,
        batch_size=batch_size,
    )

    aggregation_per_round = allreduce_time(
        model_bytes=profile.full_model_bytes,
        num_agents=2,
        bottleneck_bandwidth_bytes_per_second=bandwidth,
    )

    rows: list[Table1Row] = []
    for offloaded in offload_options:
        estimate = estimate_offload_time(
            slow_agent=slow_agent,
            fast_agent=fast_agent,
            offloaded_layers=offloaded,
            profile=profile,
            bandwidth_bytes_per_second=bandwidth,
        )
        rounds = _rounds_to_target(offloaded, seed)
        fast_train = (estimate.fast_own_time + estimate.fast_offload_time) * rounds
        communication = (estimate.communication_time + aggregation_per_round) * rounds
        idle = estimate.idle_time * rounds
        total = (estimate.pair_time + aggregation_per_round) * rounds
        rows.append(
            Table1Row(
                setting=setting.name,
                layers_offloaded=offloaded,
                fast_train_seconds=fast_train,
                communication_seconds=communication,
                idle_seconds=idle,
                total_seconds=total,
                rounds=rounds,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Campaign integration: spec builder, cell runner, post-processor
# ----------------------------------------------------------------------

def campaign_spec(
    settings: Optional[Sequence[str]] = None,
    samples_per_agent: int = 25_000,
    seed: int = 0,
) -> CampaignSpec:
    """Declare the Table I grid: one cell per resource setting."""
    names = (
        tuple(settings)
        if settings is not None
        else tuple(setting.name for setting in TABLE1_SETTINGS)
    )
    return CampaignSpec.create(
        name="table1",
        runner="table1-setting",
        axes={"setting": names},
        base={"samples_per_agent": samples_per_agent, "seed": seed},
    )


def run_campaign_cell(
    setting: str,
    samples_per_agent: int = 25_000,
    seed: int = 0,
) -> dict[str, Any]:
    """One resource setting's full offload sweep as a JSON payload."""
    by_name = {entry.name: entry for entry in TABLE1_SETTINGS}
    try:
        resolved = by_name[setting]
    except KeyError:
        raise KeyError(
            f"unknown Table I setting {setting!r}; expected one of {sorted(by_name)}"
        ) from None
    rows = run_setting(resolved, samples_per_agent=samples_per_agent, seed=seed)
    return {"setting": setting, "rows": [row.__dict__ for row in rows]}


def results_from_campaign(result: CampaignResult) -> dict[str, list[Table1Row]]:
    """Post-process a finished Table I campaign into ``{setting: rows}``."""
    return {
        payload["setting"]: [Table1Row(**row) for row in payload["rows"]]
        for payload in result.payloads()
    }


CAMPAIGN_PRESET = CampaignPreset(
    build_spec=campaign_spec,
    format_result=lambda result: format_table1(results_from_campaign(result)),
)


def run_table1(
    samples_per_agent: int = 25_000,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    on_event=None,
) -> dict[str, list[Table1Row]]:
    """Run both settings of Table I; returns ``{setting name: rows}``."""
    spec = campaign_spec(samples_per_agent=samples_per_agent, seed=seed)
    result = execute_campaign(spec, jobs=jobs, cache_dir=cache_dir, on_event=on_event)
    return results_from_campaign(result)


def format_table1(results: dict[str, list[Table1Row]]) -> str:
    """Render Table I in the paper's layout (one row per offload option)."""
    lines = [
        "Layers   | Setting 1: Train    Comm    Idle   Total | "
        "Setting 2: Train    Comm    Idle   Total"
    ]
    settings = list(results.keys())
    by_offload: dict[int, dict[str, Table1Row]] = {}
    for setting_name, rows in results.items():
        for row in rows:
            by_offload.setdefault(row.layers_offloaded, {})[setting_name] = row
    for offloaded in sorted(by_offload):
        cells = [f"{offloaded:>6}   |"]
        for setting_name in settings:
            row = by_offload[offloaded][setting_name]
            cells.append(
                f" {row.fast_train_seconds:>15.0f} {row.communication_seconds:>7.0f} "
                f"{row.idle_seconds:>7.0f} {row.total_seconds:>7.0f} |"
            )
        lines.append("".join(cells))
    return "\n".join(lines)
