"""Figure 3 reproduction: limited connectivity (20 % of full-graph links).

50 agents connected by a random topology that keeps only 20 % of the
complete graph's links, on the three I.I.D. datasets.  The figure compares
total training time (to the same targets as Table II's I.I.D. columns)
across methods; ComDML's decentralized pairing keeps working because agents
only ever need to pair with a *connected* neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.experiments.campaign import (
    CampaignPreset,
    CampaignResult,
    CampaignSpec,
    execute_campaign,
)
from repro.experiments.runner import ExperimentRunner, PAPER_COMPARISON_METHODS
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.table2 import TABLE2_TARGETS

#: Fraction of full-graph links retained in the random topology.
FIG3_LINK_FRACTION = 0.2

#: Number of agents in the Figure 3 experiment.
FIG3_NUM_AGENTS = 50


@dataclass(frozen=True)
class Fig3Bar:
    """One bar of Figure 3: a (dataset, method) total training time."""

    dataset: str
    method: str
    target_accuracy: float
    time_to_target_seconds: Optional[float]
    total_time_seconds: float
    final_accuracy: float


def run_fig3_dataset(
    dataset: str,
    methods: Sequence[str] = PAPER_COMPARISON_METHODS,
    num_agents: int = FIG3_NUM_AGENTS,
    link_fraction: float = FIG3_LINK_FRACTION,
    max_rounds: int = 1_800,
    participation_fraction: float = 0.2,
    samples_per_agent: int = 500,
    seed: int = 0,
) -> list[Fig3Bar]:
    """Run every method on one dataset under the limited-connectivity topology.

    The setting mirrors the 50-agent scalability experiments (fixed 500-sample
    shards, 20 % participation); ``max_rounds`` is generous so that even the
    slow-mixing gossip baseline reaches the target.
    """
    target = TABLE2_TARGETS[(dataset, True)]
    config = ScenarioConfig(
        num_agents=num_agents,
        dataset=dataset,
        model="resnet56",
        iid=True,
        topology="random",
        link_fraction=link_fraction,
        participation_fraction=participation_fraction,
        target_accuracy=target,
        max_rounds=max_rounds,
        offload_granularity=9,
        samples_per_agent=samples_per_agent,
        seed=seed,
    )
    runner = ExperimentRunner(config)
    results = runner.compare(list(methods))
    bars: list[Fig3Bar] = []
    for method, history in results.items():
        bars.append(
            Fig3Bar(
                dataset=dataset,
                method=method,
                target_accuracy=target,
                time_to_target_seconds=history.time_to_accuracy(target),
                total_time_seconds=history.total_time,
                final_accuracy=history.final_accuracy,
            )
        )
    return bars


# ----------------------------------------------------------------------
# Campaign integration: spec builder, cell runner, post-processor
# ----------------------------------------------------------------------

def campaign_spec(
    datasets: Sequence[str] = ("cifar10", "cifar100", "cinic10"),
    methods: Sequence[str] = PAPER_COMPARISON_METHODS,
    num_agents: int = FIG3_NUM_AGENTS,
    max_rounds: int = 1_800,
    seed: int = 0,
) -> CampaignSpec:
    """Declare the Figure 3 grid: dataset × method."""
    return CampaignSpec.create(
        name="fig3",
        runner="fig3-bar",
        axes={"dataset": tuple(datasets), "method": tuple(methods)},
        base={"num_agents": num_agents, "max_rounds": max_rounds, "seed": seed},
    )


def run_campaign_cell(
    dataset: str,
    method: str,
    num_agents: int = FIG3_NUM_AGENTS,
    max_rounds: int = 1_800,
    seed: int = 0,
) -> dict[str, Any]:
    """One (dataset, method) bar as a JSON payload."""
    [bar] = run_fig3_dataset(
        dataset=dataset,
        methods=(method,),
        num_agents=num_agents,
        max_rounds=max_rounds,
        seed=seed,
    )
    return bar.__dict__


def bars_from_campaign(result: CampaignResult) -> list[Fig3Bar]:
    """Post-process a finished Figure 3 campaign into its bars."""
    return [Fig3Bar(**payload) for payload in result.payloads()]


CAMPAIGN_PRESET = CampaignPreset(
    build_spec=campaign_spec,
    format_result=lambda result: format_fig3(bars_from_campaign(result)),
)


def run_fig3(
    datasets: Sequence[str] = ("cifar10", "cifar100", "cinic10"),
    methods: Sequence[str] = PAPER_COMPARISON_METHODS,
    num_agents: int = FIG3_NUM_AGENTS,
    max_rounds: int = 1_800,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    on_event=None,
) -> list[Fig3Bar]:
    """Run the full Figure 3 series (all datasets, all methods)."""
    spec = campaign_spec(
        datasets=datasets,
        methods=methods,
        num_agents=num_agents,
        max_rounds=max_rounds,
        seed=seed,
    )
    result = execute_campaign(spec, jobs=jobs, cache_dir=cache_dir, on_event=on_event)
    return bars_from_campaign(result)


def format_fig3(bars: Sequence[Fig3Bar]) -> str:
    """Render the Figure 3 series as a dataset × method table of times."""
    datasets = list(dict.fromkeys(bar.dataset for bar in bars))
    methods = list(dict.fromkeys(bar.method for bar in bars))
    lookup = {(bar.dataset, bar.method): bar for bar in bars}
    header = "Method".ljust(18) + "".join(dataset.rjust(16) for dataset in datasets)
    lines = [header, "-" * len(header)]
    for method in methods:
        row = method.ljust(18)
        for dataset in datasets:
            bar = lookup.get((dataset, method))
            if bar is None or bar.time_to_target_seconds is None:
                row += "n/a".rjust(16)
            else:
                row += f"{bar.time_to_target_seconds:.0f}".rjust(16)
        lines.append(row)
    return "\n".join(lines)
