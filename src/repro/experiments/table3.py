"""Table III reproduction: scalability with 20 / 50 / 100 agents.

Time to 80 % accuracy on I.I.D. CIFAR-10 for ResNet-56 and ResNet-110, with
a 20 % per-round participation sampling rate, comparing ComDML against the
four baselines.  The paper's headline: increasing the number of agents does
not erode ComDML's advantage.
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
from repro.training.metrics import RunHistory

#: Target accuracy used throughout Table III.
TABLE3_TARGET_ACCURACY = 0.80

#: Agent counts evaluated in the paper.
TABLE3_AGENT_COUNTS = (20, 50, 100)

#: Models evaluated in the paper.
TABLE3_MODELS = ("resnet56", "resnet110")


@dataclass(frozen=True)
class Table3Cell:
    """Result of one (model, agent count, method) cell of Table III."""

    model: str
    num_agents: int
    method: str
    time_to_target_seconds: Optional[float]
    rounds_to_target: Optional[int]
    total_time_seconds: float
    final_accuracy: float


def run_table3_cell(
    model: str,
    num_agents: int,
    methods: Sequence[str] = PAPER_COMPARISON_METHODS,
    max_rounds: int = 900,
    participation_fraction: float = 0.2,
    offload_granularity: int = 9,
    samples_per_agent: int = 500,
    seed: int = 0,
) -> list[Table3Cell]:
    """Run every method for one (model, agent count) combination.

    Each agent holds a fixed-size local shard (``samples_per_agent``), so the
    population grows the total workload — the scalability question the paper
    asks is whether ComDML's advantage survives as more (and therefore more
    often slow) agents join each sampled round.
    """
    config = ScenarioConfig(
        num_agents=num_agents,
        dataset="cifar10",
        model=model,
        iid=True,
        target_accuracy=TABLE3_TARGET_ACCURACY,
        max_rounds=max_rounds,
        participation_fraction=participation_fraction,
        offload_granularity=offload_granularity,
        samples_per_agent=samples_per_agent,
        seed=seed,
    )
    runner = ExperimentRunner(config)
    results = runner.compare(list(methods))
    cells: list[Table3Cell] = []
    for method, history in results.items():
        cells.append(
            Table3Cell(
                model=model,
                num_agents=num_agents,
                method=method,
                time_to_target_seconds=history.time_to_accuracy(TABLE3_TARGET_ACCURACY),
                rounds_to_target=history.rounds_to_accuracy(TABLE3_TARGET_ACCURACY),
                total_time_seconds=history.total_time,
                final_accuracy=history.final_accuracy,
            )
        )
    return cells


# ----------------------------------------------------------------------
# Campaign integration: spec builder, cell runner, post-processor
# ----------------------------------------------------------------------

def campaign_spec(
    models: Sequence[str] = TABLE3_MODELS,
    agent_counts: Sequence[int] = TABLE3_AGENT_COUNTS,
    methods: Sequence[str] = PAPER_COMPARISON_METHODS,
    max_rounds: int = 900,
    seed: int = 0,
) -> CampaignSpec:
    """Declare the Table III grid: model × agent count × method."""
    return CampaignSpec.create(
        name="table3",
        runner="table3-cell",
        axes={
            "model": tuple(models),
            "num_agents": tuple(agent_counts),
            "method": tuple(methods),
        },
        base={"max_rounds": max_rounds, "seed": seed},
    )


def run_campaign_cell(
    model: str,
    num_agents: int,
    method: str,
    max_rounds: int = 900,
    seed: int = 0,
) -> dict[str, Any]:
    """One (model, agent count, method) cell as a JSON payload."""
    [cell] = run_table3_cell(
        model=model,
        num_agents=num_agents,
        methods=(method,),
        max_rounds=max_rounds,
        seed=seed,
    )
    return cell.__dict__


def cells_from_campaign(result: CampaignResult) -> list[Table3Cell]:
    """Post-process a finished Table III campaign into its cells."""
    return [Table3Cell(**payload) for payload in result.payloads()]


CAMPAIGN_PRESET = CampaignPreset(
    build_spec=campaign_spec,
    format_result=lambda result: format_table3(cells_from_campaign(result)),
)


def run_table3(
    models: Sequence[str] = TABLE3_MODELS,
    agent_counts: Sequence[int] = TABLE3_AGENT_COUNTS,
    methods: Sequence[str] = PAPER_COMPARISON_METHODS,
    max_rounds: int = 900,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    on_event=None,
) -> list[Table3Cell]:
    """Run the full Table III grid."""
    spec = campaign_spec(
        models=models,
        agent_counts=agent_counts,
        methods=methods,
        max_rounds=max_rounds,
        seed=seed,
    )
    result = execute_campaign(spec, jobs=jobs, cache_dir=cache_dir, on_event=on_event)
    return cells_from_campaign(result)


def format_table3(cells: Sequence[Table3Cell]) -> str:
    """Render Table III: (model, agents) rows, method columns."""
    methods = list(dict.fromkeys(cell.method for cell in cells))
    keys = sorted({(cell.model, cell.num_agents) for cell in cells})
    lookup = {(cell.model, cell.num_agents, cell.method): cell for cell in cells}
    header = "Model      Agents" + "".join(method.rjust(18) for method in methods)
    lines = [header, "-" * len(header)]
    for model, num_agents in keys:
        row = f"{model:<10} {num_agents:>6}"
        for method in methods:
            cell = lookup.get((model, num_agents, method))
            if cell is None or cell.time_to_target_seconds is None:
                row += "n/a".rjust(18)
            else:
                row += f"{cell.time_to_target_seconds:.0f}".rjust(18)
        lines.append(row)
    return "\n".join(lines)
