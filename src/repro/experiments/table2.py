"""Table II reproduction: 10-agent time-to-accuracy on six dataset settings.

ComDML against Gossip Learning, BrainTorrent, decentralized AllReduce and
FedAvg, with 10 heterogeneous agents (20 % of agents per CPU profile), on
CIFAR-10 / CIFAR-100 / CINIC-10 and their non-I.I.D. (Dirichlet 0.5)
variants.  20 % of agents change their resource profile every 100 rounds.
The reported number is the simulated time (seconds) to reach the paper's
per-dataset target accuracy.
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

#: Target accuracies per (dataset, iid) cell — identical to the paper.
TABLE2_TARGETS: dict[tuple[str, bool], float] = {
    ("cifar10", True): 0.90,
    ("cifar10", False): 0.85,
    ("cifar100", True): 0.65,
    ("cifar100", False): 0.60,
    ("cinic10", True): 0.75,
    ("cinic10", False): 0.65,
}


@dataclass(frozen=True)
class Table2Cell:
    """Result of one (method, dataset, distribution) cell of Table II."""

    method: str
    dataset: str
    iid: bool
    target_accuracy: float
    time_to_target_seconds: Optional[float]
    rounds_to_target: Optional[int]
    total_time_seconds: float
    final_accuracy: float


def _cell_from_history(
    history: RunHistory, dataset: str, iid: bool, target: float
) -> Table2Cell:
    return Table2Cell(
        method=history.method,
        dataset=dataset,
        iid=iid,
        target_accuracy=target,
        time_to_target_seconds=history.time_to_accuracy(target),
        rounds_to_target=history.rounds_to_accuracy(target),
        total_time_seconds=history.total_time,
        final_accuracy=history.final_accuracy,
    )


def run_table2_cell(
    dataset: str,
    iid: bool,
    methods: Sequence[str] = PAPER_COMPARISON_METHODS,
    num_agents: int = 10,
    max_rounds: int = 600,
    seed: int = 0,
) -> list[Table2Cell]:
    """Run every method on one dataset setting of Table II."""
    target = TABLE2_TARGETS[(dataset, iid)]
    config = ScenarioConfig(
        num_agents=num_agents,
        dataset=dataset,
        model="resnet56",
        iid=iid,
        target_accuracy=target,
        max_rounds=max_rounds,
        churn_fraction=0.2,
        churn_interval_rounds=100,
        offload_granularity=6,
        seed=seed,
    )
    runner = ExperimentRunner(config)
    results = runner.compare(list(methods))
    return [
        _cell_from_history(history, dataset, iid, target)
        for history in results.values()
    ]


# ----------------------------------------------------------------------
# Campaign integration: spec builder, cell runner, post-processor
# ----------------------------------------------------------------------

def campaign_spec(
    datasets: Sequence[str] = ("cifar10", "cifar100", "cinic10"),
    distributions: Sequence[bool] = (True, False),
    methods: Sequence[str] = PAPER_COMPARISON_METHODS,
    num_agents: int = 10,
    max_rounds: int = 600,
    seed: int = 0,
) -> CampaignSpec:
    """Declare the Table II grid: dataset × distribution × method."""
    return CampaignSpec.create(
        name="table2",
        runner="table2-cell",
        axes={
            "dataset": tuple(datasets),
            "iid": tuple(distributions),
            "method": tuple(methods),
        },
        base={"num_agents": num_agents, "max_rounds": max_rounds, "seed": seed},
    )


def run_campaign_cell(
    dataset: str,
    iid: bool,
    method: str,
    num_agents: int = 10,
    max_rounds: int = 600,
    seed: int = 0,
) -> dict[str, Any]:
    """One (dataset, distribution, method) cell as a JSON payload.

    Method runs are independent (each builds its own registry and curve
    tracker from the scenario's seed factory), so a single-method cell is
    identical to the same method inside a multi-method sweep.
    """
    [cell] = run_table2_cell(
        dataset=dataset,
        iid=iid,
        methods=(method,),
        num_agents=num_agents,
        max_rounds=max_rounds,
        seed=seed,
    )
    return cell.__dict__


def cell_from_payload(payload: dict[str, Any]) -> Table2Cell:
    """Rebuild a :class:`Table2Cell` from a campaign payload."""
    return Table2Cell(**payload)


def cells_from_campaign(result: CampaignResult) -> list[Table2Cell]:
    """Post-process a finished Table II campaign into its cells."""
    return [cell_from_payload(payload) for payload in result.payloads()]


CAMPAIGN_PRESET = CampaignPreset(
    build_spec=campaign_spec,
    format_result=lambda result: format_table2(cells_from_campaign(result)),
)


def run_table2(
    datasets: Sequence[str] = ("cifar10", "cifar100", "cinic10"),
    distributions: Sequence[bool] = (True, False),
    methods: Sequence[str] = PAPER_COMPARISON_METHODS,
    num_agents: int = 10,
    max_rounds: int = 600,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    on_event=None,
) -> list[Table2Cell]:
    """Run the full Table II grid; returns one cell per (method, dataset, iid)."""
    spec = campaign_spec(
        datasets=datasets,
        distributions=distributions,
        methods=methods,
        num_agents=num_agents,
        max_rounds=max_rounds,
        seed=seed,
    )
    result = execute_campaign(spec, jobs=jobs, cache_dir=cache_dir, on_event=on_event)
    return cells_from_campaign(result)


def format_table2(cells: Sequence[Table2Cell]) -> str:
    """Render the Table II grid: methods as rows, dataset settings as columns."""
    settings = sorted(
        {(cell.dataset, cell.iid) for cell in cells},
        key=lambda item: (item[0], not item[1]),
    )
    methods = list(dict.fromkeys(cell.method for cell in cells))
    lookup = {
        (cell.method, cell.dataset, cell.iid): cell for cell in cells
    }
    header = "Method".ljust(18) + "".join(
        f"{dataset} {'IID' if iid else 'non-IID'}".rjust(20) for dataset, iid in settings
    )
    lines = [header, "-" * len(header)]
    for method in methods:
        row = method.ljust(18)
        for dataset, iid in settings:
            cell = lookup.get((method, dataset, iid))
            if cell is None or cell.time_to_target_seconds is None:
                row += "n/a".rjust(20)
            else:
                row += f"{cell.time_to_target_seconds:.0f}".rjust(20)
        lines.append(row)
    return "\n".join(lines)
