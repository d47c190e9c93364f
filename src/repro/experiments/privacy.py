"""Privacy integration experiment (Section V-B-4).

The paper integrates three privacy mechanisms with ComDML and reports the
resulting model accuracy: distance correlation minimisation (α = 0.5), patch
shuffling, and differential privacy (Laplace, ε = 0.5), each at a small
accuracy cost relative to undefended training.

This harness runs real proxy-model training (small population, synthetic
CIFAR-10-like data) through the full ComDML pipeline — pairing, local-loss
split training, AllReduce averaging — once per privacy configuration, and
reports the final accuracies, mirroring the paper's comparison at reduced
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.agents.registry import AgentRegistry
from repro.experiments.campaign import (
    CampaignPreset,
    CampaignResult,
    CampaignSpec,
    execute_campaign,
)
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.core.profiling import profile_architecture
from repro.data.partition import dirichlet_partition, iid_partition
from repro.data.synthetic import cifar10_like
from repro.models.proxy import ProxyModelFactory
from repro.models.resnet import resnet56_spec
from repro.privacy.differential_privacy import DifferentialPrivacy
from repro.privacy.distance_correlation import DistanceCorrelationDefense
from repro.privacy.patch_shuffle import PatchShuffle
from repro.training.accuracy import ProxyAccuracyTracker
from repro.utils.seeding import SeedSequenceFactory


@dataclass(frozen=True)
class PrivacyResult:
    """Outcome of one privacy configuration."""

    mechanism: str
    final_accuracy: float
    best_accuracy: float
    rounds: int
    total_time_seconds: float


def _build_population(
    num_agents: int,
    train_dataset,
    iid: bool,
    seeds: SeedSequenceFactory,
    batch_size: int,
):
    """Agents + per-agent shards over the synthetic dataset."""
    rng = seeds.generator("population")
    if iid:
        shards = iid_partition(train_dataset.labels, num_agents, seeds.generator("partition"))
    else:
        shards = dirichlet_partition(
            train_dataset.labels, num_agents, seeds.generator("partition"), alpha=0.5
        )
    sizes = [len(shard) for shard in shards]
    registry = AgentRegistry.build(
        num_agents=num_agents,
        rng=rng,
        samples_per_agent=sizes,
        batch_size=batch_size,
    )
    datasets = {
        agent_id: train_dataset.subset(shards[agent_id], f"agent{agent_id}")
        for agent_id in registry.ids
    }
    return registry, datasets


def run_privacy_configuration(
    mechanism: str,
    num_agents: int = 8,
    rounds: int = 12,
    batch_size: int = 50,
    train_samples: int = 2_400,
    test_samples: int = 800,
    iid: bool = True,
    seed: int = 0,
) -> PrivacyResult:
    """Run ComDML with one privacy mechanism and return its accuracy.

    ``mechanism`` is one of ``"none"``, ``"distance_correlation"``,
    ``"patch_shuffle"``, ``"differential_privacy"``.
    """
    seeds = SeedSequenceFactory(seed)
    train, test = cifar10_like(
        train_samples=train_samples, test_samples=test_samples, seed=seed
    )
    registry, datasets = _build_population(num_agents, train, iid, seeds, batch_size)

    spec = resnet56_spec()
    factory = ProxyModelFactory(
        spec=spec, input_features=train.num_features, num_blocks=4, width=48
    )

    activation_transform = None
    parameter_transform = None
    if mechanism == "distance_correlation":
        defense = DistanceCorrelationDefense(alpha=0.5, rng=seeds.generator("dcor"))
        activation_transform = defense.make_transform()
    elif mechanism == "patch_shuffle":
        activation_transform = PatchShuffle(num_patches=8, rng=seeds.generator("shuffle"))
    elif mechanism == "differential_privacy":
        mechanism_dp = DifferentialPrivacy(
            epsilon=0.5, delta=1e-5, clip_norm=1.0, rng=seeds.generator("dp")
        )
        parameter_transform = mechanism_dp
    elif mechanism != "none":
        raise ValueError(f"unknown privacy mechanism {mechanism!r}")

    tracker = ProxyAccuracyTracker(
        factory=factory,
        agent_datasets=datasets,
        test_dataset=test,
        batch_size=batch_size,
        seed=seed,
        activation_transform=activation_transform,
        parameter_transform=parameter_transform,
    )
    # A healthier learning rate than the paper's 0.001 is used because the
    # proxy model is far smaller than ResNet-56 and trains for few rounds.
    config = ComDMLConfig(
        max_rounds=rounds,
        learning_rate=0.03,
        offload_granularity=9,
        seed=seed,
    )
    comdml = ComDML(
        registry=registry,
        spec=spec,
        config=config,
        accuracy_tracker=tracker,
    )
    history = comdml.run()
    return PrivacyResult(
        mechanism=mechanism,
        final_accuracy=history.final_accuracy,
        best_accuracy=history.best_accuracy,
        rounds=len(history),
        total_time_seconds=history.total_time,
    )


# ----------------------------------------------------------------------
# Campaign integration: spec builder, cell runner, post-processor
# ----------------------------------------------------------------------

#: Mechanisms compared in the paper's Section V-B-4, in report order.
PRIVACY_MECHANISMS = (
    "none",
    "distance_correlation",
    "patch_shuffle",
    "differential_privacy",
)


def campaign_spec(
    mechanisms: tuple[str, ...] = PRIVACY_MECHANISMS,
    num_agents: int = 8,
    rounds: int = 12,
    seed: int = 0,
) -> CampaignSpec:
    """Declare the privacy comparison: one cell per mechanism."""
    return CampaignSpec.create(
        name="privacy",
        runner="privacy-mechanism",
        axes={"mechanism": tuple(mechanisms)},
        base={"num_agents": num_agents, "rounds": rounds, "seed": seed},
    )


def run_campaign_cell(
    mechanism: str,
    num_agents: int = 8,
    rounds: int = 12,
    seed: int = 0,
) -> dict[str, Any]:
    """One privacy configuration's outcome as a JSON payload."""
    result = run_privacy_configuration(
        mechanism, num_agents=num_agents, rounds=rounds, seed=seed
    )
    return result.__dict__


def results_from_campaign(result: CampaignResult) -> list[PrivacyResult]:
    """Post-process a finished privacy campaign into its results."""
    return [PrivacyResult(**payload) for payload in result.payloads()]


CAMPAIGN_PRESET = CampaignPreset(
    build_spec=campaign_spec,
    format_result=lambda result: format_privacy_results(
        results_from_campaign(result)
    ),
)


def run_privacy_comparison(
    mechanisms: tuple[str, ...] = PRIVACY_MECHANISMS,
    num_agents: int = 8,
    rounds: int = 12,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    on_event=None,
) -> list[PrivacyResult]:
    """Run every privacy configuration and return the accuracy comparison."""
    spec = campaign_spec(
        mechanisms=tuple(mechanisms), num_agents=num_agents, rounds=rounds, seed=seed
    )
    result = execute_campaign(spec, jobs=jobs, cache_dir=cache_dir, on_event=on_event)
    return results_from_campaign(result)


def format_privacy_results(results: list[PrivacyResult]) -> str:
    """Render the privacy comparison as a small table."""
    lines = ["Mechanism                      Final acc   Best acc   Rounds"]
    lines.append("-" * len(lines[0]))
    for result in results:
        lines.append(
            f"{result.mechanism:<30} {result.final_accuracy:>9.3f} "
            f"{result.best_accuracy:>10.3f} {result.rounds:>8d}"
        )
    return "\n".join(lines)
