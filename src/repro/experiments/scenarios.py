"""Experiment scenario construction.

A :class:`ScenarioConfig` describes one experimental setting of the paper
(population size, dataset, model, data distribution, topology, participation
and churn); :func:`build_scenario` turns it into the concrete objects every
training method consumes: an agent registry with paper-profile resources, a
topology, an architecture spec/profile, and fresh accuracy trackers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.agents.registry import AgentRegistry
from repro.core.config import (
    ComDMLConfig,
    normalize_execution_mode,
    normalize_quorum_policy,
)
from repro.core.profiling import SplitProfile, profile_architecture
from repro.data.partition import partition_sizes
from repro.models.resnet import cifar_resnet_spec
from repro.models.spec import ArchitectureSpec
from repro.network.topology import (
    Topology,
    full_topology,
    random_topology,
    ring_topology,
)
from repro.training.accuracy import CurveAccuracyTracker
from repro.training.curves import LearningCurveModel, curve_preset_for
from repro.utils.seeding import SeedSequenceFactory
from repro.utils.validation import check_positive, check_probability

#: Total training-set sizes of the real datasets the synthetic stand-ins mirror.
DATASET_TRAIN_SIZES = {
    "cifar10": 50_000,
    "cifar100": 50_000,
    "cinic10": 90_000,
}

#: Number of classes per dataset.
DATASET_NUM_CLASSES = {
    "cifar10": 10,
    "cifar100": 100,
    "cinic10": 10,
}

#: Model name → CIFAR ResNet depth.
MODEL_DEPTHS = {
    "resnet56": 56,
    "resnet110": 110,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one experimental setting."""

    num_agents: int = 10
    dataset: str = "cifar10"
    model: str = "resnet56"
    iid: bool = True
    topology: str = "full"
    link_fraction: float = 1.0
    participation_fraction: float = 1.0
    target_accuracy: Optional[float] = None
    max_rounds: int = 600
    offload_granularity: int = 6
    churn_fraction: float = 0.0
    churn_interval_rounds: int = 100
    batch_size: int = 100
    size_imbalance: float = 0.0
    samples_per_agent: Optional[int] = None
    execution_mode: str = "sync"
    quorum_fraction: float = 0.8
    quorum_policy: str = "fixed"
    quorum_deadline_factor: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive(self.num_agents, "num_agents")
        if self.dataset not in DATASET_TRAIN_SIZES:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; expected one of "
                f"{sorted(DATASET_TRAIN_SIZES)}"
            )
        if self.model not in MODEL_DEPTHS:
            raise ValueError(
                f"unknown model {self.model!r}; expected one of {sorted(MODEL_DEPTHS)}"
            )
        if self.topology not in ("full", "ring", "random"):
            raise ValueError(
                f"topology must be 'full', 'ring' or 'random', got {self.topology!r}"
            )
        check_probability(self.link_fraction, "link_fraction")
        check_probability(self.participation_fraction, "participation_fraction")
        object.__setattr__(
            self, "execution_mode", normalize_execution_mode(self.execution_mode)
        )
        object.__setattr__(
            self, "quorum_policy", normalize_quorum_policy(self.quorum_policy)
        )

    def with_(self, **changes) -> "ScenarioConfig":
        """Return a modified copy of the config."""
        return replace(self, **changes)


@dataclass
class Scenario:
    """Concrete objects built from a :class:`ScenarioConfig`."""

    config: ScenarioConfig
    registry: AgentRegistry
    topology: Topology
    spec: ArchitectureSpec
    profile: SplitProfile
    comdml_config: ComDMLConfig
    seeds: SeedSequenceFactory = field(repr=False, default=None)

    def curve_tracker(self, method_key: str) -> CurveAccuracyTracker:
        """A fresh curve-based accuracy tracker for the given method."""
        preset = curve_preset_for(self.config.dataset, self.config.model)
        curve = LearningCurveModel(
            preset=preset,
            method=method_key,
            iid=self.config.iid,
            rng=self.seeds.generator(f"curve.{method_key}"),
        )
        return CurveAccuracyTracker(curve)

    def fresh_registry(self) -> AgentRegistry:
        """Rebuild the agent registry (identical profiles / sizes).

        Each training method mutates agent profiles through dynamic churn,
        so comparisons must hand every method its own copy of the population.
        """
        return _build_registry(self.config, self.seeds)


def _build_registry(config: ScenarioConfig, seeds: SeedSequenceFactory) -> AgentRegistry:
    rng = seeds.generator("population")
    if config.samples_per_agent is not None:
        # Fixed per-agent shard size (used by the scalability study, where the
        # population grows while each agent's local dataset stays the same).
        total_samples = config.samples_per_agent * config.num_agents
    else:
        total_samples = DATASET_TRAIN_SIZES[config.dataset]
    imbalance = config.size_imbalance if config.iid else max(config.size_imbalance, 0.3)
    sizes = partition_sizes(
        total_samples,
        config.num_agents,
        rng=seeds.generator("sizes"),
        imbalance=imbalance,
    )
    return AgentRegistry.build(
        num_agents=config.num_agents,
        rng=rng,
        samples_per_agent=sizes,
        batch_size=config.batch_size,
    )


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Materialise a scenario: population, topology, spec, profile, run config."""
    seeds = SeedSequenceFactory(config.seed)
    registry = _build_registry(config, seeds)

    if config.topology == "full":
        topology = full_topology(registry.ids)
    elif config.topology == "ring":
        topology = ring_topology(registry.ids)
    else:
        topology = random_topology(
            registry.ids,
            link_fraction=config.link_fraction,
            rng=seeds.generator("topology"),
        )

    spec = cifar_resnet_spec(
        MODEL_DEPTHS[config.model],
        num_classes=DATASET_NUM_CLASSES[config.dataset],
    )
    profile = profile_architecture(spec, granularity=config.offload_granularity)

    comdml_config = ComDMLConfig(
        max_rounds=config.max_rounds,
        target_accuracy=config.target_accuracy,
        participation_fraction=config.participation_fraction,
        offload_granularity=config.offload_granularity,
        churn_fraction=config.churn_fraction,
        churn_interval_rounds=config.churn_interval_rounds,
        execution_mode=config.execution_mode,
        quorum_fraction=config.quorum_fraction,
        quorum_policy=config.quorum_policy,
        quorum_deadline_factor=config.quorum_deadline_factor,
        lr_plateau_factor=0.2 if config.num_agents <= 10 else 0.5,
        seed=config.seed,
    )

    return Scenario(
        config=config,
        registry=registry,
        topology=topology,
        spec=spec,
        profile=profile,
        comdml_config=comdml_config,
        seeds=seeds,
    )
