"""Baseline contributions to the shared training runtime.

Since the runtime split, the round loop no longer lives here.  Everything
the baselines share with ComDML — participation sampling, dynamic churn,
the learning-rate schedule, accuracy tracking, the run history, and the
event-driven execution modes — is owned by
:class:`~repro.runtime.TrainingRuntime`.  A baseline contributes only its
**round-timing/aggregation pattern** through the :meth:`BaselineTrainer.round_timing`
hook (and, optionally, a per-agent :meth:`BaselineTrainer.unit_duration`),
which this base class packages as a
:class:`~repro.runtime.strategy.RoundPlan` of one solo work unit per
participant (no workload balancing — every agent trains the full model):
an all-solo :class:`~repro.core.pairing.PairingPlan` plus the units'
durations.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.core.config import ComDMLConfig
from repro.core.profiling import SplitProfile, profile_architecture
from repro.core.workload import individual_training_time
from repro.models.spec import ArchitectureSpec
from repro.network.link import LinkModel
from repro.network.topology import Topology, full_topology
from repro.runtime.dynamics import DynamicsSchedule
from repro.runtime.runtime import RuntimeDelegate, TrainingRuntime
from repro.runtime.strategy import RoundPlan, StrategyDefaults, WorkUnit, solo_decisions
from repro.runtime.trace import EventTrace
from repro.training.accuracy import AccuracyTracker, CurveAccuracyTracker
from repro.training.curves import LearningCurveModel, curve_preset_for
from repro.utils.seeding import SeedSequenceFactory


class BaselineTrainer(StrategyDefaults, RuntimeDelegate):
    """Base strategy implementing the plan shared by all baselines."""

    #: Human-readable method name used in reports.
    method_name = "Baseline"
    #: Key into the learning-curve efficiency table.
    curve_method_key = "allreduce"

    def __init__(
        self,
        registry: AgentRegistry,
        spec: ArchitectureSpec,
        config: Optional[ComDMLConfig] = None,
        topology: Optional[Topology] = None,
        accuracy_tracker: Optional[AccuracyTracker] = None,
        profile: Optional[SplitProfile] = None,
        dynamics: Optional[DynamicsSchedule] = None,
        trace: Optional["EventTrace"] = None,
    ) -> None:
        self.registry = registry
        self.spec = spec
        self.config = config if config is not None else ComDMLConfig()
        self.topology = (
            topology if topology is not None else full_topology(registry.ids)
        )
        self.link_model = LinkModel(self.topology)
        self.profile = (
            profile
            if profile is not None
            else profile_architecture(spec, granularity=self.config.offload_granularity)
        )
        seeds = SeedSequenceFactory(self.config.seed)
        self._participation_rng = seeds.generator(f"{self.method_name}.participation")
        self._method_rng = seeds.generator(f"{self.method_name}.method")
        tracker = (
            accuracy_tracker
            if accuracy_tracker is not None
            else CurveAccuracyTracker(
                LearningCurveModel(
                    preset=curve_preset_for("cifar10", "resnet56"),
                    method=self.curve_method_key,
                    rng=seeds.generator(f"{self.method_name}.curve"),
                )
            )
        )
        self.runtime = TrainingRuntime(
            strategy=self,
            registry=registry,
            config=self.config,
            accuracy_tracker=tracker,
            churn_rng=seeds.generator(f"{self.method_name}.churn"),
            dynamics=dynamics,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def round_timing(self, participants: Sequence[Agent]) -> tuple[float, float, float]:
        """Return ``(total, compute, communication)`` seconds for one round."""
        raise NotImplementedError

    def unit_duration(self, agent: Agent, training_time: float) -> float:
        """How long one participant's unit of local work takes.

        Defaults to the agent's already-computed full-model
        ``training_time``; methods whose agents also block on per-agent
        communication (e.g. FedAvg's download/upload chain) override this
        so the ``semi-sync``/``async`` modes see the real completion times.
        """
        return training_time

    # ------------------------------------------------------------------
    # Mid-round dynamics hooks
    # ------------------------------------------------------------------
    def reprice_unit(self, plan: RoundPlan, unit: WorkUnit) -> float:
        """Fresh price of one participant's unit under its present profile.

        Re-prices the agent's training time from its *current* resources and
        runs it back through :meth:`unit_duration`, so methods that chain
        per-agent communication (FedAvg) see churned bandwidths too.
        """
        agent_id = unit.agent_ids[0]
        if agent_id not in self.registry:
            return unit.duration
        agent = self.registry.get(agent_id)
        return self.unit_duration(agent, self.full_model_training_time(agent))

    def on_agent_arrival(self, agent: Agent, neighbors=None, attachment=None) -> None:
        """Wire a mid-run arrival into the communication topology."""
        if attachment is None:
            self.topology.add_agent(agent.agent_id, neighbors)
        else:
            self.topology.attach_agent(
                agent.agent_id,
                policy=attachment.policy,
                k=attachment.k,
                rng=attachment.rng_for(agent.agent_id),
                neighbors=neighbors,
            )

    def on_agent_departure(self, agent: Agent) -> None:
        """Drop a departed agent's topology links."""
        self.topology.remove_agent(agent.agent_id)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def select_participants(self) -> list[Agent]:
        """Sample this round's participants."""
        if self.config.participation_fraction >= 1.0:
            return self.registry.agents
        return self.registry.sample_participants(
            self.config.participation_fraction, self._participation_rng
        )

    def full_model_training_time(self, agent: Agent) -> float:
        """Time for an agent to train the full model on its shard."""
        return individual_training_time(agent, self.profile, agent.batch_size)

    def model_bytes(self) -> float:
        """Serialized full-model size in bytes."""
        return self.profile.full_model_bytes

    # ------------------------------------------------------------------
    # RoundStrategy
    # ------------------------------------------------------------------
    def plan_round(
        self, round_index: int, participants: Sequence[Agent]
    ) -> RoundPlan:
        """Price the round with the baseline's timing pattern, one solo unit per agent."""
        total, compute, communication = self.round_timing(participants)
        decisions = solo_decisions(participants, self.profile)
        durations = [
            self.unit_duration(agent, training_time)
            for agent, training_time in zip(participants, decisions.pair_time.tolist())
        ]
        return RoundPlan(
            round_index=round_index,
            decisions=decisions,
            durations=np.array(durations, dtype=np.float64),
            aggregation_seconds=max(0.0, total - compute),
            duration_seconds=total,
            compute_seconds=compute,
            communication_seconds=communication,
            num_pairs=0,
        )
