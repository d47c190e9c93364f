"""ComDML's contribution to the shared training runtime.

Since the runtime split, this module no longer owns a round loop.  The
shared machinery of Algorithm 1 — dynamic resource churn, participation
sampling, the learning-rate schedule, accuracy tracking, the run history,
and the event-driven execution modes — lives in
:class:`~repro.runtime.TrainingRuntime`.  :class:`ComDML` contributes only
what makes the method itself: **agent pairing** via the decentralized greedy
scheduler and the **pairing-plan timing** (the plan's makespan and offload
traffic plus the decentralized AllReduce aggregation), packaged as a
:class:`~repro.runtime.strategy.RoundPlan` that carries the scheduler's
:class:`~repro.core.pairing.PairingPlan` columns: one work unit per
pairing decision, lasting the decision's pair time.

``ComDML.run`` delegates to the runtime and supports all three execution
modes (``sync`` / ``semi-sync`` / ``async``) selected through
``ComDMLConfig.execution_mode``; ``sync`` reproduces the paper's round
structure exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.core.config import ComDMLConfig
from repro.core.pairing import PairingPlan
from repro.core.planner import PrunedPlanner
from repro.core.profiling import SplitProfile, profile_architecture
from repro.core.scheduler import DecentralizedPairingScheduler
from repro.core.timing import (
    bottleneck_of_mbps,
    bottleneck_of_mbps_rows,
    compute_round_timing,
)
from repro.core.workload import estimate_offload_time, individual_training_time
from repro.models.spec import ArchitectureSpec
from repro.network.allreduce import allreduce_time
from repro.network.link import LinkModel
from repro.network.topology import Topology, full_topology
from repro.runtime.dynamics import DynamicsSchedule
from repro.runtime.runtime import RuntimeDelegate, TrainingRuntime
from repro.runtime.strategy import RoundPlan, StrategyDefaults, WorkUnit
from repro.runtime.trace import EventTrace
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS
from repro.training.accuracy import AccuracyTracker, CurveAccuracyTracker
from repro.training.curves import LearningCurveModel
from repro.utils.seeding import SeedSequenceFactory


class ComDML(StrategyDefaults, RuntimeDelegate):
    """Communication-efficient workload-balanced decentralized training."""

    method_name = "ComDML"

    def __init__(
        self,
        registry: AgentRegistry,
        spec: ArchitectureSpec,
        config: Optional[ComDMLConfig] = None,
        topology: Optional[Topology] = None,
        accuracy_tracker: Optional[AccuracyTracker] = None,
        profile: Optional[SplitProfile] = None,
        dynamics: Optional[DynamicsSchedule] = None,
        trace: Optional[EventTrace] = None,
    ) -> None:
        self.registry = registry
        self.spec = spec
        self.config = config if config is not None else ComDMLConfig()
        self.topology = (
            topology if topology is not None else full_topology(registry.ids)
        )
        seeds = SeedSequenceFactory(self.config.seed)
        self.profile = (
            profile
            if profile is not None
            else profile_architecture(spec, granularity=self.config.offload_granularity)
        )
        self.link_model = LinkModel(self.topology)
        self.planner = PrunedPlanner(
            self.profile,
            self.link_model,
            top_k=self.config.planner_top_k,
            prune_threshold=self.config.planner_threshold,
        )
        self.scheduler = DecentralizedPairingScheduler(
            registry=registry,
            link_model=self.link_model,
            profile=self.profile,
            participation_fraction=self.config.participation_fraction,
            rng=seeds.generator("participation"),
            planner=self.planner,
        )
        tracker = (
            accuracy_tracker
            if accuracy_tracker is not None
            else CurveAccuracyTracker(
                LearningCurveModel(
                    preset=_default_curve_preset(),
                    method="comdml",
                    rng=seeds.generator("curve"),
                )
            )
        )
        self.runtime = TrainingRuntime(
            strategy=self,
            registry=registry,
            config=self.config,
            accuracy_tracker=tracker,
            churn_rng=seeds.generator("churn"),
            dynamics=dynamics,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # RoundStrategy
    # ------------------------------------------------------------------
    def select_participants(self) -> list[Agent]:
        """Sample this round's participants via the scheduler's RNG stream."""
        return self.scheduler.select_participants()

    def plan_round(
        self, round_index: int, participants: Sequence[Agent]
    ) -> RoundPlan:
        """Pair the participants and price the round from the pairing plan."""
        decisions = self.scheduler.plan_round(participants)
        timing = compute_round_timing(decisions, participants, self.profile)
        return RoundPlan(
            round_index=round_index,
            decisions=decisions,
            durations=decisions.pair_time,
            aggregation_seconds=timing.aggregation_time,
            duration_seconds=timing.total_time,
            compute_seconds=timing.makespan,
            communication_seconds=timing.total_communication_time,
            num_pairs=timing.num_pairs,
        )

    def semi_sync_aggregation_seconds(
        self, plan: RoundPlan, kept: PairingPlan
    ) -> float:
        """Re-price the AllReduce over only the agents that made the quorum.

        The bottleneck is :func:`~repro.core.timing.bottleneck_of_mbps` of
        the registered members' link speeds; with no registered member the
        AllReduce costs nothing.
        """
        involved = set(kept.agent_ids())
        mbps = self.registry.bandwidth_mbps_column(involved)
        if np.isnan(mbps).all():
            return 0.0
        return allreduce_time(
            model_bytes=self.profile.full_model_bytes,
            num_agents=max(1, len(involved)),
            bottleneck_bandwidth_bytes_per_second=bottleneck_of_mbps(mbps),
        )

    def async_unit_aggregation_seconds(
        self, plan: RoundPlan, rows: np.ndarray
    ) -> np.ndarray:
        """Price each unit's gossip exchange: its slowest member pushes a model.

        Per row, :func:`~repro.sim.costs.transfer_time_seconds` of the
        model over :func:`~repro.core.timing.bottleneck_bandwidth`
        of the unit's registered members, as columns
        (:func:`~repro.core.timing.bottleneck_of_mbps_rows`).  A unit with
        no registered member costs nothing, and so does a zero-byte model.
        """
        decisions = plan.decisions
        slow = self.registry.bandwidth_mbps_column(decisions.slow_id[rows])
        fast = self.registry.bandwidth_mbps_column(decisions.fast_id[rows])
        model_bytes = self.profile.full_model_bytes
        if model_bytes == 0:
            return np.zeros(len(rows))
        costs = DEFAULT_LINK_LATENCY_SECONDS + model_bytes / bottleneck_of_mbps_rows(
            slow, fast
        )
        costs[np.isnan(slow) & np.isnan(fast)] = 0.0
        return costs

    # ------------------------------------------------------------------
    # Mid-round dynamics hooks
    # ------------------------------------------------------------------
    def reprice_unit(self, plan: RoundPlan, unit: WorkUnit) -> float:
        """Fresh price of a pairing decision under present agent profiles.

        Solo units re-price at the slow agent's current individual training
        time.  Pairs re-run the paper's ``AgentTrainingTime`` estimate for
        the *same* split under the churned profiles; if churn severed the
        pair's link (a member went to 0 Mbps), the offload is effectively
        lost and the slow agent is priced as finishing alone.
        """
        decision = plan.decisions[unit.index]
        if decision.slow_id not in self.registry:
            return unit.duration
        slow = self.registry.get(decision.slow_id)
        solo_time = individual_training_time(slow, self.profile, slow.batch_size)
        if decision.fast_id is None or decision.fast_id not in self.registry:
            return solo_time
        fast = self.registry.get(decision.fast_id)
        bandwidth = self.link_model.bandwidth(slow, fast)
        if bandwidth <= 0:
            return solo_time
        return estimate_offload_time(
            slow_agent=slow,
            fast_agent=fast,
            offloaded_layers=decision.offloaded_layers,
            profile=self.profile,
            bandwidth_bytes_per_second=bandwidth,
        ).pair_time

    def on_agent_arrival(self, agent, neighbors=None, attachment=None) -> None:
        """Wire a mid-run arrival into the communication topology.

        The planner needs no call: its next plan reads which nodes the
        wiring change touched from the topology.
        """
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

    def on_agent_departure(self, agent) -> None:
        """Drop a departed agent's topology links."""
        self.topology.remove_agent(agent.agent_id)

    def planner_report(self) -> dict:
        """Operation counters of this run's planner.

        The :class:`~repro.core.planner.PlannerStats` counters (rows
        recomputed/reused, pair options evaluated, scan rounds).  Campaign cells
        attach this to their payload so
        :func:`repro.experiments.reporting.execution_report` can aggregate
        planner behaviour across the sweep.
        """
        return self.planner.stats.report()


def _default_curve_preset():
    """Default calibration (CIFAR-10-like / ResNet-56) used when no tracker is given."""
    from repro.training.curves import curve_preset_for

    return curve_preset_for("cifar10", "resnet56")
