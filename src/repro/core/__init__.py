"""ComDML core: profiling, workload balancing, pairing, and orchestration."""

from repro.core.profiling import SplitProfile, profile_architecture
from repro.core.workload import (
    OffloadEstimate,
    estimate_offload_time,
    best_offload,
    exact_min_makespan,
)
from repro.core.fastpath import PairCostModel, agent_vectors
from repro.core.pairing import (
    PairingDecision,
    PairingPlan,
    greedy_pairing,
    greedy_pairing_reference,
)
from repro.core.planner import PlannerState, PlannerStats, PrunedPlanner
from repro.core.scheduler import DecentralizedPairingScheduler
from repro.core.timing import RoundTiming, compute_round_timing
from repro.core.config import ComDMLConfig
from repro.core.comdml import ComDML

__all__ = [
    "SplitProfile",
    "profile_architecture",
    "OffloadEstimate",
    "estimate_offload_time",
    "best_offload",
    "exact_min_makespan",
    "PairCostModel",
    "agent_vectors",
    "PairingDecision",
    "PairingPlan",
    "greedy_pairing",
    "greedy_pairing_reference",
    "PlannerState",
    "PlannerStats",
    "PrunedPlanner",
    "DecentralizedPairingScheduler",
    "RoundTiming",
    "compute_round_timing",
    "ComDMLConfig",
    "ComDML",
]
