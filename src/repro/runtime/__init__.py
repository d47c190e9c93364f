"""Event-driven training runtime shared by all methods.

``TrainingRuntime`` owns the round machinery every method shares and drives
execution as events on the simulation engine; each method plugs in a
``RoundStrategy``.  See :mod:`repro.runtime.runtime` for the execution
modes (``sync`` / ``semi-sync`` / ``async``),
:mod:`repro.runtime.dynamics` for mid-round scenario dynamics (staggered
arrivals, in-flight churn, departures), and :mod:`repro.runtime.quorum`
for the pluggable semi-sync quorum policies.

Each run records an event trace (:mod:`repro.runtime.trace`): events are
kept in memory up to a cap and delivered to any extra sinks
(:mod:`repro.runtime.sinks`) with explicit per-sink drop accounting, and
sealed file traces carry the hash-chained audit records of
:mod:`repro.runtime.audit` (verifiable via ``comdml trace verify``).
"""

from repro.core.config import EXECUTION_MODES, QUORUM_POLICIES
from repro.runtime.audit import (
    ChainState,
    VerificationResult,
    canonical_json,
    history_audit_record,
    verify_campaign_summary,
    verify_history_record,
    verify_sealed_jsonl,
)
from repro.runtime.dynamics import DynamicsEvent, DynamicsSchedule
from repro.runtime.quorum import (
    AdaptiveQuorum,
    DeadlineQuorum,
    FixedFractionQuorum,
    QuorumDecision,
    QuorumPolicy,
    make_quorum_policy,
    resolve_quorum,
)
from repro.runtime.runtime import TrainingRuntime
from repro.runtime.strategy import (
    RoundPlan,
    RoundStrategy,
    StrategyDefaults,
    WorkUnit,
    participation_fraction,
)
from repro.runtime.sinks import CallbackSink, JSONLSink, MemorySink, TraceSink
from repro.runtime.trace import EventTrace, PipelineStats, TraceEvent

__all__ = [
    "EXECUTION_MODES",
    "QUORUM_POLICIES",
    "TrainingRuntime",
    "DynamicsEvent",
    "DynamicsSchedule",
    "QuorumDecision",
    "QuorumPolicy",
    "FixedFractionQuorum",
    "DeadlineQuorum",
    "AdaptiveQuorum",
    "make_quorum_policy",
    "resolve_quorum",
    "RoundPlan",
    "RoundStrategy",
    "StrategyDefaults",
    "WorkUnit",
    "participation_fraction",
    "EventTrace",
    "TraceEvent",
    "PipelineStats",
    "TraceSink",
    "MemorySink",
    "CallbackSink",
    "JSONLSink",
    "ChainState",
    "VerificationResult",
    "canonical_json",
    "history_audit_record",
    "verify_history_record",
    "verify_campaign_summary",
    "verify_sealed_jsonl",
]
