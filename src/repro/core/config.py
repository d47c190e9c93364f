"""Configuration of a ComDML (or baseline) training run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.validation import check_positive, check_probability

#: Valid runtime execution modes (see :mod:`repro.runtime.runtime`).
EXECUTION_MODES = ("sync", "semi-sync", "async")

#: Valid semi-sync quorum policies (see :mod:`repro.runtime.quorum`).
QUORUM_POLICIES = ("fixed", "deadline", "adaptive")

def normalize_execution_mode(mode: str) -> str:
    """Canonicalise an execution-mode name (``semi_sync`` → ``semi-sync``)."""
    normalized = mode.replace("_", "-").lower()
    if normalized not in EXECUTION_MODES:
        raise ValueError(
            f"execution_mode must be one of {EXECUTION_MODES}, got {mode!r}"
        )
    return normalized


def normalize_quorum_policy(policy: str) -> str:
    """Canonicalise a quorum-policy name (case-insensitive)."""
    normalized = policy.lower()
    if normalized not in QUORUM_POLICIES:
        raise ValueError(
            f"quorum_policy must be one of {QUORUM_POLICIES}, got {policy!r}"
        )
    return normalized


@dataclass
class ComDMLConfig:
    """Hyper-parameters of a ComDML run.

    Attributes
    ----------
    max_rounds:
        Hard cap on the number of global rounds.
    target_accuracy:
        Stop as soon as this accuracy is reached (``None`` to always run
        ``max_rounds``).
    participation_fraction:
        Fraction of agents participating each round (1.0 = everyone, the
        paper uses 0.2 in the scalability study).
    learning_rate / momentum / weight_decay / batch_size / local_epochs:
        Local optimisation hyper-parameters (paper defaults).
    lr_plateau_factor / lr_plateau_patience:
        Reduce-on-plateau schedule parameters (0.2 with 10 agents, 0.5 for
        larger populations in the paper).
    allreduce_algorithm:
        ``"halving_doubling"`` (paper's choice) or ``"ring"``.
    aggregation_compression_bits:
        Optional quantized-gradient aggregation (the paper notes such
        techniques "can also be integrated"): when set, AllReduce traffic is
        quantized to this many bits per value.  ``None`` disables it.
    offload_granularity:
        Candidate split spacing in layers when profiling the architecture.
    improvement_threshold:
        Minimum relative improvement required to form a pair.
    planner_top_k:
        Candidate budget per slow agent in rounds of at least
        ``planner_threshold`` participants (``k ≥ n−1`` is
        decision-identical to the dense kernel).
    planner_threshold:
        Participant count at or above which the planner
        (:mod:`repro.core.planner`), which plans every round, keeps only
        ``planner_top_k`` candidates per slow agent.  A smaller round keeps
        every candidate, byte-identical to the scalar oracle.  ``1`` prunes
        at every size; a value above the population never prunes.
    churn_fraction / churn_interval_rounds:
        Dynamic resource churn (paper: 20 % of agents every 100 rounds).
    execution_mode:
        How the :class:`~repro.runtime.TrainingRuntime` closes rounds:
        ``"sync"`` (full barrier, the paper's Algorithm 1), ``"semi-sync"``
        (round closes at a quorum of finished pairs; stragglers dropped) or
        ``"async"`` (per-pair completion events trigger gossip-style
        aggregation).
    quorum_fraction:
        Fraction of a round's work units that must finish before a
        ``semi-sync`` round closes (ignored by the other modes).  Under the
        ``"deadline"`` policy this is the fallback fraction for rounds with
        no makespan history yet; under ``"adaptive"`` it is the floor the
        quorum tightens towards.
    quorum_policy:
        How a ``semi-sync`` round decides its quorum
        (see :mod:`repro.runtime.quorum`): ``"fixed"`` keeps
        ``quorum_fraction`` of the units, ``"deadline"`` closes at
        ``quorum_deadline_factor ×`` the running makespan mean observed so
        far, and ``"adaptive"`` tightens from a full barrier towards
        ``quorum_fraction`` as observed makespans stabilise.
    quorum_deadline_factor:
        Multiple of the running makespan mean at which a ``"deadline"``
        quorum closes the round.
    trace_max_events:
        Cap on retained runtime trace events (``None`` = unbounded).  The
        default bounds memory on very long runs while retaining every event
        of any realistic experiment; overflow is counted in
        ``EventTrace.dropped_events``.
    trace_min_level:
        Minimum trace level admitted into the pipeline (0 = no level
        filter, the default).  See :mod:`repro.runtime.filters` for the
        ``DEBUG``/``INFO``/``IMPORTANT`` scale.
    trace_rate_limit / trace_rate_burst:
        Optional token-bucket rate limit on the event stream, in events per
        simulated second with the given burst size (``None`` disables).
    trace_adaptive_target:
        Optional adaptive-sampling target rate (events per simulated
        second): under sustained load beyond it the sampler tightens its
        stride, recovering when load subsides (``None`` disables).
    trace_jsonl_path / trace_sqlite_path:
        Optional file sinks: a sealed, hash-chained JSONL trace
        (verifiable by ``comdml trace verify``) and/or a SQLite event
        table.
    trace_buffer_capacity / trace_overflow:
        Bounded-buffer staging for the file sinks: events are batched up
        to this capacity; ``trace_overflow`` picks what a full buffer does
        (``"flush"`` drains in place, ``"drop"`` rejects with accounting).
    trace_segment_events:
        Events per sealed segment in the JSONL sink.
    trace_engine_events:
        When true, the runtime subscribes to the simulation engine and
        records each processed engine event as a ``DEBUG``-level
        ``"engine_event"`` trace entry.
    seed:
        Experiment seed.
    """

    max_rounds: int = 500
    target_accuracy: Optional[float] = None
    participation_fraction: float = 1.0
    learning_rate: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 100
    local_epochs: int = 1
    lr_plateau_factor: float = 0.2
    lr_plateau_patience: int = 10
    allreduce_algorithm: str = "halving_doubling"
    aggregation_compression_bits: Optional[int] = None
    offload_granularity: int = 1
    improvement_threshold: float = 0.0
    planner_top_k: int = 32
    planner_threshold: int = 256
    churn_fraction: float = 0.0
    churn_interval_rounds: int = 100
    execution_mode: str = "sync"
    quorum_fraction: float = 0.8
    quorum_policy: str = "fixed"
    quorum_deadline_factor: float = 1.5
    trace_max_events: Optional[int] = 100_000
    trace_min_level: int = 0
    trace_rate_limit: Optional[float] = None
    trace_rate_burst: float = 64.0
    trace_adaptive_target: Optional[float] = None
    trace_jsonl_path: Optional[str] = None
    trace_sqlite_path: Optional[str] = None
    trace_buffer_capacity: Optional[int] = None
    trace_overflow: str = "flush"
    trace_segment_events: int = 4096
    trace_engine_events: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive(self.max_rounds, "max_rounds")
        if self.target_accuracy is not None:
            check_probability(self.target_accuracy, "target_accuracy")
        check_probability(self.participation_fraction, "participation_fraction")
        check_positive(self.learning_rate, "learning_rate")
        check_positive(self.batch_size, "batch_size")
        check_positive(self.local_epochs, "local_epochs")
        check_positive(self.offload_granularity, "offload_granularity")
        check_positive(self.planner_top_k, "planner_top_k")
        check_positive(self.planner_threshold, "planner_threshold")
        check_probability(self.churn_fraction, "churn_fraction")
        check_positive(self.churn_interval_rounds, "churn_interval_rounds")
        self.execution_mode = normalize_execution_mode(self.execution_mode)
        check_probability(self.quorum_fraction, "quorum_fraction")
        if self.quorum_fraction <= 0:
            raise ValueError(
                f"quorum_fraction must be positive, got {self.quorum_fraction}"
            )
        self.quorum_policy = normalize_quorum_policy(self.quorum_policy)
        check_positive(self.quorum_deadline_factor, "quorum_deadline_factor")
        if self.trace_max_events is not None:
            check_positive(self.trace_max_events, "trace_max_events")
        if self.trace_min_level < 0:
            raise ValueError(
                f"trace_min_level must be >= 0, got {self.trace_min_level}"
            )
        if self.trace_rate_limit is not None:
            check_positive(self.trace_rate_limit, "trace_rate_limit")
        check_positive(self.trace_rate_burst, "trace_rate_burst")
        if self.trace_adaptive_target is not None:
            check_positive(self.trace_adaptive_target, "trace_adaptive_target")
        if self.trace_buffer_capacity is not None:
            check_positive(self.trace_buffer_capacity, "trace_buffer_capacity")
        if self.trace_overflow not in ("flush", "drop"):
            raise ValueError(
                "trace_overflow must be 'flush' or 'drop', "
                f"got {self.trace_overflow!r}"
            )
        check_positive(self.trace_segment_events, "trace_segment_events")
        if self.allreduce_algorithm not in ("ring", "halving_doubling"):
            raise ValueError(
                "allreduce_algorithm must be 'ring' or 'halving_doubling', "
                f"got {self.allreduce_algorithm!r}"
            )
        if self.aggregation_compression_bits is not None and not (
            1 <= self.aggregation_compression_bits <= 32
        ):
            raise ValueError(
                "aggregation_compression_bits must lie in [1, 32], "
                f"got {self.aggregation_compression_bits}"
            )
