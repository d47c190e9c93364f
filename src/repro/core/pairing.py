"""Dynamic decentralized pairing (Algorithm 1, ``Main`` loop + ``Pairing``).

Each round:

1. every available agent broadcasts its processing speed ``p_j`` and its
   individual training-time estimate ``τ̂_j`` to its connected neighbours;
2. agents are visited in descending order of ``τ̂`` (slowest first);
3. each still-unpaired agent evaluates, for every still-unpaired connected
   neighbour, the best split it could offload (``AgentTrainingTime``) and
   pairs with the neighbour giving the smallest estimated round time —
   provided that estimate actually improves on training alone;
4. the pair is removed from the pool and the next slowest agent proceeds.

The procedure needs only neighbour-local information (speeds, dataset
sizes, observed link speeds), which is what makes it decentralized: each
agent could run it independently from the shared list of training times and
arrive at the same pairing.

:func:`greedy_pairing` evaluates the (slow × candidate × split) cost
tensor through the vectorized :class:`~repro.core.fastpath.PairCostModel`
kernel; the pure-Python loop is kept as
:func:`greedy_pairing_reference`, the oracle the equivalence tests and
the trajectory benchmarks compare against.  Both produce *identical*
``PairingDecision`` lists — same floats, same tie-breaking.

A round's plan travels through the system as one :class:`PairingPlan`: the
decisions as struct-of-arrays columns, which round timing and the runtime
reduce without building a per-decision object.  It is also a
``Sequence[PairingDecision]`` whose decisions are views built on demand.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.core.profiling import SplitProfile
from repro.core.workload import (
    OffloadEstimate,
    best_offload,
    individual_training_time,
)
from repro.network.link import LinkModel


@dataclass(frozen=True)
class PairingDecision:
    """One entry of the round's workload-balancing plan.

    Attributes
    ----------
    slow_id:
        Agent that offloads (or trains alone when ``fast_id`` is ``None``).
    fast_id:
        Helper agent receiving the offloaded workload, or ``None``.
    offloaded_layers:
        The chosen split ``m`` (0 when training alone).
    estimate:
        The timing estimate backing the decision.
    """

    slow_id: int
    fast_id: Optional[int]
    offloaded_layers: int
    estimate: OffloadEstimate

    @property
    def is_offloading(self) -> bool:
        """Whether this decision actually offloads work."""
        return self.fast_id is not None and self.offloaded_layers > 0


@dataclass(frozen=True, eq=False)
class PairingPlan(Sequence[PairingDecision]):
    """One round's pairing decisions as struct-of-arrays columns.

    Row ``r`` of every column is the ``r``-th decision, in the order the
    scheduler made them.  ``fast_id`` is ``-1`` where the slow agent trains
    alone; the five float columns are the decision's
    :class:`~repro.core.workload.OffloadEstimate` fields.

    Round timing and the runtime read the columns.  As a
    ``Sequence[PairingDecision]`` the plan builds decisions on demand: the
    first iteration builds all of them in one pass (``tolist`` once per
    column) and keeps them as :attr:`views`; indexing builds one.  Every
    value a view carries is a builtin ``int`` or ``float``, so decisions
    stay JSON-serialisable.  Equality is identity; compare ``list(plan)``
    to compare decisions.
    """

    slow_id: np.ndarray
    fast_id: np.ndarray
    offloaded_layers: np.ndarray
    slow_time: np.ndarray
    fast_own_time: np.ndarray
    communication_time: np.ndarray
    fast_offload_time: np.ndarray
    pair_time: np.ndarray

    @classmethod
    def from_decisions(cls, decisions: Sequence[PairingDecision]) -> "PairingPlan":
        """Columns of a list of decisions (the dense and scalar planners' output)."""
        count = len(decisions)

        def column(values, dtype):
            return np.fromiter(values, dtype=dtype, count=count)

        estimates = [decision.estimate for decision in decisions]
        return cls(
            slow_id=column((d.slow_id for d in decisions), np.int64),
            fast_id=column(
                (-1 if d.fast_id is None else d.fast_id for d in decisions), np.int64
            ),
            offloaded_layers=column((d.offloaded_layers for d in decisions), np.int64),
            slow_time=column((e.slow_time for e in estimates), np.float64),
            fast_own_time=column((e.fast_own_time for e in estimates), np.float64),
            communication_time=column(
                (e.communication_time for e in estimates), np.float64
            ),
            fast_offload_time=column((e.fast_offload_time for e in estimates), np.float64),
            pair_time=column((e.pair_time for e in estimates), np.float64),
        )

    @classmethod
    def solo(cls, agent_ids: Sequence[int], times: np.ndarray) -> "PairingPlan":
        """Every agent trains the full model alone, in ``times[r]`` seconds."""
        count = len(agent_ids)
        zeros = np.zeros(count)
        return cls(
            slow_id=np.fromiter(agent_ids, dtype=np.int64, count=count),
            fast_id=np.full(count, -1, dtype=np.int64),
            offloaded_layers=np.zeros(count, dtype=np.int64),
            slow_time=times,
            fast_own_time=zeros,
            communication_time=zeros,
            fast_offload_time=zeros,
            pair_time=times,
        )

    @classmethod
    def empty(cls) -> "PairingPlan":
        """The plan of a round without participants."""
        return cls.solo((), np.zeros(0))

    def take(self, rows: np.ndarray) -> "PairingPlan":
        """The plan made of the given rows, in the given order."""
        return PairingPlan(*(column[rows] for column in self._columns()))

    # ------------------------------------------------------------------
    # Reductions (the float order the round-timing goldens pin)
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Slowest decision's ``pair_time`` (0.0 for an empty plan)."""
        if not len(self.pair_time):
            return 0.0
        return float(max(0.0, np.maximum.reduce(self.pair_time)))

    def total_communication(self) -> float:
        """Offload traffic time, added left to right in decision order.

        ``np.cumsum`` adds sequentially, like a ``+=`` loop; ``np.sum``
        adds pairwise and builtin ``sum`` is compensated from Python 3.12
        on, and both can round differently.
        """
        if not len(self.communication_time):
            return 0.0
        return float(np.cumsum(self.communication_time)[-1])

    def num_pairs(self) -> int:
        """Number of decisions that pair the slow agent with a helper."""
        return int(np.count_nonzero(self.fast_id >= 0))

    def agent_ids(self) -> list[int]:
        """Every agent the plan involves: the slow ids, then the helpers."""
        fast = self.fast_id
        return self.slow_id.tolist() + fast[fast >= 0].tolist()

    # ------------------------------------------------------------------
    # Sequence[PairingDecision]
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.slow_id)

    def __getitem__(self, index: int) -> PairingDecision:
        row = range(len(self))[index]
        return _decision_view(*(column[row].item() for column in self._columns()))

    def __iter__(self) -> Iterator[PairingDecision]:
        return iter(self.views)

    @cached_property
    def views(self) -> list[PairingDecision]:
        """Every decision as a view, built in one pass on first use."""
        return list(
            map(_decision_view, *(column.tolist() for column in self._columns()))
        )

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)


def _decision_view(
    slow: int,
    fast: int,
    layers: int,
    slow_time: float,
    own: float,
    comm: float,
    offload: float,
    pair: float,
) -> PairingDecision:
    """A :class:`PairingDecision` without the frozen-dataclass ``__init__``.

    The generated ``__init__`` of a frozen dataclass routes every field
    through ``object.__setattr__``; filling the instance ``__dict__``
    wholesale builds an equal object (neither class defines
    ``__post_init__`` or ``__slots__``) in about 60 % of the time.
    """
    estimate = object.__new__(OffloadEstimate)
    estimate.__dict__.update(
        offloaded_layers=layers,
        slow_time=slow_time,
        fast_own_time=own,
        communication_time=comm,
        fast_offload_time=offload,
        pair_time=pair,
    )
    decision = object.__new__(PairingDecision)
    decision.__dict__.update(
        slow_id=slow,
        fast_id=None if fast < 0 else fast,
        offloaded_layers=layers,
        estimate=estimate,
    )
    return decision


def greedy_pairing(
    participants: Sequence[Agent],
    link_model: LinkModel,
    profile: SplitProfile,
) -> list[PairingDecision]:
    """Pair agents for one round using the paper's greedy scheduler.

    Pair times are evaluated through the vectorized
    :class:`~repro.core.fastpath.PairCostModel` kernel; the decisions are
    identical (to full float equality) to
    :func:`greedy_pairing_reference`.  A slow agent pairs with its best
    helper whenever the pair finishes sooner than it would alone.

    Parameters
    ----------
    participants:
        Agents taking part in this round (already sampled if a participation
        fraction applies).

    Returns
    -------
    One :class:`PairingDecision` per slow agent that offloads, plus one
    (with ``fast_id=None``) per agent that trains alone.  Fast agents that
    help a slow agent do not get their own entry — their own local task is
    accounted for inside the pair's estimate.
    """
    from repro.core.fastpath import PairCostModel

    agents = list(participants)
    if not agents:
        return []
    cost_model = PairCostModel(agents, profile, link_model=link_model)
    taus = cost_model.individual_times
    # The shared list A: agent positions in descending order of completion
    # time (stable, so ties keep participant order like the scalar sort).
    order = sorted(range(len(agents)), key=lambda k: taus[k], reverse=True)

    # Candidates must be reachable and actually offload (best split m > 0);
    # the `alive` mask below removes agents as they pair up or train alone.
    candidate = cost_model.pairable
    pair_times = cost_model.best_pair_times
    alive = np.ones(len(agents), dtype=bool)
    decisions: list[PairingDecision] = []

    for i in order:
        if not alive[i]:
            continue
        own_time = float(taus[i])

        row = np.where(candidate[i] & alive, pair_times[i], np.inf)
        best_j = int(np.argmin(row))  # first minimum, like the strict-< scan
        best_time = row[best_j]

        if best_time < own_time:
            estimate = cost_model.estimate(i, best_j)
            decisions.append(
                PairingDecision(
                    slow_id=agents[i].agent_id,
                    fast_id=agents[best_j].agent_id,
                    offloaded_layers=estimate.offloaded_layers,
                    estimate=estimate,
                )
            )
            alive[i] = False
            alive[best_j] = False
        else:
            decisions.append(_solo_decision(agents[i].agent_id, own_time))
            alive[i] = False

    return decisions


def _solo_decision(agent_id: int, own_time: float) -> PairingDecision:
    """Decision for an agent that trains the full model alone."""
    return _decision_view(agent_id, -1, 0, own_time, 0.0, 0.0, 0.0, own_time)


def greedy_pairing_reference(
    participants: Sequence[Agent],
    link_model: LinkModel,
    profile: SplitProfile,
) -> list[PairingDecision]:
    """Scalar reference implementation of :func:`greedy_pairing`.

    One ``AgentTrainingTime`` minimisation per (slow, candidate) pair via
    :func:`~repro.core.workload.best_offload` — the pre-kernel pure-Python
    path, kept as the oracle the vectorized kernel is tested against and
    as the baseline of the round-planning trajectory benchmark.
    """
    agents = list(participants)
    # Step 2 of Algorithm 1: broadcast p_j and τ̂_j — here we simply compute
    # every participant's individual training time from shared information.
    individual_times = {
        agent.agent_id: individual_training_time(agent, profile, agent.batch_size)
        for agent in agents
    }
    # The shared list A: agents in descending order of task completion time.
    order = sorted(agents, key=lambda agent: individual_times[agent.agent_id], reverse=True)

    unpaired: dict[int, Agent] = {agent.agent_id: agent for agent in agents}
    decisions: list[PairingDecision] = []

    for agent in order:
        if agent.agent_id not in unpaired:
            continue
        own_time = individual_times[agent.agent_id]

        best_decision: Optional[PairingDecision] = None
        for candidate_id, candidate in unpaired.items():
            if candidate_id == agent.agent_id:
                continue
            bandwidth = link_model.bandwidth(agent, candidate)
            if bandwidth <= 0:
                continue
            estimate = best_offload(
                slow_agent=agent,
                fast_agent=candidate,
                profile=profile,
                bandwidth_bytes_per_second=bandwidth,
                fast_agent_busy_time=individual_times[candidate_id],
            )
            if estimate.offloaded_layers == 0:
                continue
            if best_decision is None or estimate.pair_time < best_decision.estimate.pair_time:
                best_decision = PairingDecision(
                    slow_id=agent.agent_id,
                    fast_id=candidate_id,
                    offloaded_layers=estimate.offloaded_layers,
                    estimate=estimate,
                )

        improves = (
            best_decision is not None and best_decision.estimate.pair_time < own_time
        )
        if improves:
            decisions.append(best_decision)
            del unpaired[best_decision.slow_id]
            del unpaired[best_decision.fast_id]
        else:
            solo_estimate = OffloadEstimate(
                offloaded_layers=0,
                slow_time=own_time,
                fast_own_time=0.0,
                communication_time=0.0,
                fast_offload_time=0.0,
                pair_time=own_time,
            )
            decisions.append(
                PairingDecision(
                    slow_id=agent.agent_id,
                    fast_id=None,
                    offloaded_layers=0,
                    estimate=solo_estimate,
                )
            )
            del unpaired[agent.agent_id]

    return decisions


def pairing_makespan(decisions: Sequence[PairingDecision]) -> float:
    """Estimated round makespan implied by a set of pairing decisions."""
    if not decisions:
        return 0.0
    return max(decision.estimate.pair_time for decision in decisions)
