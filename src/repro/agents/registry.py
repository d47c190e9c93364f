"""Registry of the agent population.

Holds all agents of an experiment, supports id lookup, participation
sampling (the paper's 20 % per-round sampling in the scalability study),
and convenience constructors.  The population is *not* fixed for the
lifetime of a run: a :class:`~repro.runtime.dynamics.DynamicsSchedule` may
:meth:`add` late-arriving agents or :meth:`remove` departing ones mid-run,
and the runtime re-reads :attr:`agents` at every round boundary.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.agents.resources import ResourceProfile, assign_profiles_evenly
from repro.utils.validation import check_probability


class AgentRegistry:
    """Ordered collection of :class:`~repro.agents.agent.Agent` objects."""

    def __init__(self, agents: Optional[Iterable[Agent]] = None) -> None:
        self._agents: dict[int, Agent] = {}
        self._total_samples = 0
        if agents is not None:
            for agent in agents:
                self.add(agent)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        num_agents: int,
        rng: np.random.Generator,
        samples_per_agent: Sequence[int] | int = 500,
        batch_size: int = 100,
        profiles: Optional[Sequence[ResourceProfile]] = None,
    ) -> "AgentRegistry":
        """Construct a population with evenly assigned paper profiles.

        ``samples_per_agent`` may be a single int (all agents identical) or a
        sequence of per-agent dataset sizes.
        """
        if profiles is None:
            profiles = assign_profiles_evenly(num_agents, rng)
        if len(profiles) != num_agents:
            raise ValueError(
                f"expected {num_agents} profiles, got {len(profiles)}"
            )
        if isinstance(samples_per_agent, int):
            sample_counts = [samples_per_agent] * num_agents
        else:
            sample_counts = list(samples_per_agent)
            if len(sample_counts) != num_agents:
                raise ValueError(
                    f"expected {num_agents} sample counts, got {len(sample_counts)}"
                )
        agents = [
            Agent(
                agent_id=i,
                profile=profiles[i],
                num_samples=sample_counts[i],
                batch_size=batch_size,
            )
            for i in range(num_agents)
        ]
        return cls(agents)

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def add(self, agent: Agent) -> None:
        """Add an agent; ids must be unique."""
        if agent.agent_id in self._agents:
            raise ValueError(f"duplicate agent id {agent.agent_id}")
        self._agents[agent.agent_id] = agent
        self._total_samples += agent.num_samples

    def get(self, agent_id: int) -> Agent:
        """Look up an agent by id."""
        try:
            return self._agents[agent_id]
        except KeyError:
            raise KeyError(f"unknown agent id {agent_id}") from None

    def remove(self, agent_id: int) -> Agent:
        """Remove and return an agent (mid-run departure)."""
        try:
            agent = self._agents.pop(agent_id)
        except KeyError:
            raise KeyError(f"unknown agent id {agent_id}") from None
        self._total_samples -= agent.num_samples
        return agent

    def __contains__(self, agent_id: int) -> bool:
        return agent_id in self._agents

    def __len__(self) -> int:
        return len(self._agents)

    def __iter__(self) -> Iterator[Agent]:
        return iter(self._agents.values())

    @property
    def ids(self) -> list[int]:
        """All agent ids in insertion order."""
        return list(self._agents.keys())

    @property
    def agents(self) -> list[Agent]:
        """All agents in insertion order."""
        return list(self._agents.values())

    @property
    def total_samples(self) -> int:
        """Total number of training samples across the population (``N``).

        A running total that :meth:`add` and :meth:`remove` keep, so reading
        it is O(1); async rounds read it once per trace flush.  It relies on an
        agent's ``num_samples`` being fixed once the agent is registered.
        Integer sums are exact, so it equals the sum over the agents.
        """
        return self._total_samples

    def samples_of(self, agent_ids: Iterable[int]) -> int:
        """Total samples of the given agents; unregistered ids count 0."""
        agents = self._agents
        return sum(
            agents[agent_id].num_samples for agent_id in agent_ids if agent_id in agents
        )

    def samples_column(self, agent_ids: np.ndarray) -> np.ndarray:
        """Each id's ``num_samples`` (``int64``); unregistered ids read 0."""
        get = self._agents.get
        return np.array(
            [
                agent.num_samples if (agent := get(agent_id)) is not None else 0
                for agent_id in agent_ids.tolist()
            ],
            dtype=np.int64,
        )

    def bandwidth_mbps_column(self, agent_ids: np.ndarray) -> np.ndarray:
        """Each id's link speed in Mbps (``float64``); unregistered ids read NaN."""
        get = self._agents.get
        return np.array(
            [
                agent.profile.bandwidth_mbps
                if (agent := get(agent_id)) is not None
                else np.nan
                for agent_id in agent_ids.tolist()
            ],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    # Participation sampling
    # ------------------------------------------------------------------
    def sample_participants(
        self,
        fraction: float,
        rng: np.random.Generator,
        minimum: int = 2,
    ) -> list[Agent]:
        """Sample a fraction of agents to participate in a round.

        Used by the Table III scalability experiments (20 % sampling rate).
        At least ``minimum`` agents are returned (bounded by the population
        size) so a round is never degenerate.
        """
        check_probability(fraction, "fraction")
        population = self.agents
        count = max(min(minimum, len(population)), int(round(fraction * len(population))))
        count = min(count, len(population))
        chosen = rng.choice(len(population), size=count, replace=False)
        return [population[i] for i in sorted(chosen)]
