"""Registry of the agent population.

Holds all agents of an experiment, supports id lookup, participation
sampling (the paper's 20 % per-round sampling in the scalability study),
and convenience constructors.  The population is *not* fixed for the
lifetime of a run: a :class:`~repro.runtime.dynamics.DynamicsSchedule` may
:meth:`add` late-arriving agents or :meth:`remove` departing ones mid-run,
and the runtime re-reads :attr:`agents` at every round boundary.

Next to the :class:`~repro.agents.agent.Agent` objects, the registry keeps
the population as columns (:data:`COLUMNS`), one row per registered agent,
so a round reads its participants' attributes as NumPy gathers instead of
one Python attribute chain per agent.  :attr:`AgentRegistry.agents` and
:meth:`AgentRegistry.sample_participants` hand out an
:class:`AgentSelection`: the list of agents plus the rows they sit in,
which :func:`gather_columns` reads.
"""

from __future__ import annotations

import functools
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.agents.resources import ResourceProfile, assign_profiles_evenly
from repro.utils.validation import check_probability

#: The registry's columns, in :class:`~repro.core.fastpath.AgentAttrs`
#: field order: name, dtype and the agent attribute each cell copies.
COLUMNS: tuple[tuple[str, type, str], ...] = (
    ("agent_id", np.int64, "agent_id"),
    ("cpu_share", np.float64, "profile.cpu_share"),
    ("bandwidth_mbps", np.float64, "profile.bandwidth_mbps"),
    ("num_samples", np.int64, "num_samples"),
    ("batch_size", np.int64, "batch_size"),
    ("local_epochs", np.int64, "local_epochs"),
)

#: One agent's cells, in column order.
_read_row = attrgetter(*(path for _, _, path in COLUMNS))
_ROW = np.dtype([(name, dtype) for name, dtype, _ in COLUMNS])

#: A full set of columns grows to this multiple of its capacity, so
#: :meth:`AgentRegistry.add` copies each row O(1) times on average.
_GROWTH = 2

#: A removal compacts the columns once tombstones outnumber live rows by
#: this factor.  Compaction rebuilds the id → row dict in O(live rows), and
#: at least that many removals precede it, so :meth:`AgentRegistry.remove`
#: stays amortised O(1); dead rows never fill more than half the rows in
#: use.
_COMPACT_RATIO = 1


class AgentSelection(list):
    """Registered agents in a list that also knows their registry rows.

    To every caller it is a plain ``list`` of agents.  What it adds is that
    :func:`gather_columns` reads it as gathers over the registry's columns.
    It may do so only while it is exactly what the registry handed out, so
    each of these sends it down the per-agent path for good:

    * any in-place change (``sort``, ``append``, item assignment, …);
    * a removal from the registry since it was taken: it unlinks a row
      from its agent, and it may compact the others into new rows.

    A slice, ``copy()`` or ``list(selection)`` is a plain ``list``.
    """

    _rows: Optional[np.ndarray] = None

    def __init__(
        self, agents: Iterable[Agent], registry: "AgentRegistry", rows: np.ndarray
    ) -> None:
        super().__init__(agents)
        self._registry = registry
        self._rows = rows
        self._version = registry._version

    def _gather(self, names: Sequence[str]) -> Optional[tuple[np.ndarray, ...]]:
        registry = self._registry
        if self._rows is None or registry._version != self._version:
            return None
        rows = self._rows
        columns = registry._columns
        return tuple(columns[name][rows] for name in names)


def _dropping_rows(name: str):
    method = getattr(list, name)

    @functools.wraps(method)
    def mutate(self, *args, **kwargs):
        self._rows = None
        return method(self, *args, **kwargs)

    return mutate


for _name in (
    "__setitem__",
    "__delitem__",
    "__iadd__",
    "__imul__",
    "append",
    "extend",
    "insert",
    "pop",
    "remove",
    "clear",
    "sort",
    "reverse",
):
    setattr(AgentSelection, _name, _dropping_rows(_name))
del _name


def gather_columns(
    agents: Sequence[Agent], *names: str
) -> Optional[tuple[np.ndarray, ...]]:
    """The named registry columns over a selection's rows, in its order.

    ``None`` unless ``agents`` is an :class:`AgentSelection` the registry
    can still vouch for: the caller then reads the agents one at a time.
    Each gather is a copy, so nothing a caller keeps can see a later
    profile write.
    """
    if not isinstance(agents, AgentSelection):
        return None
    return agents._gather(names)


class AgentRegistry:
    """Ordered collection of :class:`~repro.agents.agent.Agent` objects.

    An agent belongs to at most one registry at a time: :meth:`add` links
    it to its row, so :meth:`~repro.agents.agent.Agent.update_profile`
    writes the row's profile cells too, and :meth:`remove` unlinks it.
    Rows keep insertion order, the order of :attr:`ids` and :attr:`agents`;
    a removal leaves a tombstone, and tombstones compact lazily.
    """

    def __init__(self, agents: Optional[Iterable[Agent]] = None) -> None:
        members: dict[int, Agent] = {}
        for agent in agents if agents is not None else ():
            if agent.agent_id in members:
                raise ValueError(f"duplicate agent id {agent.agent_id}")
            _check_unheld(agent)
            members[agent.agent_id] = agent
        listed = list(members.values())
        count = len(listed)
        self._agents = members
        self._row_of: dict[int, int] = dict(zip(members, range(count)))
        # One pass over the agents fills every column.
        rows = np.fromiter(map(_read_row, listed), dtype=_ROW, count=count)
        self._columns = {name: rows[name].copy() for name in _ROW.names}
        self._alive = np.ones(count, dtype=bool)
        self._used = count
        self._dead = 0
        #: Bumped by every removal, which unlinks a row and may compact the
        #: others; selections taken before it stop gathering.
        self._version = 0
        self._live_rows: Optional[np.ndarray] = None
        self._total_samples = int(self._columns["num_samples"].sum())
        for agent in listed:
            agent._registry = self

    def __setstate__(self, state: dict) -> None:
        # A copied or unpickled registry holds copied agents, which come
        # out unlinked (``Agent.__getstate__``).
        self.__dict__.update(state)
        for agent in self._agents.values():
            agent._registry = self

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
        """Add an agent; ids must be unique, and the agent in no other registry."""
        if agent.agent_id in self._agents:
            raise ValueError(f"duplicate agent id {agent.agent_id}")
        _check_unheld(agent)
        row = self._used
        if row == len(self._alive):
            self._grow()
        for column, cell in zip(self._columns.values(), _read_row(agent)):
            column[row] = cell
        self._alive[row] = True
        self._used += 1
        self._agents[agent.agent_id] = agent
        self._row_of[agent.agent_id] = row
        self._live_rows = None
        self._total_samples += agent.num_samples
        agent._registry = self

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
        self._alive[self._row_of.pop(agent_id)] = False
        self._dead += 1
        self._version += 1
        self._live_rows = None
        self._total_samples -= agent.num_samples
        agent._registry = None
        if self._dead > _COMPACT_RATIO * len(self._agents):
            self._compact()
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
    def agents(self) -> AgentSelection:
        """All agents in insertion order."""
        return AgentSelection(self._agents.values(), self, self._live())

    def select(self, agent_ids: Sequence[int]) -> AgentSelection:
        """The given registered agents, in that order."""
        return AgentSelection(
            [self.get(agent_id) for agent_id in agent_ids],
            self,
            self._rows_for(agent_ids),
        )

    def id_column(self) -> np.ndarray:
        """All agent ids in insertion order, as an ``int64`` array."""
        return self._columns["agent_id"][self._live()]

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
        """Total samples of the given agents, each registered one counted once.

        Unregistered ids count 0.
        """
        rows = self._rows_for(agent_ids)
        counted = np.zeros(self._used, dtype=bool)
        counted[rows[rows >= 0]] = True
        return int(self._columns["num_samples"][: self._used][counted].sum())

    def samples_column(self, agent_ids: Iterable[int]) -> np.ndarray:
        """Each id's ``num_samples`` (``int64``); unregistered ids read 0."""
        return self._cells("num_samples", agent_ids, 0)

    def bandwidth_mbps_column(self, agent_ids: Iterable[int]) -> np.ndarray:
        """Each id's link speed in Mbps (``float64``); unregistered ids read NaN."""
        return self._cells("bandwidth_mbps", agent_ids, np.nan)

    # ------------------------------------------------------------------
    # Participation sampling
    # ------------------------------------------------------------------
    def sample_participants(
        self,
        fraction: float,
        rng: np.random.Generator,
        minimum: int = 2,
    ) -> AgentSelection:
        """Sample a fraction of agents to participate in a round.

        Used by the Table III scalability experiments (20 % sampling rate).
        At least ``minimum`` agents are returned (bounded by the population
        size) so a round is never degenerate.
        """
        check_probability(fraction, "fraction")
        size = len(self._agents)
        count = max(min(minimum, size), int(round(fraction * size)))
        count = min(count, size)
        chosen = np.sort(rng.choice(size, size=count, replace=False))
        population = list(self._agents.values())
        return AgentSelection(
            [population[index] for index in chosen.tolist()],
            self,
            self._live()[chosen],
        )

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def _store_profile(self, agent: Agent) -> None:
        """Write a linked agent's profile into its row."""
        row = self._row_of[agent.agent_id]
        self._columns["cpu_share"][row] = agent.profile.cpu_share
        self._columns["bandwidth_mbps"][row] = agent.profile.bandwidth_mbps

    def _live(self) -> np.ndarray:
        """The live rows in insertion order (read-only, cached until a change)."""
        rows = self._live_rows
        if rows is None:
            if self._dead:
                rows = np.flatnonzero(self._alive[: self._used])
            else:
                rows = np.arange(self._used)
            rows.flags.writeable = False
            self._live_rows = rows
        return rows

    def _rows_for(self, agent_ids: Iterable[int]) -> np.ndarray:
        """Each id's row, ``-1`` where the id is not registered."""
        if isinstance(agent_ids, np.ndarray):
            agent_ids = agent_ids.tolist()
        return np.fromiter(
            map(self._row_of.get, agent_ids, repeat(-1)), dtype=np.int64
        )

    def _cells(self, name: str, agent_ids: Iterable[int], absent) -> np.ndarray:
        rows = self._rows_for(agent_ids)
        column = self._columns[name]
        cells = np.full(rows.size, absent, dtype=column.dtype)
        found = rows >= 0
        cells[found] = column[rows[found]]
        return cells

    def _grow(self) -> None:
        # Cells past the rows in use are never read, so what np.resize
        # repeats into them does not matter.
        capacity = max(1, _GROWTH * len(self._alive))
        for name, column in self._columns.items():
            self._columns[name] = np.resize(column, capacity)
        self._alive = np.resize(self._alive, capacity)

    def _compact(self) -> None:
        """Drop the tombstones, keeping the live rows in order.

        Only :meth:`remove` compacts, and it has already bumped the version.
        """
        live = self._live()
        count = live.size
        for column in self._columns.values():
            column[:count] = column[live]
        self._alive[:count] = True
        self._used = count
        self._dead = 0
        self._row_of = dict(zip(self._agents, range(count)))
        self._live_rows = None


def _check_unheld(agent: Agent) -> None:
    if agent._registry is not None:
        raise ValueError(
            f"agent {agent.agent_id} is held by another registry; remove it "
            "there first (or build a fresh agent)"
        )
