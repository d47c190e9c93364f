"""Mid-round scenario dynamics: staggered arrivals, in-flight churn, departures.

The paper's Table II setup changes agent profiles *during* training and its
motivation names stragglers that join late.  Round-boundary churn
(``ComDMLConfig.churn_fraction``) only approximates that: every
perturbation lands between rounds.  A :class:`DynamicsSchedule` instead
pins perturbations to *simulated timestamps* and registers them as events
on the :class:`~repro.sim.engine.SimulationEngine`, so they fire wherever
the clock happens to be — including in the middle of a round while work is
in flight.

Three event kinds are supported (see :class:`DynamicsEvent`):

``arrival``
    A new :class:`~repro.agents.agent.Agent` joins the
    :class:`~repro.agents.registry.AgentRegistry` at the given time and is
    wired into the method's topology via the strategy's
    ``on_agent_arrival`` hook.  It becomes eligible for the *next* pairing
    plan (mid-round arrivals never join a round already in flight).
``departure``
    The agent leaves the registry.  Any of its in-flight work units are
    abandoned; ``semi-sync`` and ``async`` rounds close without them.
``churn``
    A :class:`~repro.agents.dynamics.ResourceChurn`-style profile
    re-assignment fires at the timestamp.  In-flight work units of affected
    agents are *re-costed*: the completed fraction of the unit is kept and
    the remainder is re-priced under the new profiles through the
    strategy's ``reprice_unit`` hook, moving the unit's completion event.

The schedule itself is declarative and engine-agnostic; the
:class:`~repro.runtime.TrainingRuntime` applies the events (and falls back
to its bit-for-bit legacy execution paths when the schedule is empty, so a
run with ``DynamicsSchedule()`` is identical to one with ``None``).  Build
the schedule *before* constructing the trainer — events are registered on
the engine when the runtime is created.

>>> schedule = DynamicsSchedule()
>>> schedule.churn(500.0, fraction=0.2)
>>> schedule.departure(1200.0, agent_id=3)
>>> len(schedule)
2
>>> [event.kind for event in schedule]
['churn', 'departure']
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.agents.agent import Agent
from repro.agents.resources import (
    CONNECTED_BANDWIDTH_PROFILES_MBPS,
    CPU_PROFILES,
    ResourceProfile,
)
from repro.utils.validation import check_non_negative, check_positive, check_probability

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.sim.engine import SimulationEngine
    from repro.sim.events import Event

#: Valid dynamics event kinds.
DYNAMICS_KINDS = ("arrival", "departure", "churn")

#: Valid arrival-attachment policies (how a newcomer is wired into the graph).
ATTACHMENT_POLICIES = ("full", "ring", "random-k")

#: Schema tag written into serialized schedules.
SCHEDULE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ArrivalAttachment:
    """How an arriving agent is wired into the communication topology.

    ``full`` connects the newcomer to every existing node (the historical
    default), ``ring`` splices it into the ring's wrap-around position, and
    ``random-k`` links it to ``k`` uniformly sampled existing nodes (drawn
    from a generator seeded by ``seed`` and the arriving agent's id, so the
    wiring is reproducible regardless of when the event fires).
    """

    policy: str = "full"
    k: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in ATTACHMENT_POLICIES:
            raise ValueError(
                f"policy must be one of {ATTACHMENT_POLICIES}, got {self.policy!r}"
            )
        check_positive(self.k, "k")

    def rng_for(self, agent_id: int) -> np.random.Generator:
        """Deterministic generator for one arrival's random-k draw."""
        return np.random.default_rng([self.seed, int(agent_id)])


def _coerce_attachment(
    attachment: Optional[Union[str, ArrivalAttachment]],
) -> Optional[ArrivalAttachment]:
    if attachment is None or isinstance(attachment, ArrivalAttachment):
        return attachment
    return ArrivalAttachment(policy=attachment)


@dataclass(frozen=True)
class DynamicsEvent:
    """One timed scenario perturbation.

    Attributes
    ----------
    time:
        Absolute simulated time (seconds) at which the event fires.
    kind:
        ``"arrival"``, ``"departure"`` or ``"churn"``.
    agent:
        The arriving agent (``arrival`` only).
    agent_id:
        The departing agent's id (``departure`` only).
    fraction:
        Fraction of the current population to churn (``churn`` with random
        targets; mutually exclusive with ``agent_ids``).
    agent_ids:
        Explicit churn targets (``churn`` only).
    neighbors:
        Topology neighbours for an arriving agent; ``None`` defers to the
        event's attachment policy (default: connect to every existing node).
    attachment:
        :class:`ArrivalAttachment` policy used when ``neighbors`` is not
        given explicitly (``arrival`` only).
    """

    time: float
    kind: str
    agent: Optional[Agent] = None
    agent_id: Optional[int] = None
    fraction: Optional[float] = None
    agent_ids: Optional[tuple[int, ...]] = None
    neighbors: Optional[tuple[int, ...]] = None
    attachment: Optional[ArrivalAttachment] = None

    def __post_init__(self) -> None:
        check_non_negative(self.time, "time")
        if self.kind not in DYNAMICS_KINDS:
            raise ValueError(
                f"kind must be one of {DYNAMICS_KINDS}, got {self.kind!r}"
            )
        if self.kind == "arrival" and self.agent is None:
            raise ValueError("arrival events need an agent")
        if self.attachment is not None and self.kind != "arrival":
            raise ValueError("attachment policies only apply to arrival events")
        if self.kind == "departure" and self.agent_id is None:
            raise ValueError("departure events need an agent_id")
        if self.kind == "churn":
            if (self.fraction is None) == (self.agent_ids is None):
                raise ValueError(
                    "churn events need exactly one of fraction or agent_ids"
                )
            if self.fraction is not None:
                check_probability(self.fraction, "fraction")
                if self.fraction <= 0:
                    raise ValueError(
                        f"churn fraction must be positive, got {self.fraction}"
                    )
            if self.agent_ids is not None and not self.agent_ids:
                raise ValueError("churn agent_ids must not be empty")


class DynamicsSchedule:
    """Ordered collection of :class:`DynamicsEvent` for one training run.

    The builder methods (:meth:`arrival`, :meth:`departure`, :meth:`churn`,
    :meth:`arrival_wave`) validate and append events; :meth:`register`
    schedules them on a :class:`~repro.sim.engine.SimulationEngine`.
    Iteration yields events sorted by time (stable for equal timestamps).
    """

    def __init__(self, events: Iterable[DynamicsEvent] = ()) -> None:
        self._events: list[DynamicsEvent] = list(events)
        self._registered = False

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def add(self, event: DynamicsEvent) -> None:
        """Append a pre-built event."""
        self._events.append(event)

    def arrival(
        self,
        time: float,
        agent: Agent,
        neighbors: Optional[Sequence[int]] = None,
        attachment: Optional[Union[str, ArrivalAttachment]] = None,
    ) -> None:
        """Schedule ``agent`` to join the population at ``time``.

        ``attachment`` selects how the newcomer is wired into the topology
        when no explicit ``neighbors`` are given: a policy name
        (``"full"``/``"ring"``/``"random-k"``) or a full
        :class:`ArrivalAttachment`.
        """
        self.add(
            DynamicsEvent(
                time=time,
                kind="arrival",
                agent=agent,
                neighbors=tuple(neighbors) if neighbors is not None else None,
                attachment=_coerce_attachment(attachment),
            )
        )

    def arrival_wave(
        self,
        start: float,
        interval: float,
        agents: Sequence[Agent],
        attachment: Optional[Union[str, ArrivalAttachment]] = None,
    ) -> None:
        """Schedule a staggered wave: one arrival every ``interval`` seconds.

        The flash-crowd building block: ``agents[i]`` arrives at
        ``start + i × interval``, wired in via ``attachment`` (default: full
        connectivity).
        """
        check_non_negative(start, "start")
        check_non_negative(interval, "interval")
        for index, agent in enumerate(agents):
            self.arrival(start + index * interval, agent, attachment=attachment)

    @classmethod
    def poisson(
        cls,
        horizon: float,
        arrival_rate: float = 0.0,
        departure_rate: float = 0.0,
        seed: int = 0,
        departure_candidates: Sequence[int] = (),
        id_start: int = 1000,
        samples_per_agent: int = 500,
        batch_size: int = 100,
        attachment: Optional[Union[str, ArrivalAttachment]] = None,
    ) -> "DynamicsSchedule":
        """Generate a seeded Poisson arrival/departure schedule.

        Long-horizon workload generator: arrivals form a Poisson process of
        rate ``arrival_rate`` (events per simulated second) over
        ``[0, horizon)``; each newcomer gets a fresh id (``id_start`` + a
        counter), a paper-grid resource profile drawn uniformly at random,
        a ``samples_per_agent`` shard, and the given ``attachment`` policy.
        Departures form an independent Poisson process of rate
        ``departure_rate``; each departure removes one agent drawn uniformly
        from the ids eligible at that timestamp — the initial
        ``departure_candidates`` plus any generated arrival already in the
        system — and every agent departs at most once.  The same
        ``(horizon, rates, seed)`` always yields the same schedule.

        >>> schedule = DynamicsSchedule.poisson(
        ...     horizon=10_000.0, arrival_rate=1 / 2_000.0,
        ...     departure_rate=1 / 5_000.0, seed=7,
        ...     departure_candidates=(0, 1, 2),
        ... )
        >>> all(event.time < 10_000.0 for event in schedule)
        True
        """
        check_positive(horizon, "horizon")
        check_non_negative(arrival_rate, "arrival_rate")
        check_non_negative(departure_rate, "departure_rate")
        # An infinite horizon never ends a draw loop, and an infinite rate
        # draws zero gaps, so its loop's clock never advances.
        for name, value in (
            ("horizon", horizon),
            ("arrival_rate", arrival_rate),
            ("departure_rate", departure_rate),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        rng = np.random.default_rng(seed)
        attach = _coerce_attachment(attachment)
        schedule = cls()

        arrivals: list[tuple[float, int]] = []
        if arrival_rate > 0:
            time = rng.exponential(1.0 / arrival_rate)
            while time < horizon:
                agent_id = id_start + len(arrivals)
                agent = Agent(
                    agent_id=agent_id,
                    profile=ResourceProfile(
                        cpu_share=float(rng.choice(CPU_PROFILES)),
                        bandwidth_mbps=float(
                            rng.choice(CONNECTED_BANDWIDTH_PROFILES_MBPS)
                        ),
                    ),
                    num_samples=samples_per_agent,
                    batch_size=batch_size,
                )
                schedule.arrival(time, agent, attachment=attach)
                arrivals.append((time, agent_id))
                time += rng.exponential(1.0 / arrival_rate)

        if departure_rate > 0:
            departed: set[int] = set()
            time = rng.exponential(1.0 / departure_rate)
            while time < horizon:
                eligible = [
                    agent_id
                    for agent_id in departure_candidates
                    if agent_id not in departed
                ]
                eligible.extend(
                    agent_id
                    for arrival_time, agent_id in arrivals
                    if arrival_time < time and agent_id not in departed
                )
                if eligible:
                    victim = eligible[int(rng.integers(len(eligible)))]
                    departed.add(victim)
                    schedule.departure(time, victim)
                time += rng.exponential(1.0 / departure_rate)
        return schedule

    def departure(self, time: float, agent_id: int) -> None:
        """Schedule agent ``agent_id`` to leave the population at ``time``."""
        self.add(DynamicsEvent(time=time, kind="departure", agent_id=agent_id))

    def churn(
        self,
        time: float,
        fraction: Optional[float] = None,
        agent_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Schedule a profile re-assignment at ``time``.

        Exactly one of ``fraction`` (random targets drawn at fire time) or
        ``agent_ids`` (explicit targets) must be given.
        """
        self.add(
            DynamicsEvent(
                time=time,
                kind="churn",
                fraction=fraction,
                agent_ids=tuple(agent_ids) if agent_ids is not None else None,
            )
        )

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __iter__(self) -> Iterator[DynamicsEvent]:
        return iter(self.events)

    @property
    def events(self) -> tuple[DynamicsEvent, ...]:
        """All events sorted by time (insertion order breaks ties)."""
        return tuple(sorted(self._events, key=lambda event: event.time))

    # ------------------------------------------------------------------
    # JSON (de)serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable representation (inverse of :meth:`from_json`).

        Arrival events embed the arriving agent's construction parameters
        (id, profile, shard size), so a loaded schedule builds *fresh*
        :class:`~repro.agents.agent.Agent` objects — exactly the
        one-schedule-per-run hygiene :meth:`register` demands.
        """
        return {
            "schema": SCHEDULE_SCHEMA_VERSION,
            "events": [_event_to_json(event) for event in self.events],
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "DynamicsSchedule":
        """Rebuild a schedule from :meth:`to_json` output."""
        return cls(_event_from_json(entry) for entry in payload.get("events", ()))

    def save(self, path: str | Path) -> None:
        """Write the schedule to a JSON file (parent directories are created)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2)

    @classmethod
    def load(cls, path: str | Path) -> "DynamicsSchedule":
        """Read a schedule from a JSON file (a fresh, unregistered instance)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))

    # ------------------------------------------------------------------
    # Engine registration
    # ------------------------------------------------------------------
    def register(
        self,
        engine: "SimulationEngine",
        apply: Callable[["Event"], None],
    ) -> int:
        """Schedule every event on ``engine`` with ``apply`` as its callback.

        Events dated before the engine's current time are clamped to *now*
        (they fire as soon as the clock next moves).  Returns the number of
        events registered.  The :class:`DynamicsEvent` rides along as the
        engine event's payload.

        A schedule can be registered exactly once: its arrival events carry
        concrete :class:`~repro.agents.agent.Agent` objects that the run
        mutates (profiles churn, model state trains), so replaying the same
        schedule against a second run would silently leak first-run state
        into the comparison.  Build a fresh schedule per run instead.
        """
        if self._registered:
            raise RuntimeError(
                "this DynamicsSchedule was already registered on an engine; "
                "its Agent objects carry run-mutated state — build a fresh "
                "schedule per run"
            )
        self._registered = True
        for event in self.events:
            engine.schedule_at(
                max(event.time, engine.now),
                kind=f"dynamics_{event.kind}",
                payload=event,
                callback=apply,
            )
        return len(self._events)


# ----------------------------------------------------------------------
# JSON helpers
# ----------------------------------------------------------------------

def _event_to_json(event: DynamicsEvent) -> dict[str, Any]:
    """One event as a JSON dictionary."""
    payload: dict[str, Any] = {"time": event.time, "kind": event.kind}
    if event.kind == "arrival":
        agent = event.agent
        payload["agent"] = {
            "agent_id": agent.agent_id,
            "cpu_share": agent.profile.cpu_share,
            "bandwidth_mbps": agent.profile.bandwidth_mbps,
            "num_samples": agent.num_samples,
            "batch_size": agent.batch_size,
            "local_epochs": agent.local_epochs,
        }
        if event.neighbors is not None:
            payload["neighbors"] = list(event.neighbors)
        if event.attachment is not None:
            payload["attachment"] = {
                "policy": event.attachment.policy,
                "k": event.attachment.k,
                "seed": event.attachment.seed,
            }
    elif event.kind == "departure":
        payload["agent_id"] = event.agent_id
    else:  # churn
        if event.fraction is not None:
            payload["fraction"] = event.fraction
        if event.agent_ids is not None:
            payload["agent_ids"] = list(event.agent_ids)
    return payload


def _event_from_json(payload: dict[str, Any]) -> DynamicsEvent:
    """Rebuild one event from its JSON dictionary."""
    kind = payload["kind"]
    time = payload["time"]
    if kind == "arrival":
        spec = payload["agent"]
        agent = Agent(
            agent_id=spec["agent_id"],
            profile=ResourceProfile(
                cpu_share=spec["cpu_share"],
                bandwidth_mbps=spec["bandwidth_mbps"],
            ),
            num_samples=spec.get("num_samples", 0),
            batch_size=spec.get("batch_size", 100),
            local_epochs=spec.get("local_epochs", 1),
        )
        attachment = payload.get("attachment")
        return DynamicsEvent(
            time=time,
            kind="arrival",
            agent=agent,
            neighbors=tuple(payload["neighbors"])
            if payload.get("neighbors") is not None
            else None,
            attachment=ArrivalAttachment(**attachment)
            if attachment is not None
            else None,
        )
    if kind == "departure":
        return DynamicsEvent(time=time, kind="departure", agent_id=payload["agent_id"])
    return DynamicsEvent(
        time=time,
        kind="churn",
        fraction=payload.get("fraction"),
        agent_ids=tuple(payload["agent_ids"])
        if payload.get("agent_ids") is not None
        else None,
    )
