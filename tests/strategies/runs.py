"""Strategies for whole training runs: scenarios and dynamics schedules.

A schedule is drawn as a *recipe* of plain tuples and built with
:func:`build_schedule`, once per run: a run mutates the agents its
schedule admits, so two runs that must match each need a fresh schedule.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.agents.agent import Agent
from repro.agents.resources import (
    BANDWIDTH_PROFILES_MBPS,
    CPU_PROFILES,
    ResourceProfile,
)
from repro.runtime.dynamics import DynamicsSchedule

#: Population sizes the scenarios draw from.
AGENT_COUNTS = st.integers(min_value=3, max_value=24)

#: Latest event time a schedule draws, in simulated seconds.  Three rounds
#: of the paper's methods on up to 24 agents take about 100 to 950 s, so
#: events land inside rounds as well as between them.
SCHEDULE_HORIZON = 500.0


@st.composite
def async_scenarios(draw, max_rounds: int = 3) -> dict:
    """``ScenarioConfig`` keyword arguments of a small async run.

    3 to 24 agents at participation 1.0, 0.8 or 0.5, with or without 30 %
    round-interval churn.
    """
    return dict(
        num_agents=draw(AGENT_COUNTS),
        participation_fraction=draw(st.sampled_from((1.0, 0.8, 0.5))),
        churn_fraction=draw(st.sampled_from((0.0, 0.3))),
        churn_interval_rounds=1,
        execution_mode="async",
        max_rounds=max_rounds,
        offload_granularity=9,
        samples_per_agent=400,
        target_accuracy=None,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


@st.composite
def dynamics_recipes(draw, num_agents: int, horizon: float = SCHEDULE_HORIZON) -> dict:
    """Arrivals, departures and churn by ids, as a recipe for :func:`build_schedule`.

    Arrivals may be disconnected (0 Mbps).  Departures and churn may name
    any agent, including one that has not arrived yet or has left.
    """
    times = st.floats(min_value=0.0, max_value=horizon, allow_nan=False)
    arrivals = draw(
        st.lists(
            st.tuples(
                times,
                st.sampled_from(CPU_PROFILES),
                st.sampled_from(BANDWIDTH_PROFILES_MBPS),
            ),
            max_size=3,
        )
    )
    ids = st.integers(min_value=0, max_value=num_agents + len(arrivals) - 1)
    departures = draw(st.lists(st.tuples(times, ids), max_size=3))
    churns = draw(
        st.lists(
            st.tuples(times, st.lists(ids, min_size=1, max_size=6, unique=True)),
            min_size=1,
            max_size=4,
        )
    )
    return {
        "num_agents": num_agents,
        "arrivals": arrivals,
        "departures": departures,
        "churns": churns,
    }


def build_schedule(recipe: dict) -> DynamicsSchedule:
    """A fresh schedule from a :func:`dynamics_recipes` recipe."""
    schedule = DynamicsSchedule()
    for index, (time, cpu, mbps) in enumerate(recipe["arrivals"]):
        schedule.arrival(
            time,
            Agent(
                agent_id=recipe["num_agents"] + index,
                profile=ResourceProfile(cpu, mbps),
                num_samples=300,
                batch_size=100,
            ),
        )
    for time, agent_id in recipe["departures"]:
        schedule.departure(time, agent_id=agent_id)
    for time, agent_ids in recipe["churns"]:
        schedule.churn(time, agent_ids=agent_ids)
    return schedule
