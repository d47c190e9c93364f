"""Strategies for registry operation sequences.

A sequence is drawn as plain tuples and replayed against an
:class:`~repro.agents.registry.AgentRegistry` by the property that uses it,
so a failing example prints as data.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.agents.resources import BANDWIDTH_PROFILES_MBPS, CPU_PROFILES

#: Ids the steps draw from: a small pool, so removals and re-adds hit
#: registered agents, plus one id above 10**9.
REGISTRY_IDS = st.one_of(st.integers(min_value=0, max_value=15), st.just(10**9 + 7))

#: Everything an :class:`~repro.agents.agent.Agent` is built from, after its id.
AGENT_FIELDS = st.tuples(
    st.sampled_from(CPU_PROFILES),
    st.sampled_from(BANDWIDTH_PROFILES_MBPS),
    st.integers(min_value=0, max_value=3_000),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=3),
)

_STEPS = st.one_of(
    st.tuples(st.just("add"), REGISTRY_IDS, AGENT_FIELDS),
    st.tuples(st.just("remove"), REGISTRY_IDS),
    # Re-add the n-th agent removed so far (the same object), if any.
    st.tuples(st.just("readd"), st.integers(min_value=0, max_value=7)),
    st.tuples(
        st.just("update"),
        REGISTRY_IDS,
        st.sampled_from(CPU_PROFILES),
        st.sampled_from(BANDWIDTH_PROFILES_MBPS),
    ),
    st.tuples(
        st.just("churn_ids"),
        st.lists(st.one_of(REGISTRY_IDS, st.just(-1)), max_size=6),
        st.integers(min_value=0, max_value=2**16),
    ),
    st.tuples(
        st.just("churn_fraction"),
        st.sampled_from((0.1, 0.5, 1.0)),
        st.integers(min_value=0, max_value=2**16),
    ),
    # Take a selection now: every agent, or a sampled fraction.
    st.tuples(st.just("take"), st.sampled_from((1.0, 0.5)), st.integers(0, 2**16)),
    # Reorder the latest selection in place: sort it by descending id,
    # reverse it, or swap its ends by item assignment.
    st.tuples(st.just("reorder_taken"), st.sampled_from(("sort", "reverse", "swap"))),
)


@st.composite
def registry_ops(draw, max_steps: int = 30) -> dict:
    """A start population and a sequence of registry steps.

    Steps add agents (ids from :data:`REGISTRY_IDS`), remove ids that may
    or may not be registered, re-add removed agents, call
    ``update_profile`` on an agent, churn by ids and by fraction, and take
    and reorder selections.  Every sequence starts with a ``take``, and
    holds one reorder and one ``drain`` step at drawn positions.  The drain
    removes every registered agent but the last ``keep``: enough
    tombstones to force a compaction, which moves the kept rows, whenever
    more than ``keep`` agents are registered.
    """
    start = draw(st.integers(min_value=0, max_value=12))
    steps = draw(st.lists(_STEPS, min_size=5, max_size=max_steps))
    forced = (
        ("drain", draw(st.integers(min_value=0, max_value=2))),
        ("reorder_taken", draw(st.sampled_from(("sort", "reverse", "swap")))),
    )
    for step in forced:
        steps.insert(draw(st.integers(min_value=0, max_value=len(steps))), step)
    steps.insert(0, ("take", draw(st.sampled_from((1.0, 0.5))), 0))
    return {
        "start": [(agent_id, draw(AGENT_FIELDS)) for agent_id in range(start)],
        "steps": steps,
    }
