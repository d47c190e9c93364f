"""A per-pair reference for the Gossip Learning round.

The Gossip exchange as it ran before it read each participant's adjacency:
every participant asks ``can_communicate`` of every other participant, in
participant order, draws one of the peers it found from the trainer's
``_method_rng`` and pushes the model to it.
:func:`round_timing_reference` prices a round this way on a built
``GossipLearning`` trainer, so a property can compare it with the
trainer's column pricing on the same input.  Training times and pushes
are priced by the scalar oracle in ``tests/baseline_reference.py``.
"""

from __future__ import annotations

from baseline_reference import maxima, push_time, solo_time


def exchange_time_reference(trainer, agent, participants) -> float:
    """Time for one model push to a random connected neighbour."""
    neighbors = [
        other
        for other in participants
        if other.agent_id != agent.agent_id
        and trainer.link_model.can_communicate(agent, other)
    ]
    if not neighbors:
        return 0.0
    choice = neighbors[int(trainer._method_rng.integers(0, len(neighbors)))]
    return push_time(trainer, agent, choice)


def round_timing_reference(trainer, participants) -> tuple[float, float, float]:
    """``(total, compute, communication)`` of one round, participant by participant."""
    if not participants:
        return 0.0, 0.0, 0.0
    chains = []
    for agent in participants:
        compute = solo_time(trainer, agent)
        exchange = exchange_time_reference(trainer, agent, participants)
        chains.append((compute + exchange, compute, exchange))
    return maxima(chains)
