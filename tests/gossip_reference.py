"""A per-pair reference for the Gossip Learning round.

The Gossip exchange as it ran before it read each participant's adjacency:
every participant asks ``can_communicate`` of every other participant, in
participant order, draws one of the peers it found from the trainer's
``_method_rng`` and pushes the model over ``bandwidth``.
:func:`round_timing_reference` prices a round this way on a built
``GossipLearning`` trainer, so a property can compare it with
``GossipLearning.round_timing`` on the same input.
"""

from __future__ import annotations

from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS


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
    bandwidth = trainer.link_model.bandwidth(agent, choice)
    if bandwidth <= 0:
        return 0.0
    return DEFAULT_LINK_LATENCY_SECONDS + trainer.model_bytes() / bandwidth


def round_timing_reference(trainer, participants) -> tuple[float, float, float]:
    """``(total, compute, communication)`` of one round, participant by participant."""
    if not participants:
        return 0.0, 0.0, 0.0
    chains = []
    for agent in participants:
        compute = trainer.full_model_training_time(agent)
        exchange = exchange_time_reference(trainer, agent, participants)
        chains.append((compute + exchange, compute, exchange))
    total = max(chain[0] for chain in chains)
    compute = max(chain[1] for chain in chains)
    communication = max(chain[2] for chain in chains)
    return total, compute, communication
