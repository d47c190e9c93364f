"""The :class:`Agent` — one participant in the decentralized system.

An agent owns a local dataset shard, a resource profile, and (in the
learning plane) local model state.  The timing-plane quantities the paper's
scheduler needs are exposed as properties:

* ``processing_speed`` — batches of the *full* model trained per simulated
  second (the paper's ``p_i``);
* ``num_batches`` — the paper's ``Ñ_i``;
* ``individual_training_time`` — ``Ñ_i / p_i``, the time the agent would
  need to finish its round without offloading (the paper's ``τ_i``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.agents.resources import ResourceProfile
from repro.sim.costs import cpu_share_to_throughput
from repro.utils.validation import check_non_negative, check_positive


@dataclass
class Agent:
    """A single learning agent.

    Attributes
    ----------
    agent_id:
        Stable integer identifier (used for pairing decisions and topology
        node labels).
    profile:
        Current :class:`~repro.agents.resources.ResourceProfile`.
    num_samples:
        Number of local training samples (the paper's ``N_i``).
    batch_size:
        Local mini-batch size (the paper uses 100).
    local_epochs:
        Local epochs per round (the paper uses 1).
    data_indices:
        Optional indices into the global dataset backing this agent's shard.
    model_state:
        Learning-plane state (parameters of the local model); opaque to the
        timing plane.

    An :class:`~repro.agents.registry.AgentRegistry` keeps a copy of the
    timing-plane attributes in its columns while it holds the agent.
    ``num_samples``, ``batch_size`` and ``local_epochs`` are therefore fixed
    once the agent is registered (the registry also keeps a running total
    of ``num_samples``), and a registered agent's profile changes only
    through :meth:`update_profile`, which writes the registry's cells too.
    """

    agent_id: int
    profile: ResourceProfile
    num_samples: int = 0
    batch_size: int = 100
    local_epochs: int = 1
    data_indices: Optional[Any] = None
    model_state: Optional[Any] = field(default=None, repr=False)

    #: The registry holding this agent, if any.  Not a field, so it takes
    #: no part in equality or ``repr``; copies and pickles leave it out.
    _registry = None

    def __post_init__(self) -> None:
        check_non_negative(self.num_samples, "num_samples")
        check_positive(self.batch_size, "batch_size")
        check_positive(self.local_epochs, "local_epochs")

    # ------------------------------------------------------------------
    # Timing-plane quantities
    # ------------------------------------------------------------------
    @property
    def num_batches(self) -> int:
        """Number of mini-batches per local epoch (the paper's ``Ñ_i``), at least 1."""
        if self.num_samples == 0:
            return 0
        return max(1, -(-self.num_samples // self.batch_size))

    @property
    def batches_per_round(self) -> int:
        """Total batches processed per round (``Ñ_i × local_epochs``)."""
        return self.num_batches * self.local_epochs

    def processing_speed(self, flops_per_batch: float) -> float:
        """Batches of the full model trained per second (the paper's ``p_i``).

        Parameters
        ----------
        flops_per_batch:
            Forward+backward cost (flop-equivalents) of the full model for
            one mini-batch.
        """
        check_positive(flops_per_batch, "flops_per_batch")
        return cpu_share_to_throughput(self.profile.cpu_share) / flops_per_batch

    def individual_training_time(self, flops_per_batch: float) -> float:
        """Round time without offloading (the paper's ``τ_i = Ñ_i / p_i``)."""
        if self.batches_per_round == 0:
            return 0.0
        return self.batches_per_round / self.processing_speed(flops_per_batch)

    # ------------------------------------------------------------------
    # Resource updates
    # ------------------------------------------------------------------
    def update_profile(self, profile: ResourceProfile) -> None:
        """Replace the agent's resource profile (dynamic churn)."""
        self.profile = profile
        if self._registry is not None:
            self._registry._store_profile(self)

    @property
    def is_connected(self) -> bool:
        """Whether this agent currently has a usable network link."""
        return self.profile.is_connected

    def __hash__(self) -> int:
        return hash(self.agent_id)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_registry", None)
        return state
