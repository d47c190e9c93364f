"""Vectorized round-planning kernel.

Planning a round evaluates the paper's ``AgentTrainingTime``
(Algorithm 1) for each (slow, candidate, split) triple.  ComDML's rounds
do that in :mod:`repro.core.planner`, which shares this module's
per-agent vectors (:func:`agent_attrs`, :class:`AgentVectors`); the dense
kernel below backs :func:`~repro.core.pairing.greedy_pairing` (the
ablations and the benchmarks) and
:func:`~repro.core.workload.exact_min_makespan`.  The scalar path in
:mod:`repro.core.workload` builds an
:class:`~repro.core.workload.OffloadEstimate` dataclass per triple —
an O(n² · M) pure-Python loop that dominates planning cost at campaign
scale.  :class:`PairCostModel` evaluates the same min-reduction as a
handful of broadcasted NumPy operations:

1. per-agent vectors are extracted once per round: processing speeds
   ``p_i``, batches per round ``Ñ_i``, individual training times ``τ̂_i``,
   and the effective bandwidth matrix ``c_ij``;
2. for each candidate split ``m`` (there are few), the full ``n × n``
   pair-time slice ``τ̂_ij^m = max(Ñ_i T_s(m)/p_i, τ̂_j + Ñ_i ν_m/c_ij +
   Ñ_i T_f(m)/p_j)`` is computed elementwise;
3. a running strict-``<`` minimum over the ``m`` slices argmin-reduces to
   the best split per (slow, candidate) pair, and a masked row argmin
   gives the best candidate per slow agent.

Bit-for-bit identity with the scalar oracle is a hard requirement (the
sync golden regression serializes these floats): every elementwise
expression below mirrors the *exact* operation order of
:func:`repro.core.workload.estimate_offload_time`, all reductions use
first-minimum tie-breaking exactly like the scalar ``min``/strict-``<``
loops, and the final :class:`~repro.core.workload.OffloadEstimate` for a
chosen pair is produced by the scalar oracle itself (one call per formed
pair, not per candidate).  ``tests/test_fastpath.py`` asserts full float
equality of the resulting decisions against the scalar reference across
random populations, profiles, and bandwidth matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.core.profiling import SplitProfile
from repro.core.workload import OffloadEstimate, estimate_offload_time
from repro.sim.costs import (
    BASELINE_FLOPS_PER_SECOND,
    CPU_SCALING_EXPONENT,
    DEFAULT_LINK_LATENCY_SECONDS,
)
from repro.network.link import LinkModel
from repro.utils.units import BITS_PER_BYTE
from repro.utils.validation import check_positive


def _uses_default_links(link_model: LinkModel) -> bool:
    """Whether ``link_model`` keeps the base bandwidth semantics.

    True for plain :class:`~repro.network.link.LinkModel` instances and for
    subclasses that override neither :meth:`~LinkModel.bandwidth` nor
    :meth:`~LinkModel.can_communicate` — exactly the models whose pairwise
    bandwidth can be assembled vectorized as ``min(access_i, access_j)``
    masked by the topology adjacency.
    """
    cls = type(link_model)
    return (
        cls.bandwidth is LinkModel.bandwidth
        and cls.can_communicate is LinkModel.can_communicate
    )


def bandwidth_matrix(agents: Sequence[Agent], link_model: LinkModel) -> np.ndarray:
    """Effective pairwise bandwidth (bytes/s), 0.0 where no usable link.

    Entry ``[i, j]`` equals ``link_model.bandwidth(agents[i], agents[j])``
    exactly.  For link models with the default bandwidth semantics (plain
    :class:`~repro.network.link.LinkModel` or subclasses overriding neither
    ``bandwidth`` nor ``can_communicate``) the matrix is assembled
    vectorized from the topology's adjacency (the effective bandwidth is
    the min of the two access links, with no arithmetic, so no rounding
    concerns).  Link models that *do* override the pairwise semantics fall
    back to per-pair calls — but only along the topology's edges, O(E)
    instead of O(n²): off-topology pairs are 0 by the
    :class:`~repro.network.link.LinkModel` contract.
    """
    import networkx as nx

    n = len(agents)
    ids = [agent.agent_id for agent in agents]
    if _uses_default_links(link_model):
        try:
            adjacency = np.asarray(
                _adjacency(link_model, ids), dtype=bool
            )
        except (nx.NetworkXError, KeyError):
            # A participant is missing from the topology graph — the only
            # legitimate reason the adjacency assembly can fail.  Per-pair
            # calls resolve such agents to bandwidth 0.  Anything else
            # (a real bug) propagates.
            adjacency = None
        if adjacency is not None:
            access = np.array(
                [agent.profile.bandwidth_bytes_per_second for agent in agents],
                dtype=np.float64,
            )
            # min(access_i, access_j) is 0 whenever either side is
            # disconnected, matching LinkModel.can_communicate.
            matrix = np.minimum(access[:, None], access[None, :])
            matrix[~adjacency] = 0.0
            np.fill_diagonal(matrix, 0.0)
            return matrix
        matrix = np.zeros((n, n), dtype=np.float64)
        for i, a in enumerate(agents):
            for j, b in enumerate(agents):
                if i != j:
                    matrix[i, j] = link_model.bandwidth(a, b)
        return matrix
    # Custom pairwise semantics: one call per ordered topology edge among
    # the participants (bandwidth may be asymmetric in a subclass).
    matrix = np.zeros((n, n), dtype=np.float64)
    position = {agent_id: index for index, agent_id in enumerate(ids)}
    graph = link_model.topology.graph
    for u, v in graph.edges(ids):
        i = position.get(u)
        j = position.get(v)
        if i is None or j is None or i == j:
            continue
        matrix[i, j] = link_model.bandwidth(agents[i], agents[j])
        matrix[j, i] = link_model.bandwidth(agents[j], agents[i])
    return matrix


def _adjacency(link_model: LinkModel, ids: list[int]):
    import networkx as nx

    return nx.to_numpy_array(
        link_model.topology.graph, nodelist=ids, weight=None, dtype=np.float64
    )


@dataclass(frozen=True)
class AgentVectors:
    """Per-agent planning vectors, extracted once per round.

    The same scalar formulas as :func:`~repro.core.workload` evaluated
    elementwise, shared between the dense :class:`PairCostModel` kernel and
    the pruned planner (:mod:`repro.core.planner`) so both produce
    bit-identical values.

    Attributes
    ----------
    throughput:
        Flop-equivalents per second per agent.
    batches:
        The paper's ``Ñ_i`` (batches per round, scaled by local epochs).
    batch_sizes:
        Resolved per-agent batch size (the override when given, each
        agent's own otherwise).
    flops:
        Full-model training flops per batch (``full_flops × batch_size``).
    individual_times:
        ``τ̂_i`` — the broadcast individual-time list of Algorithm 1.
    slow_speed:
        Full-model batches per second (the paper's ``p_i``).
    solo_times:
        ``Ñ_i / p_i`` evaluated in the estimate path's operation order.
    """

    throughput: np.ndarray
    batches: np.ndarray
    batch_sizes: np.ndarray
    flops: np.ndarray
    individual_times: np.ndarray
    slow_speed: np.ndarray
    solo_times: np.ndarray


@dataclass(frozen=True)
class AgentAttrs:
    """Raw per-agent attribute columns, extracted in one pass per round.

    One Python sweep over the agents yields every input the planner needs
    — the planning vectors (:func:`agent_vectors_from_attrs`), the change
    -detection signature matrix, and the access-bandwidth vector — so the
    per-round Python cost is a handful of attribute list comprehensions
    instead of one pass per derived quantity.

    Attributes
    ----------
    cpu_share / bandwidth_mbps:
        The :class:`~repro.agents.resources.ResourceProfile` columns
        (float64).
    num_samples / batch_size / local_epochs:
        The workload columns (int64).
    """

    cpu_share: np.ndarray
    bandwidth_mbps: np.ndarray
    num_samples: np.ndarray
    batch_size: np.ndarray
    local_epochs: np.ndarray

    def signature_matrix(self) -> np.ndarray:
        """``(n, 5)`` float64 change-detection matrix.

        Two rounds' matrices compare equal elementwise exactly when every
        scalar input of an agent's planning row is unchanged — the same
        contract the historical per-agent signature tuples had.
        """
        return np.column_stack(
            (
                self.cpu_share,
                self.bandwidth_mbps,
                self.num_samples.astype(np.float64),
                self.batch_size.astype(np.float64),
                self.local_epochs.astype(np.float64),
            )
        )

    def access_bandwidth(self) -> np.ndarray:
        """Per-agent access-link speed in bytes/s.

        Elementwise identical to
        :meth:`~repro.agents.resources.ResourceProfile.bandwidth_bytes_per_second`
        (same multiply-then-divide operation order as
        :func:`~repro.utils.units.mbps_to_bytes_per_second`).
        """
        return self.bandwidth_mbps * 1_000_000 / BITS_PER_BYTE


def agent_attrs(agents: Sequence[Agent]) -> AgentAttrs:
    """Extract the raw per-agent attribute columns for one round."""
    n = len(agents)
    profiles = [agent.profile for agent in agents]
    return AgentAttrs(
        cpu_share=np.fromiter(
            (profile.cpu_share for profile in profiles),
            dtype=np.float64,
            count=n,
        ),
        bandwidth_mbps=np.fromiter(
            (profile.bandwidth_mbps for profile in profiles),
            dtype=np.float64,
            count=n,
        ),
        num_samples=np.fromiter(
            (agent.num_samples for agent in agents), dtype=np.int64, count=n
        ),
        batch_size=np.fromiter(
            (agent.batch_size for agent in agents), dtype=np.int64, count=n
        ),
        local_epochs=np.fromiter(
            (agent.local_epochs for agent in agents), dtype=np.int64, count=n
        ),
    )


def agent_vectors_from_attrs(
    attrs: AgentAttrs,
    profile: SplitProfile,
    batch_size: Optional[int] = None,
) -> AgentVectors:
    """:func:`agent_vectors` computed from pre-extracted attribute columns.

    Every derived float matches the scalar path bit for bit: the integer
    batch arithmetic is exact in int64 before the (exact, < 2⁵³) float64
    conversion, and the throughput expression keeps the scalar ``x ** e``
    power whenever the exponent is not the (IEEE-exact) identity case.
    """
    if batch_size is not None:
        check_positive(batch_size, "batch_size")
    if CPU_SCALING_EXPONENT == 1.0:
        # pow(x, 1.0) == x exactly in IEEE-754, so the broadcast multiply
        # is bit-identical to the scalar expression.
        throughput = BASELINE_FLOPS_PER_SECOND * attrs.cpu_share
    else:
        # numpy's float_power/** disagrees with C ``pow`` in the last ulp
        # for general exponents — keep the scalar power per element.
        throughput = np.array(
            [
                BASELINE_FLOPS_PER_SECOND * share**CPU_SCALING_EXPONENT
                for share in attrs.cpu_share.tolist()
            ],
            dtype=np.float64,
        )
    # Agent.num_batches / batches_per_round in exact integer arithmetic:
    # 0 when the agent holds no samples, else ceil-div floored at 1.
    num_batches = np.where(
        attrs.num_samples == 0,
        0,
        np.maximum(1, -(-attrs.num_samples // attrs.batch_size)),
    )
    batches = (num_batches * attrs.local_epochs).astype(np.float64)
    if batch_size is not None:
        batch_sizes = np.full(len(attrs.batch_size), float(batch_size))
    else:
        batch_sizes = attrs.batch_size.astype(np.float64)
    flops = profile.full_train_flops_per_sample * batch_sizes
    individual_times = batches / (throughput / flops)
    slow_speed = throughput / flops
    solo_times = batches / slow_speed
    return AgentVectors(
        throughput=throughput,
        batches=batches,
        batch_sizes=batch_sizes,
        flops=flops,
        individual_times=individual_times,
        slow_speed=slow_speed,
        solo_times=solo_times,
    )


def agent_vectors(
    agents: Sequence[Agent],
    profile: SplitProfile,
    batch_size: Optional[int] = None,
) -> AgentVectors:
    """Extract the per-agent vectors the planning kernels broadcast over.

    ``batch_size`` overrides every agent's own batch size and must be
    positive when given (the config boundary rejects non-positive
    overrides, so the historical falsy-override ambiguity cannot arise).
    """
    return agent_vectors_from_attrs(agent_attrs(agents), profile, batch_size)


class PairCostModel:
    """Precomputed pair-time tensor for one round's participants.

    Parameters
    ----------
    participants:
        The round's agents; all matrices are indexed by position in this
        sequence.
    profile:
        Split profile of the architecture being trained.
    link_model:
        Source of pairwise bandwidths (mutually exclusive with
        ``bandwidths``).
    bandwidths:
        Explicit ``n × n`` bandwidth matrix in bytes/s (used by the exact
        solver, whose bandwidths come from a caller-supplied lookup).
    batch_size:
        Optional batch-size override, with the same semantics as the
        scalar path: estimates resolve ``None`` to each slow agent's own
        batch size.
    latency_seconds:
        Per-message link latency; defaults to the link model's latency or
        :data:`~repro.sim.costs.DEFAULT_LINK_LATENCY_SECONDS`.
    shared_busy_times:
        When true (the greedy scheduler's convention) the fast agent's own
        task time ``τ̂_j`` is its broadcast individual time, computed with
        its *own* batch size.  When false (the exact solver's convention,
        matching ``estimate_offload_time`` with no explicit busy time) it
        is recomputed with the slow agent's batch size.

    Attributes
    ----------
    individual_times:
        ``τ̂_i`` vector (the shared list broadcast in Algorithm 1).
    bandwidths:
        Effective bandwidth matrix in bytes/s, 0 where unusable.
    best_pair_times:
        ``[i, j]`` = minimum of ``τ̂_ij^m`` over all profiled splits
        (``+inf`` where ``i == j`` or no usable link).
    best_split_indices:
        Position in ``profile.offload_options`` of the minimizing split
        (first minimum on ties, like the scalar oracle; ``-1`` invalid).
    pairable:
        Boolean matrix: a usable link exists *and* the best split actually
        offloads work (``m > 0``) — exactly the candidates the greedy
        scheduler considers.
    """

    def __init__(
        self,
        participants: Sequence[Agent],
        profile: SplitProfile,
        *,
        link_model: Optional[LinkModel] = None,
        bandwidths: Optional[np.ndarray] = None,
        batch_size: Optional[int] = None,
        latency_seconds: Optional[float] = None,
        shared_busy_times: bool = True,
    ) -> None:
        if (link_model is None) == (bandwidths is None):
            raise ValueError("provide exactly one of link_model or bandwidths")
        if batch_size is not None:
            check_positive(batch_size, "batch_size")
        self.agents = list(participants)
        self.profile = profile
        self.batch_size = batch_size
        n = len(self.agents)
        self.n = n
        if latency_seconds is None:
            latency_seconds = (
                link_model.latency_seconds
                if link_model is not None
                else DEFAULT_LINK_LATENCY_SECONDS
            )
        self.latency_seconds = latency_seconds
        self._shared_busy_times = shared_busy_times

        if bandwidths is not None:
            self.bandwidths = np.asarray(bandwidths, dtype=np.float64)
            if self.bandwidths.shape != (n, n):
                raise ValueError(
                    f"bandwidth matrix must be {n}x{n}, got {self.bandwidths.shape}"
                )
        else:
            self.bandwidths = bandwidth_matrix(self.agents, link_model)

        # ------------------------------------------------------------------
        # Per-agent vectors (same scalar formulas, evaluated elementwise;
        # batch_size overrides are validated positive above, so τ̂ and the
        # estimates resolve the override identically)
        # ------------------------------------------------------------------
        vectors = agent_vectors(self.agents, profile, batch_size)
        batches = vectors.batches
        bs_est = vectors.batch_sizes
        flops_est = vectors.flops
        throughput = vectors.throughput
        self.individual_times = vectors.individual_times
        # Slow-side speed p_i and fast-side speed p_j, both under the slow
        # agent's batch size (estimate_offload_time converts per-sample
        # costs with a single batch size per pair).
        slow_speed = vectors.slow_speed
        fast_speed = throughput[None, :] / flops_est[:, None]
        solo_est = vectors.solo_times

        if shared_busy_times:
            busy = np.broadcast_to(self.individual_times[None, :], (n, n))
        else:
            busy = batches[None, :] / fast_speed

        # ------------------------------------------------------------------
        # Pair-time slices per split, reduced with strict-< first-minimum
        # ------------------------------------------------------------------
        best_time = np.full((n, n), np.inf)
        best_index = np.full((n, n), -1, dtype=np.int64)
        slow_factors = profile.slow_time_array
        fast_factors = profile.fast_time_array
        intermediate = profile.intermediate_bytes_array
        offloaded = profile.offloaded_bytes_array
        with np.errstate(divide="ignore", invalid="ignore"):
            for index, option in enumerate(profile.offload_options):
                if option == 0:
                    pair_time = np.maximum(solo_est[:, None], busy)
                else:
                    slow_factor = slow_factors[index]
                    fast_factor = fast_factors[index]
                    slow_time = (
                        batches * slow_factor / slow_speed
                        if slow_factor > 0
                        else np.zeros(n)
                    )
                    fast_offload = (
                        (batches * fast_factor)[:, None] / fast_speed
                        if fast_factor > 0
                        else np.zeros((n, n))
                    )
                    intermediate_bytes = (intermediate[index] * bs_est)[:, None]
                    communication = batches[:, None] * (
                        latency_seconds + intermediate_bytes / self.bandwidths
                    ) + (2.0 * offloaded[index]) / self.bandwidths
                    fast_chain = (busy + communication) + fast_offload
                    pair_time = np.maximum(slow_time[:, None], fast_chain)
                better = pair_time < best_time
                best_time[better] = pair_time[better]
                best_index[better] = index
        valid = self.bandwidths > 0
        np.fill_diagonal(valid, False)
        best_time[~valid] = np.inf
        best_index[~valid] = -1
        self.best_pair_times = best_time
        self.best_split_indices = best_index
        offload_values = profile.options_array
        self.pairable = valid & (offload_values[np.maximum(best_index, 0)] > 0)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def best_offloaded_layers(self, slow: int, fast: int) -> int:
        """Offload value ``m`` minimizing the pair time for positions (slow, fast)."""
        index = int(self.best_split_indices[slow, fast])
        if index < 0:
            raise ValueError(f"no usable link between positions {slow} and {fast}")
        return int(self.profile.offload_options[index])

    def estimate(self, slow: int, fast: int) -> OffloadEstimate:
        """Full :class:`OffloadEstimate` for the best split of (slow, fast).

        Delegates to the scalar oracle for the single chosen split, so the
        returned estimate is bit-identical to the pure-Python path (and is
        built from Python floats, keeping downstream JSON serializable).
        Under ``shared_busy_times=False`` the oracle recomputes the fast
        agent's busy time itself, mirroring a ``best_offload`` call with no
        explicit busy time.
        """
        busy = (
            float(self.individual_times[fast]) if self._shared_busy_times else None
        )
        return estimate_offload_time(
            slow_agent=self.agents[slow],
            fast_agent=self.agents[fast],
            offloaded_layers=self.best_offloaded_layers(slow, fast),
            profile=self.profile,
            bandwidth_bytes_per_second=float(self.bandwidths[slow, fast]),
            fast_agent_busy_time=busy,
            batch_size=self.batch_size,
            latency_seconds=self.latency_seconds,
        )
