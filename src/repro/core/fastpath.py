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
from repro.agents.registry import COLUMNS, gather_columns
from repro.core.profiling import SplitProfile
from repro.core.workload import OffloadEstimate, estimate_offload_time
from repro.sim.costs import BASELINE_FLOPS_PER_SECOND, DEFAULT_LINK_LATENCY_SECONDS
from repro.network.link import LinkModel
from repro.utils.units import BITS_PER_BYTE


def bandwidth_matrix(agents: Sequence[Agent], link_model: LinkModel) -> np.ndarray:
    """Effective pairwise bandwidth (bytes/s), 0.0 where no usable link.

    Entry ``[i, j]`` equals :meth:`~repro.network.link.LinkModel.bandwidth`
    of ``(agents[i], agents[j])`` exactly: the min of the two access links
    (no arithmetic, so no rounding concerns), masked by the topology's
    adjacency among the participants it holds.  A participant the topology
    lacks has no links.
    """
    n = len(agents)
    topology = link_model.topology
    rows, cols = topology.links_for(
        topology.translation([agent.agent_id for agent in agents])
    )
    access = np.array(
        [agent.profile.bandwidth_bytes_per_second for agent in agents],
        dtype=np.float64,
    )
    # min(access_i, access_j) is 0 whenever either side is disconnected:
    # a disconnected agent has no link.
    matrix = np.zeros((n, n))
    matrix[rows, cols] = np.minimum(access[rows], access[cols])
    return matrix


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
        Each agent's batch size, as float64.
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
    """Raw per-agent attribute columns, extracted once per round.

    They hold every input the planner needs — the participant ids, the
    planning vectors (:func:`agent_vectors_from_attrs`), the change
    -detection signature matrix, and the access-bandwidth vector.  The
    fields follow the order of the registry's
    :data:`~repro.agents.registry.COLUMNS`.

    Attributes
    ----------
    agent_id:
        The agents' ids (int64).
    cpu_share / bandwidth_mbps:
        The :class:`~repro.agents.resources.ResourceProfile` columns
        (float64).
    num_samples / batch_size / local_epochs:
        The workload columns (int64).
    """

    agent_id: np.ndarray
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
    """Extract the raw per-agent attribute columns for one round.

    A registry's :class:`~repro.agents.registry.AgentSelection` is read as
    one gather per column over its rows; any other sequence one agent at a
    time.
    """
    columns = gather_columns(agents, *(name for name, _, _ in COLUMNS))
    if columns is None:
        return _read_agent_attrs(agents)
    return AgentAttrs(*columns)


def _read_agent_attrs(agents: Sequence[Agent]) -> AgentAttrs:
    """:func:`agent_attrs` of agents that are not a registry selection."""
    n = len(agents)
    profiles = [agent.profile for agent in agents]
    return AgentAttrs(
        agent_id=np.fromiter(
            (agent.agent_id for agent in agents), dtype=np.int64, count=n
        ),
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


def agent_vectors_from_attrs(attrs: AgentAttrs, profile: SplitProfile) -> AgentVectors:
    """:func:`agent_vectors` computed from pre-extracted attribute columns.

    Every derived float matches the scalar path bit for bit: the integer
    batch arithmetic is exact in int64 before the (exact, < 2⁵³) float64
    conversion, and the throughput is the scalar path's single multiply.
    """
    throughput = BASELINE_FLOPS_PER_SECOND * attrs.cpu_share
    # Agent.num_batches / batches_per_round in exact integer arithmetic:
    # 0 when the agent holds no samples, else ceil-div floored at 1.
    num_batches = np.where(
        attrs.num_samples == 0,
        0,
        np.maximum(1, -(-attrs.num_samples // attrs.batch_size)),
    )
    batches = (num_batches * attrs.local_epochs).astype(np.float64)
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


def agent_vectors(agents: Sequence[Agent], profile: SplitProfile) -> AgentVectors:
    """Extract the per-agent vectors the planning kernels broadcast over."""
    return agent_vectors_from_attrs(agent_attrs(agents), profile)


class PairCostModel:
    """Precomputed pair-time tensor for one round's participants.

    Every message costs
    :data:`~repro.sim.costs.DEFAULT_LINK_LATENCY_SECONDS`, as in
    :func:`~repro.core.workload.estimate_offload_time`.

    Parameters
    ----------
    participants:
        The round's agents; all matrices are indexed by position in this
        sequence.
    profile:
        Split profile of the architecture being trained.
    link_model:
        Source of pairwise bandwidths, through :func:`bandwidth_matrix`
        (mutually exclusive with ``bandwidths``).
    bandwidths:
        Explicit ``n × n`` bandwidth matrix in bytes/s (used by the exact
        solver, whose bandwidths come from a caller-supplied lookup).
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
        shared_busy_times: bool = True,
    ) -> None:
        if (link_model is None) == (bandwidths is None):
            raise ValueError("provide exactly one of link_model or bandwidths")
        self.agents = list(participants)
        self.profile = profile
        n = len(self.agents)
        self.n = n
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
        # Per-agent vectors (same scalar formulas, evaluated elementwise)
        # ------------------------------------------------------------------
        vectors = agent_vectors(self.agents, profile)
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
                        DEFAULT_LINK_LATENCY_SECONDS
                        + intermediate_bytes / self.bandwidths
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
        )
