"""Cost-model primitives: work → simulated seconds.

Two calibration constants underpin every timing number in the
reproduction; both are documented substitutions for quantities the paper
measured on its physical testbed (dual Xeon + 4× GTX 1080 Ti with
simulated CPU/bandwidth shares):

* ``BASELINE_FLOPS_PER_SECOND`` — effective training throughput of a
  resource share of 1.0, set to the order of magnitude of a mobile/edge-class
  CPU (the resource-constrained devices motivating the paper).  Throughput
  is linear in the CPU share, the paper's nominal model.  Together with
  the link profiles this keeps computation the dominant cost of a round, as
  in the paper's measurements, while remaining within roughly an order of
  magnitude of the paper's absolute table entries.
* ``DEFAULT_LINK_LATENCY_SECONDS`` — the fixed cost of every message:
  moving ``b`` bytes over a link of ``c`` bytes/second costs
  ``latency + b / c`` seconds.

The models are deliberately simple — the scheduler only relies on costs
being monotone in work and in (inverse) capacity, which they preserve.
"""

from __future__ import annotations

from repro.utils.validation import check_non_negative, check_positive

#: Flop-equivalents per second delivered by a resource share of 1.0.
BASELINE_FLOPS_PER_SECOND = 1.0e10

#: Fixed per-message latency in seconds added to every transfer.
DEFAULT_LINK_LATENCY_SECONDS = 0.005


def cpu_share_to_throughput(cpu_share: float) -> float:
    """Flop-equivalents per second delivered by an agent with the given CPU share."""
    check_positive(cpu_share, "cpu_share")
    return BASELINE_FLOPS_PER_SECOND * cpu_share


def transfer_time_seconds(num_bytes: float, bandwidth_bytes_per_second: float) -> float:
    """Time to move ``num_bytes`` over a link, one message's latency included.

    Raises
    ------
    ValueError
        If the bandwidth is zero or negative — zero-bandwidth (disconnected)
        links must be filtered out by the caller, mirroring the paper's
        treatment of the 0 Mbps profile as "no link".
    """
    check_non_negative(num_bytes, "num_bytes")
    if bandwidth_bytes_per_second <= 0:
        raise ValueError(
            "cannot transfer over a disconnected link "
            f"(bandwidth={bandwidth_bytes_per_second} B/s)"
        )
    if num_bytes == 0:
        return 0.0
    return DEFAULT_LINK_LATENCY_SECONDS + num_bytes / bandwidth_bytes_per_second
