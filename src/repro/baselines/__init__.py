"""Baseline training methods the paper compares ComDML against."""

from repro.baselines.base import BaselineTrainer
from repro.baselines.fedavg import FedAvg
from repro.baselines.fedprox import FedProx
from repro.baselines.allreduce_dml import AllReduceDML
from repro.baselines.gossip import GossipLearning
from repro.baselines.braintorrent import BrainTorrent

__all__ = [
    "BaselineTrainer",
    "FedAvg",
    "FedProx",
    "AllReduceDML",
    "GossipLearning",
    "BrainTorrent",
]

