#!/usr/bin/env python3
"""Real local-loss split training on non-I.I.D. data (learning plane demo).

Unlike the quickstart (which uses the calibrated learning-curve model for
accuracy), this example genuinely trains the numpy proxy model through the
full ComDML pipeline: Dirichlet(0.5) label-skewed shards, the decentralized
pairing scheduler, local-loss split training on every offloading pair,
and AllReduce parameter averaging.  It prints the accuracy and simulated
time after every round, plus the pairing decisions of the first round.

Run with:  python examples/non_iid_split_training.py
"""

import numpy as np

from repro.agents.registry import AgentRegistry
from repro.agents.resources import assign_profiles_evenly
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.data.partition import dirichlet_partition
from repro.data.synthetic import cifar10_like
from repro.models.proxy import ProxyModelFactory
from repro.models.resnet import resnet56_spec
from repro.training.accuracy import ProxyAccuracyTracker

NUM_AGENTS = 8
ROUNDS = 10
SEED = 0


def main() -> None:
    rng = np.random.default_rng(SEED)

    # --- data: synthetic CIFAR-10 stand-in, Dirichlet(0.5) label skew ---
    train, test = cifar10_like(train_samples=4_000, test_samples=1_000, seed=SEED)
    shards = dirichlet_partition(train.labels, NUM_AGENTS, rng, alpha=0.5)
    datasets = {i: train.subset(shards[i], f"agent{i}") for i in range(NUM_AGENTS)}

    # --- heterogeneous population with the paper's resource profiles ---
    registry = AgentRegistry.build(
        num_agents=NUM_AGENTS,
        rng=rng,
        samples_per_agent=[len(shard) for shard in shards],
        batch_size=50,
        profiles=assign_profiles_evenly(NUM_AGENTS, rng),
    )
    print("Agent shards (non-I.I.D.):")
    for agent in registry:
        print(
            f"  agent {agent.agent_id}: {agent.num_samples:4d} samples, "
            f"{agent.profile.cpu_share:>3.1f} CPU, {agent.profile.bandwidth_mbps:>5.1f} Mbps"
        )

    # --- learning plane: real proxy-model training ---
    spec = resnet56_spec()
    factory = ProxyModelFactory(spec=spec, input_features=train.num_features, num_blocks=4, width=48)
    tracker = ProxyAccuracyTracker(
        factory=factory,
        agent_datasets=datasets,
        test_dataset=test,
        batch_size=50,
        seed=SEED,
    )

    comdml = ComDML(
        registry=registry,
        spec=spec,
        config=ComDMLConfig(
            max_rounds=ROUNDS,
            learning_rate=0.03,
            offload_granularity=9,
            seed=SEED,
        ),
        accuracy_tracker=tracker,
    )

    # Show the first round's pairing plan before running.
    decisions = comdml.scheduler.plan_round(comdml.scheduler.select_participants())
    print("\nRound-0 pairing plan (slow -> fast, offloaded layers, estimated round time):")
    for decision in decisions:
        if decision.is_offloading:
            print(
                f"  agent {decision.slow_id} -> agent {decision.fast_id}: "
                f"offload {decision.offloaded_layers:2d} layers, "
                f"~{decision.estimate.pair_time:7.1f} s"
            )
        else:
            print(
                f"  agent {decision.slow_id} trains alone, "
                f"~{decision.estimate.pair_time:7.1f} s"
            )

    print("\nTraining (real numpy proxy model, local-loss split training):")
    history = comdml.run()
    for record in history.records:
        print(
            f"  round {record.round_index:2d}: accuracy {record.accuracy:.3f}, "
            f"round {record.duration_seconds:7.1f} s, total {record.cumulative_seconds:9.1f} s, "
            f"{record.num_pairs} offloading pairs"
        )
    print(f"\nFinal accuracy after {len(history)} rounds: {history.final_accuracy:.3f}")


if __name__ == "__main__":
    main()
