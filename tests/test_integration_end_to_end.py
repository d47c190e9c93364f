"""End-to-end integration tests exercising the full pipeline.

These are the closest thing to a miniature paper reproduction inside the
test suite: a heterogeneous population, the ComDML pipeline with *real*
proxy-model training (no learning-curve shortcut), and the comparison with a
no-balancing baseline.
"""

import numpy as np
import pytest

from repro.agents.registry import AgentRegistry
from repro.agents.resources import ResourceProfile
from repro.baselines.allreduce_dml import AllReduceDML
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.data.partition import iid_partition
from repro.data.synthetic import cifar10_like
from repro.models.proxy import ProxyModelFactory
from repro.models.resnet import resnet56_spec
from repro.training.accuracy import ProxyAccuracyTracker


@pytest.fixture(scope="module")
def proxy_world():
    """Six heterogeneous agents with real data shards and a proxy model."""
    train, test = cifar10_like(train_samples=1_800, test_samples=600, num_features=32, seed=9)
    num_agents = 6
    shards = iid_partition(train.labels, num_agents, np.random.default_rng(0))
    profiles = [
        ResourceProfile(4.0, 100.0),
        ResourceProfile(2.0, 50.0),
        ResourceProfile(1.0, 50.0),
        ResourceProfile(1.0, 20.0),
        ResourceProfile(0.5, 20.0),
        ResourceProfile(0.2, 10.0),
    ]
    registry = AgentRegistry.build(
        num_agents=num_agents,
        rng=np.random.default_rng(1),
        samples_per_agent=[len(shard) for shard in shards],
        batch_size=50,
        profiles=profiles,
    )
    datasets = {i: train.subset(shards[i], f"agent{i}") for i in range(num_agents)}
    spec = resnet56_spec()
    factory = ProxyModelFactory(spec=spec, input_features=32, num_blocks=3, width=24)
    return registry, datasets, test, spec, factory


class TestEndToEndComDML:
    def test_comdml_with_real_training_reaches_good_accuracy(self, proxy_world):
        registry, datasets, test, spec, factory = proxy_world
        tracker = ProxyAccuracyTracker(
            factory=factory,
            agent_datasets=datasets,
            test_dataset=test,
            batch_size=50,
            seed=0,
        )
        config = ComDMLConfig(
            max_rounds=8, learning_rate=0.05, offload_granularity=9, seed=0
        )
        comdml = ComDML(registry=registry, spec=spec, config=config, accuracy_tracker=tracker)
        history = comdml.run()
        assert history.final_accuracy > 0.5
        assert history.total_time > 0
        assert any(record.num_pairs > 0 for record in history.records)

    def test_comdml_beats_allreduce_on_time_at_same_accuracy(self, proxy_world):
        registry, datasets, test, spec, factory = proxy_world

        def build_tracker(seed):
            return ProxyAccuracyTracker(
                factory=factory,
                agent_datasets=datasets,
                test_dataset=test,
                batch_size=50,
                seed=seed,
            )

        config = ComDMLConfig(
            max_rounds=6, learning_rate=0.05, offload_granularity=9, seed=0
        )
        comdml_history = ComDML(
            registry=registry, spec=spec, config=config, accuracy_tracker=build_tracker(1)
        ).run()
        baseline_history = AllReduceDML(
            registry=registry, spec=spec, config=config, accuracy_tracker=build_tracker(1)
        ).run()

        # Both learn comparably (same tracker construction)...
        assert abs(comdml_history.final_accuracy - baseline_history.final_accuracy) < 0.15
        # ...but ComDML's simulated wall-clock is substantially shorter.
        assert comdml_history.total_time < 0.8 * baseline_history.total_time

    def test_simulated_time_independent_of_wall_clock(self, proxy_world):
        registry, _, _, spec, _ = proxy_world
        config = ComDMLConfig(max_rounds=3, offload_granularity=9, seed=0)
        first = ComDML(registry=registry, spec=spec, config=config).run()
        second = ComDML(registry=registry, spec=spec, config=config).run()
        assert first.total_time == pytest.approx(second.total_time)
