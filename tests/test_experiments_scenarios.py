"""Tests for scenario construction."""

import pytest

from repro.experiments.scenarios import (
    DATASET_TRAIN_SIZES,
    Scenario,
    ScenarioConfig,
    build_scenario,
)


class TestScenarioConfig:
    def test_defaults_valid(self):
        config = ScenarioConfig()
        assert config.num_agents == 10
        assert config.dataset == "cifar10"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(dataset="imagenet")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(model="vgg16")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(topology="star")

    def test_with_creates_modified_copy(self):
        config = ScenarioConfig()
        modified = config.with_(num_agents=50)
        assert modified.num_agents == 50
        assert config.num_agents == 10


class TestBuildScenario:
    def test_population_size_and_samples(self):
        scenario = build_scenario(ScenarioConfig(num_agents=10, dataset="cifar10"))
        assert len(scenario.registry) == 10
        assert scenario.registry.total_samples == DATASET_TRAIN_SIZES["cifar10"]

    def test_cinic_population_is_larger(self):
        cifar = build_scenario(ScenarioConfig(num_agents=10, dataset="cifar10"))
        cinic = build_scenario(ScenarioConfig(num_agents=10, dataset="cinic10"))
        assert cinic.registry.total_samples > cifar.registry.total_samples

    def test_non_iid_population_has_unequal_shards(self):
        scenario = build_scenario(ScenarioConfig(num_agents=10, iid=False))
        sizes = [agent.num_samples for agent in scenario.registry]
        assert max(sizes) - min(sizes) > 0

    def test_topology_variants(self):
        full = build_scenario(ScenarioConfig(num_agents=8, topology="full"))
        ring = build_scenario(ScenarioConfig(num_agents=8, topology="ring"))
        random = build_scenario(
            ScenarioConfig(num_agents=8, topology="random", link_fraction=0.3)
        )
        assert full.topology.num_edges == 8 * 7 // 2
        assert ring.topology.num_edges == 8
        assert random.topology.num_edges < 8 * 7 // 2

    def test_model_selects_depth(self):
        r56 = build_scenario(ScenarioConfig(model="resnet56"))
        r110 = build_scenario(ScenarioConfig(model="resnet110"))
        assert r110.spec.num_layers > r56.spec.num_layers

    def test_cifar100_changes_num_classes(self):
        scenario = build_scenario(ScenarioConfig(dataset="cifar100"))
        assert scenario.spec.num_classes == 100

    def test_deterministic_given_seed(self):
        a = build_scenario(ScenarioConfig(seed=5))
        b = build_scenario(ScenarioConfig(seed=5))
        assert [x.profile for x in a.registry] == [x.profile for x in b.registry]
        assert [x.num_samples for x in a.registry] == [x.num_samples for x in b.registry]

    def test_fresh_registry_is_independent_copy(self):
        scenario = build_scenario(ScenarioConfig(num_agents=6))
        copy = scenario.fresh_registry()
        assert [a.profile for a in copy] == [a.profile for a in scenario.registry]
        assert copy is not scenario.registry

    def test_curve_tracker_uses_method_key(self):
        scenario = build_scenario(ScenarioConfig())
        comdml = scenario.curve_tracker("comdml")
        gossip = scenario.curve_tracker("gossip")
        assert comdml.curve.method == "comdml"
        assert gossip.curve.method == "gossip"

    def test_lr_plateau_factor_depends_on_population(self):
        small = build_scenario(ScenarioConfig(num_agents=10))
        large = build_scenario(ScenarioConfig(num_agents=50))
        assert small.comdml_config.lr_plateau_factor == 0.2
        assert large.comdml_config.lr_plateau_factor == 0.5
