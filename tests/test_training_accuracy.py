"""Tests for the accuracy trackers (curve-based and proxy-training-based)."""

import numpy as np
import pytest

from repro.core.pairing import PairingDecision
from repro.core.workload import OffloadEstimate
from repro.data.partition import iid_partition
from repro.data.synthetic import cifar10_like
from repro.models.proxy import ProxyModelFactory
from repro.models.resnet import resnet56_spec
from repro.training.accuracy import CurveAccuracyTracker, ProxyAccuracyTracker
from repro.training.curves import LearningCurveModel, curve_preset_for
from repro.training.local_loss import LocalLossSplitTrainer
from repro.training.trainer import LocalTrainer


def solo_decision(agent_id, time=10.0):
    estimate = OffloadEstimate(0, time, 0.0, 0.0, 0.0, time)
    return PairingDecision(slow_id=agent_id, fast_id=None, offloaded_layers=0, estimate=estimate)


def pair_decision(slow_id, fast_id, offloaded=27):
    estimate = OffloadEstimate(offloaded, 5.0, 3.0, 1.0, 2.0, 6.0)
    return PairingDecision(
        slow_id=slow_id, fast_id=fast_id, offloaded_layers=offloaded, estimate=estimate
    )


class TestCurveAccuracyTracker:
    def test_accuracy_advances(self):
        curve = LearningCurveModel(
            preset=curve_preset_for("cifar10", "resnet56"),
            method="comdml",
            noise_scale=0.0,
        )
        tracker = CurveAccuracyTracker(curve)
        first = tracker.after_round([solo_decision(0)], 1.0, 0.001)
        second = tracker.after_round([solo_decision(0)], 1.0, 0.001)
        assert second > first


@pytest.fixture(scope="module")
def proxy_setup():
    train, test = cifar10_like(train_samples=800, test_samples=400, num_features=32, seed=4)
    shards = iid_partition(train.labels, 4, np.random.default_rng(0))
    datasets = {i: train.subset(shards[i], f"agent{i}") for i in range(4)}
    factory = ProxyModelFactory(
        spec=resnet56_spec(), input_features=32, num_blocks=3, width=24
    )
    return factory, datasets, test


class TestProxyAccuracyTracker:
    @pytest.mark.parametrize("knob", ["local_epochs", "momentum", "weight_decay"])
    def test_unset_training_knobs_are_gone(self, proxy_setup, knob):
        """Every run trained at SGD's defaults and one local epoch."""
        factory, datasets, test = proxy_setup
        with pytest.raises(TypeError):
            ProxyAccuracyTracker(factory, datasets, test, **{knob: 1})
        for trainer in (LocalTrainer, LocalLossSplitTrainer):
            if knob != "local_epochs":
                with pytest.raises(TypeError):
                    trainer(**{knob: 0.5})

    def test_solo_training_improves_accuracy(self, proxy_setup):
        factory, datasets, test = proxy_setup
        tracker = ProxyAccuracyTracker(factory, datasets, test, batch_size=50, seed=0)
        initial = tracker.current_accuracy()
        decisions = [solo_decision(i) for i in range(4)]
        accuracy = initial
        for _ in range(4):
            accuracy = tracker.after_round(decisions, 1.0, 0.05)
        assert accuracy > initial + 0.1

    def test_split_training_improves_accuracy(self, proxy_setup):
        factory, datasets, test = proxy_setup
        tracker = ProxyAccuracyTracker(factory, datasets, test, batch_size=50, seed=1)
        initial = tracker.current_accuracy()
        decisions = [pair_decision(0, 1), pair_decision(2, 3)]
        accuracy = initial
        for _ in range(4):
            accuracy = tracker.after_round(decisions, 1.0, 0.05)
        assert accuracy > initial + 0.1

    def test_global_parameters_updated(self, proxy_setup):
        factory, datasets, test = proxy_setup
        tracker = ProxyAccuracyTracker(factory, datasets, test, batch_size=50, seed=2)
        before = tracker.global_parameters.copy()
        tracker.after_round([solo_decision(0)], 1.0, 0.05)
        assert not np.allclose(before, tracker.global_parameters)

    def test_empty_decisions_keep_model(self, proxy_setup):
        factory, datasets, test = proxy_setup
        tracker = ProxyAccuracyTracker(factory, datasets, test, batch_size=50, seed=3)
        before = tracker.global_parameters.copy()
        accuracy = tracker.after_round([], 1.0, 0.05)
        assert np.allclose(before, tracker.global_parameters)
        assert 0.0 <= accuracy <= 1.0

    def test_unknown_agent_ids_skipped(self, proxy_setup):
        factory, datasets, test = proxy_setup
        tracker = ProxyAccuracyTracker(factory, datasets, test, batch_size=50, seed=4)
        accuracy = tracker.after_round([solo_decision(99)], 1.0, 0.05)
        assert 0.0 <= accuracy <= 1.0

    def test_parameter_transform_applied(self, proxy_setup):
        factory, datasets, test = proxy_setup
        calls = []

        def transform(vector):
            calls.append(vector.size)
            return vector

        tracker = ProxyAccuracyTracker(
            factory, datasets, test, batch_size=50, seed=5, parameter_transform=transform
        )
        tracker.after_round([solo_decision(0), solo_decision(1)], 1.0, 0.05)
        assert len(calls) == 2
