"""Tests for the calibrated learning-curve model."""

import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.training.curves import (
    CurvePreset,
    LearningCurveModel,
    METHOD_EFFICIENCY,
    curve_preset_for,
)
from strategies import STANDARD_SETTINGS


class TestCurvePresets:
    def test_lookup_known_combinations(self):
        for dataset in ("cifar10", "cifar100", "cinic10"):
            for model in ("resnet56", "resnet110"):
                assert curve_preset_for(dataset, model) is not None

    def test_lookup_normalises_names(self):
        assert curve_preset_for("CIFAR-10-like", "ResNet-56") is curve_preset_for(
            "cifar10", "resnet56"
        )

    def test_unknown_combination_rejected(self):
        with pytest.raises(KeyError):
            curve_preset_for("imagenet", "resnet56")

    def test_invalid_preset_rejected(self):
        with pytest.raises(ValueError):
            CurvePreset(accuracy_initial=0.5, accuracy_final=0.4, rate=0.1)


class TestLearningCurveModel:
    def make(self, method="comdml", iid=True, noise=0.0):
        return LearningCurveModel(
            preset=curve_preset_for("cifar10", "resnet56"),
            method=method,
            iid=iid,
            noise_scale=noise,
            rng=np.random.default_rng(0),
        )

    def test_accuracy_monotone_without_noise(self):
        curve = self.make()
        accuracies = [curve.advance_round() for _ in range(50)]
        assert all(a <= b + 1e-12 for a, b in zip(accuracies, accuracies[1:]))

    def test_accuracy_bounded_by_asymptote(self):
        curve = self.make()
        for _ in range(2_000):
            accuracy = curve.advance_round()
        assert accuracy <= curve.accuracy_final + 1e-9

    def test_target_accuracies_reachable(self):
        assert self.make().rounds_to_accuracy(0.90) < 400
        noniid = self.make(iid=False)
        assert noniid.rounds_to_accuracy(0.85) < 400

    def test_gossip_needs_more_rounds_than_allreduce(self):
        gossip = self.make(method="gossip").rounds_to_accuracy(0.80)
        allreduce = self.make(method="allreduce").rounds_to_accuracy(0.80)
        assert gossip > allreduce

    def test_partial_participation_slows_progress(self):
        full = self.make().rounds_to_accuracy(0.80, participation_fraction=1.0)
        partial = self.make().rounds_to_accuracy(0.80, participation_fraction=0.2)
        assert partial > full * 3

    def test_non_iid_lowers_asymptote(self):
        assert self.make(iid=False).accuracy_final < self.make(iid=True).accuracy_final

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError):
            self.make().rounds_to_accuracy(0.99)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            self.make(method="magic")

    def test_rounds_to_accuracy_matches_simulation(self):
        curve = self.make()
        predicted = curve.rounds_to_accuracy(0.85)
        simulation = self.make()
        rounds = 0
        while simulation.advance_round() < 0.85:
            rounds += 1
        assert abs(rounds + 1 - predicted) <= 2

    def test_method_efficiencies_cover_all_baselines(self):
        for key in ("comdml", "fedavg", "fedprox", "allreduce", "braintorrent", "gossip"):
            assert key in METHOD_EFFICIENCY

    def test_invalid_participation_rejected(self):
        with pytest.raises(ValueError):
            self.make().advance_round(participation_fraction=1.5)


class TestAdvanceRounds:
    """The vector step is the scalar step, call for call, bit for bit."""

    @staticmethod
    def pair(method, iid, noise, seed, progress):
        """Two identical models, already ``progress`` into training."""
        models = []
        for _ in range(2):
            model = LearningCurveModel(
                preset=curve_preset_for("cifar100", "resnet56"),
                method=method,
                iid=iid,
                rng=np.random.default_rng(seed),
                noise_scale=noise,
            )
            model._progress = progress
            models.append(model)
        return models

    @hypothesis.seed(20261018)
    @STANDARD_SETTINGS
    @given(
        participations=st.lists(
            st.sampled_from((0.0, 1.0)) | st.floats(min_value=0.0, max_value=1.0),
            max_size=40,
        ),
        method=st.sampled_from(sorted(METHOD_EFFICIENCY)),
        iid=st.booleans(),
        noise=st.sampled_from((0.0, 0.002, 0.5)),
        seed=st.integers(min_value=0, max_value=2**16),
        progress=st.sampled_from((0.0, 0.1, 37.25)),
    )
    def test_equals_the_scalar_steps(
        self, participations, method, iid, noise, seed, progress
    ):
        vector, scalar = self.pair(method, iid, noise, seed, progress)
        accuracies = vector.advance_rounds(np.array(participations))
        expected = [scalar.advance_round(p) for p in participations]
        assert accuracies.dtype == np.float64
        assert accuracies.tolist() == expected
        assert vector.progress == scalar.progress
        assert vector._rng.bit_generator.state == scalar._rng.bit_generator.state

    @pytest.mark.parametrize("bad", (1.5, -0.25, float("nan")))
    def test_an_invalid_participation_raises_and_advances_nothing(self, bad):
        vector, scalar = self.pair("comdml", True, 0.002, 3, 0.5)
        state = vector._rng.bit_generator.state
        with pytest.raises(ValueError) as scalar_error:
            scalar.advance_round(bad)
        with pytest.raises(ValueError) as vector_error:
            vector.advance_rounds([0.5, bad, 0.25, bad])
        assert str(vector_error.value) == str(scalar_error.value)
        assert vector.progress == 0.5
        assert vector._rng.bit_generator.state == state
