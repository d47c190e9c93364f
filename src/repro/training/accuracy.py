"""Accuracy trackers: the learning plane behind each timing-plane round.

Two interchangeable implementations of the same small interface
(:class:`AccuracyTracker`):

* :class:`CurveAccuracyTracker` — drives a calibrated
  :class:`~repro.training.curves.LearningCurveModel`; used by the large
  (10-100 agent, ResNet-56/110) table reproductions where real training is
  computationally impossible in this environment.
* :class:`ProxyAccuracyTracker` — genuinely trains numpy proxy models with
  local-loss split training and weighted AllReduce averaging; used by the
  examples, the integration tests, and any small-scale run.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from repro.core.pairing import PairingDecision, PairingPlan
from repro.data.dataset import Dataset
from repro.models.proxy import ProxyModelFactory
from repro.models.split import split_sequential
from repro.network.allreduce import allreduce_average
from repro.nn.module import Sequential
from repro.nn.serialization import get_flat_parameters, set_flat_parameters
from repro.training.curves import LearningCurveModel
from repro.training.local_loss import LocalLossSplitTrainer
from repro.training.trainer import LocalTrainer, evaluate_accuracy


class AccuracyTracker(Protocol):
    """Produces the post-aggregation accuracy after each round."""

    def after_round(
        self,
        decisions: Sequence[PairingDecision],
        participation_fraction: float,
        learning_rate: float,
    ) -> float:
        """Advance the learning plane by one round and return the accuracy."""
        ...

    def after_units(
        self,
        decisions: PairingPlan,
        participation_fractions: np.ndarray,
        learning_rate: float,
    ) -> np.ndarray:
        """Advance by one step per decision, in order; one accuracy each.

        Step ``i`` is :meth:`after_round` over ``(decisions[i],)`` alone at
        ``participation_fractions[i]``: how an async round aggregates its
        units one at a time.
        """
        ...


class CurveAccuracyTracker:
    """Accuracy from a calibrated learning-curve model."""

    def __init__(self, curve: LearningCurveModel) -> None:
        self.curve = curve

    def after_round(
        self,
        decisions: Sequence[PairingDecision],
        participation_fraction: float,
        learning_rate: float,
    ) -> float:
        return self.curve.advance_round(participation_fraction)

    def after_units(
        self,
        decisions: PairingPlan,
        participation_fractions: np.ndarray,
        learning_rate: float,
    ) -> np.ndarray:
        return self.curve.advance_rounds(participation_fractions)


class ProxyAccuracyTracker:
    """Accuracy from real numpy training of a shared proxy model.

    Per round, every pairing decision produces one or two model updates:

    * the slow agent's dataset trained through local-loss split training
      (prefix on the slow agent, suffix on the fast agent), and
    * the fast agent's own dataset trained end-to-end (its own task),

    or a single end-to-end update for solo agents.  Updates are combined by
    a dataset-size-weighted average (the numerical effect of AllReduce on
    Eq. 1's objective), optionally after a privacy transform of the
    parameters (e.g. differential-privacy noise).
    """

    def __init__(
        self,
        factory: ProxyModelFactory,
        agent_datasets: dict[int, Dataset],
        test_dataset: Dataset,
        batch_size: int = 100,
        seed: int = 0,
        activation_transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        parameter_transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        self.factory = factory
        self.agent_datasets = agent_datasets
        self.test_dataset = test_dataset
        self.activation_transform = activation_transform
        self.parameter_transform = parameter_transform
        self._rng = np.random.default_rng(seed)
        self._init_rng = np.random.default_rng(seed + 1)
        self.global_model: Sequential = factory.build(self._init_rng)
        self.global_parameters = get_flat_parameters(self.global_model)
        self.local_trainer = LocalTrainer(
            batch_size=batch_size, rng=np.random.default_rng(seed + 2)
        )
        self.split_trainer = LocalLossSplitTrainer(
            batch_size=batch_size,
            rng=np.random.default_rng(seed + 3),
            activation_transform=activation_transform,
        )

    # ------------------------------------------------------------------
    def _clone_global(self) -> Sequential:
        """A fresh backbone initialised with the current global parameters."""
        backbone = self.factory.build(self._init_rng)
        set_flat_parameters(backbone, self.global_parameters)
        return backbone

    def current_accuracy(self) -> float:
        """Accuracy of the current global model on the test set."""
        model = self._clone_global()
        return evaluate_accuracy(model, self.test_dataset)

    def after_units(
        self,
        decisions: PairingPlan,
        participation_fractions: np.ndarray,
        learning_rate: float,
    ) -> np.ndarray:
        """One real training round per decision (see :meth:`after_round`)."""
        return np.array(
            [
                self.after_round((decision,), participation, learning_rate)
                for decision, participation in zip(
                    decisions, participation_fractions.tolist()
                )
            ],
            dtype=np.float64,
        )

    def after_round(
        self,
        decisions: Sequence[PairingDecision],
        participation_fraction: float,
        learning_rate: float,
    ) -> float:
        updates: list[np.ndarray] = []
        weights: list[float] = []

        for decision in decisions:
            slow_dataset = self.agent_datasets.get(decision.slow_id)
            if slow_dataset is None or len(slow_dataset) == 0:
                continue
            if decision.is_offloading:
                backbone = self._clone_global()
                split = self.factory.build_split(
                    decision.offloaded_layers,
                    rng=self._init_rng,
                    backbone=backbone,
                )
                self.split_trainer.train(split, slow_dataset, learning_rate)
                updates.append(get_flat_parameters(backbone))
                weights.append(float(len(slow_dataset)))

                fast_dataset = self.agent_datasets.get(decision.fast_id)
                if fast_dataset is not None and len(fast_dataset) > 0:
                    fast_backbone = self._clone_global()
                    self.local_trainer.train(fast_backbone, fast_dataset, learning_rate)
                    updates.append(get_flat_parameters(fast_backbone))
                    weights.append(float(len(fast_dataset)))
            else:
                backbone = self._clone_global()
                self.local_trainer.train(backbone, slow_dataset, learning_rate)
                updates.append(get_flat_parameters(backbone))
                weights.append(float(len(slow_dataset)))

        if not updates:
            return self.current_accuracy()

        if self.parameter_transform is not None:
            # Privacy mechanisms (e.g. differential privacy) are applied to the
            # *update* an agent contributes, the standard DP-FL formulation:
            # clip/perturb (w_local - w_global), then re-anchor at the global
            # model before averaging.
            updates = [
                self.global_parameters
                + self.parameter_transform(update - self.global_parameters)
                for update in updates
            ]

        self.global_parameters = allreduce_average(updates, weights)
        set_flat_parameters(self.global_model, self.global_parameters)
        return evaluate_accuracy(self.global_model, self.test_dataset)
