"""Local-loss-based split training (Section III-B of the paper).

The paired agents train in parallel without waiting for each other's
gradients:

1. the **slow agent** runs its prefix (slow side) of the model, computes a
   *local* loss through the auxiliary head, and updates prefix + auxiliary
   parameters with that loss only;
2. the boundary activations (detached — no gradient flows back across the
   split) are shipped to the **fast agent**, which runs the suffix, computes
   the task loss against the true labels, and updates the suffix parameters.

This removes the per-batch synchronisation of classical split learning: the
slow agent never waits for backpropagated gradients from the fast agent,
which is the property that lets ComDML overlap the two agents' work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.data.loader import BatchLoader
from repro.models.split import SplitModel
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import SGD
from repro.utils.validation import check_positive


@dataclass
class SplitTrainingResult:
    """Losses observed during one round of split training.

    Attributes
    ----------
    slow_loss:
        Mean auxiliary-head (local) loss on the slow side.
    fast_loss:
        Mean task loss on the fast side (0.0 when nothing was offloaded).
    batches:
        Number of mini-batches processed.
    intermediate_scalars:
        Total number of activation scalars that crossed the split (what the
        timing plane charges as ν_m traffic).
    """

    slow_loss: float = 0.0
    fast_loss: float = 0.0
    batches: int = 0
    intermediate_scalars: int = 0


class LocalLossSplitTrainer:
    """Trains a :class:`~repro.models.split.SplitModel` on one agent's shard."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        batch_size: int = 100,
        local_epochs: int = 1,
        rng: Optional[np.random.Generator] = None,
        activation_transform=None,
    ) -> None:
        check_positive(batch_size, "batch_size")
        check_positive(local_epochs, "local_epochs")
        self.learning_rate = learning_rate
        self.batch_size = int(batch_size)
        self.local_epochs = int(local_epochs)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Optional privacy transform applied to the boundary activation
        #: before it is "sent" to the fast agent (e.g. patch shuffling or a
        #: distance-correlation defense).
        self.activation_transform = activation_transform

    def train(
        self,
        split_model: SplitModel,
        dataset: Dataset,
        learning_rate: Optional[float] = None,
    ) -> SplitTrainingResult:
        """Run one round of local-loss split training in place."""
        if len(dataset) == 0:
            return SplitTrainingResult()
        learning_rate = learning_rate if learning_rate is not None else self.learning_rate

        if not split_model.is_split:
            # Degenerate case: nothing offloaded — plain local training of the
            # slow side (which then is the full model).
            return self._train_unsplit(split_model, dataset, learning_rate)

        slow_loss_fn = CrossEntropyLoss()
        fast_loss_fn = CrossEntropyLoss()
        slow_optimizer = SGD(split_model.slow_parameters(), learning_rate=learning_rate)
        fast_optimizer = SGD(split_model.fast_parameters(), learning_rate=learning_rate)
        loader = BatchLoader(
            dataset, batch_size=self.batch_size, shuffle=True, rng=self._rng
        )

        slow_losses: list[float] = []
        fast_losses: list[float] = []
        batches = 0
        intermediate_scalars = 0
        for _ in range(self.local_epochs):
            for features, labels in loader:
                # --- slow agent: prefix + auxiliary head, local loss only ---
                slow_optimizer.zero_grad()
                boundary = split_model.forward_slow(features)
                aux_logits = split_model.forward_auxiliary(boundary)
                slow_loss = slow_loss_fn.forward(aux_logits, labels)
                grad_aux = slow_loss_fn.backward()
                grad_boundary = split_model.auxiliary.backward(grad_aux)
                split_model.slow_side.backward(grad_boundary)
                slow_optimizer.step()

                # --- boundary activation crosses the network (detached) ---
                shipped = boundary.copy()
                if self.activation_transform is not None:
                    shipped = self.activation_transform(shipped)
                intermediate_scalars += int(shipped.size)

                # --- fast agent: suffix on received activations, task loss ---
                fast_optimizer.zero_grad()
                logits = split_model.forward_fast(shipped)
                fast_loss = fast_loss_fn.forward(logits, labels)
                grad_logits = fast_loss_fn.backward()
                split_model.fast_side.backward(grad_logits)
                fast_optimizer.step()

                slow_losses.append(slow_loss)
                fast_losses.append(fast_loss)
                batches += 1

        return SplitTrainingResult(
            slow_loss=float(np.mean(slow_losses)),
            fast_loss=float(np.mean(fast_losses)),
            batches=batches,
            intermediate_scalars=intermediate_scalars,
        )

    def _train_unsplit(
        self,
        split_model: SplitModel,
        dataset: Dataset,
        learning_rate: float,
    ) -> SplitTrainingResult:
        """Full-model training when ``offloaded_layers == 0``."""
        loss_fn = CrossEntropyLoss()
        optimizer = SGD(split_model.slow_side.parameters(), learning_rate=learning_rate)
        loader = BatchLoader(
            dataset, batch_size=self.batch_size, shuffle=True, rng=self._rng
        )
        losses: list[float] = []
        batches = 0
        for _ in range(self.local_epochs):
            for features, labels in loader:
                optimizer.zero_grad()
                logits = split_model.slow_side.forward(features)
                loss = loss_fn.forward(logits, labels)
                grad_logits = loss_fn.backward()
                split_model.slow_side.backward(grad_logits)
                optimizer.step()
                losses.append(loss)
                batches += 1
        return SplitTrainingResult(
            slow_loss=float(np.mean(losses)) if losses else 0.0,
            fast_loss=0.0,
            batches=batches,
            intermediate_scalars=0,
        )
