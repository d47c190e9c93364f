"""Standard (non-split) local training.

Used by every baseline and by the fast agent's own task in ComDML: the agent
trains the full model on its local shard for ``local_epochs`` epochs with
SGD at its defaults (momentum 0.9, no weight decay).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.data.loader import BatchLoader
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module, Sequential
from repro.nn.optim import SGD
from repro.utils.validation import check_positive


def evaluate_accuracy(model: Module, dataset: Dataset, batch_size: int = 256) -> float:
    """Top-1 accuracy of ``model`` on ``dataset``."""
    if len(dataset) == 0:
        return 0.0
    model.eval()
    correct = 0
    loader = BatchLoader(dataset, batch_size=batch_size, shuffle=False)
    for features, labels in loader:
        logits = model.forward(features)
        predictions = np.argmax(logits, axis=1)
        correct += int((predictions == labels).sum())
    model.train()
    return correct / len(dataset)


class LocalTrainer:
    """Full-model local SGD training on one agent's shard."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        batch_size: int = 100,
        local_epochs: int = 1,
        proximal_mu: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        check_positive(batch_size, "batch_size")
        check_positive(local_epochs, "local_epochs")
        if proximal_mu < 0:
            raise ValueError(f"proximal_mu must be non-negative, got {proximal_mu}")
        self.learning_rate = learning_rate
        self.batch_size = int(batch_size)
        self.local_epochs = int(local_epochs)
        self.proximal_mu = proximal_mu
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def train(
        self,
        model: Sequential,
        dataset: Dataset,
        learning_rate: Optional[float] = None,
        global_reference: Optional[np.ndarray] = None,
    ) -> float:
        """Run local training in place; returns the mean training loss.

        ``global_reference`` (a flat parameter vector) activates the FedProx
        proximal term ``(mu/2) ||w - w_global||^2``, applied as an extra
        gradient on every step.
        """
        if len(dataset) == 0:
            return 0.0
        learning_rate = learning_rate if learning_rate is not None else self.learning_rate
        loss_fn = CrossEntropyLoss()
        optimizer = SGD(model.parameters(), learning_rate=learning_rate)
        loader = BatchLoader(
            dataset, batch_size=self.batch_size, shuffle=True, rng=self._rng
        )
        model.train()
        losses: list[float] = []
        reference_offsets: Optional[list[tuple[int, int]]] = None
        if global_reference is not None and self.proximal_mu > 0:
            reference_offsets = []
            offset = 0
            for parameter in model.parameters():
                reference_offsets.append((offset, offset + parameter.size))
                offset += parameter.size
        for _ in range(self.local_epochs):
            for features, labels in loader:
                optimizer.zero_grad()
                logits = model.forward(features)
                loss = loss_fn.forward(logits, labels)
                grad_logits = loss_fn.backward()
                model.backward(grad_logits)
                if reference_offsets is not None:
                    for parameter, (start, stop) in zip(
                        model.parameters(), reference_offsets
                    ):
                        reference = global_reference[start:stop].reshape(parameter.shape)
                        parameter.grad += self.proximal_mu * (parameter.value - reference)
                optimizer.step()
                losses.append(loss)
        return float(np.mean(losses)) if losses else 0.0
