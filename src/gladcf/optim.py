"""Adaptive-moment gradient descent (Adam) over autodiff tensors, and the
one training loop both models share (``fit``)."""

from __future__ import annotations

import logging
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor
from .errors import TrainingDivergedError

logger = logging.getLogger(__name__)

# the usual exponential-decay rates of the two moments, and the denominator's
# guard; only the learning rate varies between models
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam with bias correction, at the fixed ``BETA1``, ``BETA2``
    and ``EPS``."""

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        b1, b2 = BETA1, BETA2
        correction1 = 1.0 - b1 ** self.t
        correction2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def fit(trainables: Sequence[Tensor], lr: float, epochs: int,
        chunks: Sequence, chunk_loss: Callable[..., Tensor],
        what: str) -> list[float]:
    """Train ``trainables`` full-batch with Adam; returns the loss per epoch.

    Each epoch takes one optimizer step over the whole training set, cut
    into ``chunks`` only to bound memory: ``chunk_loss(chunk)`` returns the
    chunk's share of the objective, so the chunk losses and their gradients
    sum to the full ones. Each chunk's tape is freed before the next chunk's
    forward. ``what`` names the model in the debug log and in the
    ``TrainingDivergedError`` raised on a non-finite loss or parameter.
    """
    optimizer = Adam(trainables, lr=lr)
    trace: list[float] = []
    for epoch in range(epochs):
        optimizer.zero_grad()
        epoch_loss = 0.0
        for chunk in chunks:
            loss = chunk_loss(chunk)
            if loss.requires_grad:
                loss.backward()
            epoch_loss += float(loss.data)
            del loss
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"{what} loss diverged at epoch {epoch}: {epoch_loss}")
        optimizer.step()
        if not all(np.isfinite(t.data).all() for t in optimizer.params):
            raise TrainingDivergedError(
                f"{what} parameters became non-finite at epoch {epoch}")
        logger.debug("%s epoch %d: loss %.6g", what, epoch, epoch_loss)
        trace.append(epoch_loss)
    return trace
