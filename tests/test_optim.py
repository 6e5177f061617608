"""Adam against its closed form, and the shared training loop ``fit``."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import gladcf.autodiff as ad
import gladcf.detector as detector_module
from gladcf.autodiff import Tensor
from gladcf.detector import DetectorConfig, TrainConfig, train_detector
from gladcf.errors import TrainingDivergedError
from gladcf.graphs import Provenance
from gladcf.optim import Adam, fit

from util import random_graph


def test_two_adam_steps_match_the_closed_form():
    rng = np.random.default_rng(0)
    start = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(2)]
    p = Tensor(start.copy(), requires_grad=True)
    idle = Tensor(start.copy(), requires_grad=True)
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    optimizer = Adam([p, idle], lr=lr)

    expected = start.copy()
    m = np.zeros_like(start)
    v = np.zeros_like(start)
    for t, g in enumerate(grads, start=1):
        optimizer.zero_grad()
        p.grad = g
        optimizer.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        expected = expected - lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(p.data, expected, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(idle.data, start)  # grad None: untouched
    assert optimizer.t == 2


def _linear_loss(w):
    return lambda x: ad.tsum(w * Tensor(x))


def test_fit_accumulates_chunks_into_one_step_per_epoch():
    rng = np.random.default_rng(1)
    parts = [rng.normal(size=4) for _ in range(3)]
    whole = Tensor(np.zeros(4), requires_grad=True)
    chunked = Tensor(np.zeros(4), requires_grad=True)
    one = fit([whole], 0.05, 3, [sum(parts)], _linear_loss(whole), "toy")
    many = fit([chunked], 0.05, 3, parts, _linear_loss(chunked), "toy")
    np.testing.assert_allclose(many, one, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(chunked.data, whole.data, rtol=1e-12)
    assert len(many) == 3


def test_fit_adds_a_tapeless_chunk_loss_without_a_step():
    w = Tensor(np.ones(2), requires_grad=True)
    trace = fit([w], 0.1, 2, [1.0, 2.0], lambda c: Tensor(c), "toy")
    assert trace == [3.0, 3.0]
    np.testing.assert_array_equal(w.data, np.ones(2))


def test_fit_names_the_model_and_epoch_on_a_non_finite_loss():
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(TrainingDivergedError,
                       match="toy loss diverged at epoch 0: nan"):
        fit([w], 0.1, 2, [np.ones(2), np.full(2, np.nan)],
            _linear_loss(w), "toy")


def test_fit_names_the_model_and_epoch_on_a_non_finite_parameter():
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(TrainingDivergedError,
                       match="toy parameters became non-finite at epoch 0"):
        fit([w], np.inf, 2, [np.ones(2)], _linear_loss(w), "toy")


def test_train_detector_frees_each_chunk_tape_before_the_next_forward(
        monkeypatch):
    # Each chunk's scores belong to its tape; the tape must be gone, by
    # reference counting alone, when the next chunk's forward starts.
    rng = np.random.default_rng(2)
    graphs = [random_graph(rng, n, 3, label=i % 2,
                           provenance=(Provenance.ORIGINAL_ABNORMAL if i % 2
                                       else Provenance.ORIGINAL_NORMAL))
              for i, n in enumerate((3, 5, 4, 6, 5, 3))]
    scores_fn = detector_module.detector_scores
    previous: list[weakref.ref] = []
    alive_at_forward: list[bool] = []

    def watched(params, plans):
        alive_at_forward.extend(ref() is not None for ref in previous)
        previous.clear()
        scores = scores_fn(params, plans)
        previous.append(weakref.ref(scores.data))
        return scores

    monkeypatch.setattr(detector_module, "detector_scores", watched)
    gc.disable()
    try:
        train_detector(graphs, DetectorConfig(hidden1=8, hidden2=6,
                                              reduce_dim=4),
                       TrainConfig(epochs=2, chunk_size=2),
                       np.random.default_rng(0))
    finally:
        gc.enable()
    assert alive_at_forward == [False] * 5  # 3 chunks × 2 epochs − the first
