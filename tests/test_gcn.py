"""Convolution-layer checks: normalization identities, masking, gradients."""

from __future__ import annotations

import numpy as np
import pytest

import gladcf.autodiff as ad
from gladcf.autodiff import Tensor
from gladcf.gcn import (GCNLayerParams, gcn_forward, gcn_layer,
                        init_gcn_layer, masked_mean_pool, normalize_adjacency)

from util import (assert_grads_close, path_adjacency, random_adjacency,
                  ring_adjacency)


def test_ring_normalization_identity():
    # Every node of a ring has degree 2, so D̃ = 3I and Â = (A + I) / 3.
    a = ring_adjacency(6)
    mask = np.ones(6)
    got = normalize_adjacency(a, mask).data
    np.testing.assert_allclose(got, (a + np.eye(6)) / 3.0, atol=1e-12)


def test_normalization_hand_oracle_path3():
    # Path 0-1-2: degrees with self-loops are (2, 3, 2).
    a = path_adjacency(3)
    d = np.array([2.0, 3.0, 2.0])
    expected = (a + np.eye(3)) / np.sqrt(np.outer(d, d))
    got = normalize_adjacency(a, np.ones(3)).data
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_normalization_padded_rows_stay_zero():
    a = np.zeros((2, 4, 4))
    a[0, :3, :3] = path_adjacency(3)
    a[1, :2, :2] = np.array([[0.0, 1.0], [1.0, 0.0]])
    mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    got = normalize_adjacency(a, mask).data
    assert np.all(got[0, 3, :] == 0) and np.all(got[0, :, 3] == 0)
    assert np.all(got[1, 2:, :] == 0) and np.all(got[1, :, 2:] == 0)
    # real part of batch element 0 matches the unpadded computation
    np.testing.assert_allclose(
        got[0, :3, :3], normalize_adjacency(path_adjacency(3), np.ones(3)).data)


def test_forward_hand_oracle():
    # One layer on the path graph, feature dim 2 -> 2, explicit dense math.
    a = path_adjacency(3)
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = np.array([[0.5, -1.0], [2.0, 0.25]])
    b = np.array([0.1, -0.2])
    params = GCNLayerParams(weight=Tensor(w, requires_grad=True),
                            bias=Tensor(b, requires_grad=True))
    d = np.array([2.0, 3.0, 2.0])
    a_hat = (a + np.eye(3)) / np.sqrt(np.outer(d, d))
    expected = a_hat @ (x @ w) + b
    mask = np.ones((1, 3))
    got = gcn_forward([params], x[None], normalize_adjacency(a[None], mask),
                      mask).data[0]
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("in_dim,out_dim", [(2, 5), (3, 3), (5, 2)])
def test_layer_matches_dense_math_in_either_order(in_dim, out_dim):
    # widening layers propagate before the weight, the others after it
    rng = np.random.default_rng(4)
    layer = init_gcn_layer(in_dim, out_dim, rng)
    layer.bias.data[:] = rng.normal(size=out_dim)
    a = np.zeros((2, 5, 5))
    a[0] = random_adjacency(rng, 5)
    a[1, :3, :3] = path_adjacency(3)
    mask = np.array([[1.0] * 5, [1.0, 1.0, 1.0, 0.0, 0.0]])
    x = rng.normal(size=(2, 5, in_dim)) * mask[..., None]
    normalized = normalize_adjacency(a, mask)
    got = gcn_layer(layer, Tensor(x), normalized, mask).data
    expected = mask[..., None] * (
        normalized.data @ x @ layer.weight.data + layer.bias.data)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    # gradients through a differentiable soft adjacency, as the augmenter's
    # probe takes them
    soft = Tensor(rng.uniform(0.1, 0.9, size=(2, 5, 5)), requires_grad=True)
    features = Tensor(x, requires_grad=True)
    weights = rng.normal(size=(2, 5, out_dim))

    def loss():
        out = gcn_layer(layer, features, normalize_adjacency(soft, mask), mask)
        return ad.tsum(out * weights)

    assert_grads_close(loss, [layer.weight, layer.bias, soft, features])


def test_stacked_layers_relu_between_not_after():
    rng = np.random.default_rng(0)
    layers = [init_gcn_layer(3, 4, rng), init_gcn_layer(4, 2, rng)]
    a = ring_adjacency(5)[None]
    x = rng.normal(size=(1, 5, 3))
    mask = np.ones((1, 5))
    normalized = normalize_adjacency(a, mask)
    out = gcn_forward(layers, x, normalized, mask).data
    # a manual replay: layer, relu, layer — with no trailing relu
    norm = normalized.data[0]
    h = norm @ (x[0] @ layers[0].weight.data) + layers[0].bias.data
    h = np.maximum(h, 0.0)
    h = norm @ (h @ layers[1].weight.data) + layers[1].bias.data
    np.testing.assert_allclose(out[0], h, atol=1e-12)
    assert (out < 0).any()  # negatives survive the final layer


def test_padded_rows_zero_through_layers():
    rng = np.random.default_rng(1)
    layers = [init_gcn_layer(2, 3, rng), init_gcn_layer(3, 3, rng)]
    a = np.zeros((1, 5, 5))
    a[0, :3, :3] = path_adjacency(3)
    x = np.zeros((1, 5, 2))
    x[0, :3] = rng.normal(size=(3, 2))
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
    out = gcn_forward(layers, x, normalize_adjacency(a, mask), mask).data
    assert np.all(out[0, 3:, :] == 0.0)


def test_equivalent_nodes_get_equal_rows():
    # Two connected nodes with identical features and symmetric neighborhoods.
    rng = np.random.default_rng(2)
    layer = init_gcn_layer(2, 3, rng)
    a = np.array([[0.0, 1.0], [1.0, 0.0]])[None]
    x = np.array([[0.3, -0.7], [0.3, -0.7]])[None]
    mask = np.ones((1, 2))
    out = gcn_forward([layer], x, normalize_adjacency(a, mask), mask).data[0]
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def test_init_bounds_and_determinism():
    layer_a = init_gcn_layer(7, 5, np.random.default_rng(42))
    layer_b = init_gcn_layer(7, 5, np.random.default_rng(42))
    limit = np.sqrt(6.0 / 12.0)
    assert np.all(np.abs(layer_a.weight.data) <= limit)
    assert np.all(layer_a.bias.data == 0.0)
    np.testing.assert_array_equal(layer_a.weight.data, layer_b.weight.data)


def test_gradients_through_forward_and_adjacency():
    rng = np.random.default_rng(3)
    layers = [init_gcn_layer(2, 3, rng), init_gcn_layer(3, 2, rng)]
    # a strictly positive soft adjacency so the normalization is smooth
    soft = Tensor(rng.uniform(0.1, 0.9, size=(2, 4, 4)), requires_grad=True)
    x = rng.normal(size=(2, 4, 2))
    mask = np.ones((2, 4))
    weights = rng.normal(size=(2, 4, 2))
    params = [layers[0].weight, layers[0].bias,
              layers[1].weight, layers[1].bias, soft]

    def loss():
        out = gcn_forward(layers, x, normalize_adjacency(soft, mask), mask)
        return ad.tsum(out * weights)

    assert_grads_close(loss, params)


def test_masked_mean_pool():
    states = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0], [9.0, 9.0]],
                              [[2.0, 2.0], [0.0, 0.0], [0.0, 0.0]]]))
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    got = masked_mean_pool(states, mask).data
    np.testing.assert_allclose(got, [[2.0, 3.0], [2.0, 2.0]])
    # an all-padded element pools to zero rather than dividing by zero
    empty = masked_mean_pool(states, np.zeros((2, 3))).data
    np.testing.assert_array_equal(empty, np.zeros((2, 2)))
