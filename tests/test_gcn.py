"""Convolution-layer checks: normalization identities, masking, gradients."""

from __future__ import annotations

import numpy as np
import pytest

import gladcf.autodiff as ad
from gladcf.autodiff import Tensor
from gladcf.gcn import (GCNLayerParams, gcn_layer, init_gcn_layer,
                        linear_readout, masked_mean_pool, normalize_adjacency)

from util import (assert_grads_close, path_adjacency, random_adjacency,
                  ring_adjacency)


def test_ring_normalization_identity():
    # Every node of a ring has degree 2, so D̃ = 3I and Â = (A + I) / 3.
    a = ring_adjacency(6)
    mask = np.ones(6)
    got = normalize_adjacency(a, mask)
    np.testing.assert_allclose(got, (a + np.eye(6)) / 3.0, atol=1e-12)


def test_normalization_hand_oracle_path3():
    # Path 0-1-2: degrees with self-loops are (2, 3, 2).
    a = path_adjacency(3)
    d = np.array([2.0, 3.0, 2.0])
    expected = (a + np.eye(3)) / np.sqrt(np.outer(d, d))
    got = normalize_adjacency(a, np.ones(3))
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_normalization_padded_rows_stay_zero():
    a = np.zeros((2, 4, 4))
    a[0, :3, :3] = path_adjacency(3)
    a[1, :2, :2] = np.array([[0.0, 1.0], [1.0, 0.0]])
    mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    got = normalize_adjacency(a, mask)
    assert np.all(got[0, 3, :] == 0) and np.all(got[0, :, 3] == 0)
    assert np.all(got[1, 2:, :] == 0) and np.all(got[1, :, 2:] == 0)
    # real part of batch element 0 matches the unpadded computation
    np.testing.assert_allclose(
        got[0, :3, :3], normalize_adjacency(path_adjacency(3), np.ones(3)))


def test_plan_primitives_take_and_return_arrays():
    # the detector's plan is plain NumPy: Â and its pool rows are arrays,
    # for one matrix and for a stack, and the input is not written
    a = np.zeros((2, 4, 4))
    a[0, :3, :3] = path_adjacency(3)
    a[1] = ring_adjacency(4)
    before = a.copy()
    mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0] * 4])
    single = normalize_adjacency(a[1], mask[1])
    normalized = normalize_adjacency(a, mask)
    pool = masked_mean_pool(normalized, mask)
    for out in (single, normalized, pool):
        assert type(out) is np.ndarray and out.dtype == np.float64
    assert pool.shape == (2, 1, 4)
    np.testing.assert_array_equal(single, normalized[1])
    np.testing.assert_array_equal(a, before)


def test_extra_degree_equals_appended_half_columns():
    # Raising every row's degree by c is normalizing with 2c extra columns of
    # 0.5 (and zero rows, not real nodes) appended: the pool weights of the
    # first n columns and their gradients are those of the wide stack's.
    rng = np.random.default_rng(12)
    b, n, c = 3, 5, 1.5
    soft = rng.random((b, n, n))
    mask = np.array([[1.0] * 5, [1.0] * 3 + [0.0] * 2, [1.0] * 4 + [0.0]])
    soft *= mask[:, :, None] * mask[:, None, :]
    extra = int(2 * c)
    wide = np.zeros((b, n + extra, n + extra))
    wide[:, :n, :n] = soft
    wide[:, :n, n:] = 0.5
    wide_mask = np.concatenate([mask, np.zeros((b, extra))], axis=1)
    weights = rng.normal(size=(b, 1, n))

    narrow_t = Tensor(soft, requires_grad=True)
    wide_t = Tensor(wide, requires_grad=True)
    got = ad.normalized_pool(narrow_t, mask, extra_degree=c)
    expected = ad.block(ad.normalized_pool(wide_t, wide_mask), 1, n)
    np.testing.assert_allclose(got.data, expected.data, rtol=0, atol=1e-15)
    ad.tsum(got * weights).backward()
    ad.tsum(expected * weights).backward()
    np.testing.assert_allclose(narrow_t.grad, wide_t.grad[:, :n, :n],
                               rtol=0, atol=1e-14)


def _readout(layers, x, normalized, mask):
    """A two-layer stack read out pooled, from the primitives, as the
    detector's feature branch reads it: the hidden layer pooled through
    ``Â``'s rows, then the last layer on one row per graph."""
    first, last = layers
    return linear_readout(last, _hidden(first, x, normalized, mask))


def _hidden(layer, x, normalized, mask):
    """The pooled hidden layer on ``x``, ``(B, h)``:
    ``p · relu(Â·X·W + b)`` with ``p = mᵀÂ/n``."""
    pool = masked_mean_pool(normalized, mask)
    return gcn_layer(layer, normalized @ x, pool)


def _node_rows(layer, x, normalized):
    """The hidden layer's per-node rows, ``(B, n, h)``: node ``i``'s row is
    the layer pooled with the one-hot weights of node ``i``."""
    b, n = normalized.shape[:2]
    propagated = normalized @ x
    return np.stack(
        [gcn_layer(layer, propagated,
                   np.broadcast_to(np.eye(n)[i], (b, 1, n))).data
         for i in range(n)], axis=1)


def _pooled_linear(layer, x, normalized, mask):
    """One linear layer, mean-pooled, as the augmenter's probe reads it:
    ``linear_readout`` of the pooled propagated features ``p·X``."""
    pooled = ad.matmul(masked_mean_pool(normalized, mask), x)
    return linear_readout(layer, ad.reshape(pooled, (mask.shape[0], -1)))


def _per_node_readout(layers, x, normalized, mask):
    """The stack run on every node, then mean-pooled: the NumPy reference.

    ReLU between the layers, every layer's output rows masked, the last
    layer's bias added per node before the masked mean.
    """
    h = x
    for i, layer in enumerate(layers):
        if i > 0:
            h = np.maximum(h, 0.0)
        h = normalized @ h @ layer.weight.data + layer.bias.data
        h = h * mask[..., None]
    return h.sum(axis=1) / mask.sum(axis=-1, keepdims=True)


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
    per_node = a_hat @ (x @ w) + b
    mask = np.ones((1, 3))
    normalized = normalize_adjacency(a[None], mask)
    # as a hidden layer, ReLU after, then pooled through Â's rows; as a
    # linear layer, mean-pooled: W and b applied to the mean of Â·X
    rows = np.maximum(per_node, 0.0)
    np.testing.assert_allclose(_node_rows(params, x[None], normalized)[0],
                               rows, atol=1e-12)
    hidden = _hidden(params, x[None], normalized, mask).data[0]
    np.testing.assert_allclose(hidden, (a_hat @ rows).mean(axis=0),
                               atol=1e-12)
    pooled = masked_mean_pool((a_hat @ x)[None], mask)
    assert pooled.shape == (1, 1, 2)
    got = linear_readout(params, pooled.reshape(1, 2)).data[0]
    np.testing.assert_allclose(got, per_node.mean(axis=0), atol=1e-12)


@pytest.mark.parametrize("in_dim,out_dim", [(2, 5), (3, 3), (5, 2)])
def test_layer_matches_dense_math_in_either_order(in_dim, out_dim):
    # the layer weighs the propagated Â·X, which gives the dense product in
    # either association, for widening, square and narrowing layers alike
    rng = np.random.default_rng(4)
    layer = init_gcn_layer(in_dim, out_dim, rng)
    layer.bias.data[:] = rng.normal(size=out_dim)
    a = np.zeros((2, 5, 5))
    a[0] = random_adjacency(rng, 5)
    a[1, :3, :3] = path_adjacency(3)
    mask = np.array([[1.0] * 5, [1.0, 1.0, 1.0, 0.0, 0.0]])
    x = rng.normal(size=(2, 5, in_dim)) * mask[..., None]
    normalized = normalize_adjacency(a, mask)
    got = _hidden(layer, x, normalized, mask).data
    norm, w = normalized, layer.weight.data
    pool = (mask / mask.sum(axis=-1, keepdims=True))[:, None, :] @ norm
    for product in ((norm @ x) @ w, norm @ (x @ w)):
        rows = np.maximum(mask[..., None] * (product + layer.bias.data), 0.0)
        np.testing.assert_allclose(got, (pool @ rows)[:, 0], rtol=0,
                                   atol=1e-12)

    # the layer's own gradients, on constant graph terms
    weights = rng.normal(size=(2, out_dim))
    assert_grads_close(
        lambda: ad.tsum(_hidden(layer, x, normalized, mask) * weights),
        [layer.weight, layer.bias])


def test_stacked_layers_relu_between_not_after():
    rng = np.random.default_rng(0)
    layers = [init_gcn_layer(3, 4, rng), init_gcn_layer(4, 2, rng)]
    a = ring_adjacency(5)[None]
    x = rng.normal(size=(1, 5, 3))
    mask = np.ones((1, 5))
    normalized = normalize_adjacency(a, mask)
    out = _readout(layers, x, normalized, mask).data
    # a manual replay: layer, relu, layer, mean — with no trailing relu
    norm = normalized[0]
    h = norm @ (x[0] @ layers[0].weight.data) + layers[0].bias.data
    h = np.maximum(h, 0.0)
    h = norm @ (h @ layers[1].weight.data) + layers[1].bias.data
    np.testing.assert_allclose(out[0], h.mean(axis=0), atol=1e-12)
    assert (out < 0).any()  # negatives survive the final layer


def test_padded_rows_zero_through_layers():
    rng = np.random.default_rng(1)
    layers = [init_gcn_layer(2, 3, rng), init_gcn_layer(3, 2, rng)]
    layers[0].bias.data[:] = np.abs(rng.normal(size=3)) + 0.1
    a = np.zeros((1, 5, 5))
    a[0, :3, :3] = path_adjacency(3)
    x = np.zeros((1, 5, 2))
    x[0, :3] = rng.normal(size=(3, 2))
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
    normalized = normalize_adjacency(a, mask)
    # no mask in the hidden layer: a padded node's row is relu(b) > 0, and
    # the pool weights and the propagated rows are exactly zero there
    h = _node_rows(layers[0], x, normalized)
    np.testing.assert_array_equal(h[0, 3:], np.broadcast_to(
        layers[0].bias.data, (2, 3)))
    np.testing.assert_array_equal(
        masked_mean_pool(normalized, mask)[0, 0, 3:], 0.0)
    np.testing.assert_array_equal((normalized @ x)[0, 3:], 0.0)
    # the padding changes nothing the readout sees
    tight = _readout(layers, x[:, :3], normalize_adjacency(
        a[:, :3, :3], mask[:, :3]), mask[:, :3]).data
    padded = _readout(layers, x, normalized, mask).data
    np.testing.assert_allclose(padded, tight, rtol=0, atol=1e-15)


def test_equivalent_nodes_get_equal_rows():
    # Two connected nodes with identical features and symmetric neighborhoods.
    rng = np.random.default_rng(2)
    layer = init_gcn_layer(2, 3, rng)
    a = np.array([[0.0, 1.0], [1.0, 0.0]])[None]
    x = np.array([[0.3, -0.7], [0.3, -0.7]])[None]
    mask = np.ones((1, 2))
    out = _node_rows(layer, x, normalize_adjacency(a, mask))[0]
    assert (out > 0).any()  # not equal merely because the ReLU zeroed both
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def test_init_bounds_and_determinism():
    layer_a = init_gcn_layer(7, 5, np.random.default_rng(42))
    layer_b = init_gcn_layer(7, 5, np.random.default_rng(42))
    limit = np.sqrt(6.0 / 12.0)
    assert np.all(np.abs(layer_a.weight.data) <= limit)
    assert np.all(layer_a.bias.data == 0.0)
    np.testing.assert_array_equal(layer_a.weight.data, layer_b.weight.data)


def test_gradients_through_forward_and_adjacency():
    # A constant soft adjacency, zero-padded as pad_batch pads: pooling
    # through Â's rows first must give the per-node mean, value and layer
    # gradients alike, for a one-node graph too. Â is a constant array (the
    # augmenter pools its differentiable rewrite through
    # autodiff.normalized_pool): a linear layer read out pooled must pass
    # gradients to X through the pool, here with padded cells that are not
    # zero.
    rng = np.random.default_rng(15)
    layers = [init_gcn_layer(2, 4, rng), init_gcn_layer(4, 3, rng)]
    for layer in layers:
        layer.bias.data[:] = rng.normal(size=layer.out_dim)
    mask = np.array([[1.0] * 5, [1.0] * 3 + [0.0] * 2, [1.0] + [0.0] * 4])
    soft = rng.uniform(0.1, 0.9, size=(3, 5, 5))
    features = Tensor(rng.normal(size=(3, 5, 2)) * mask[..., None],
                      requires_grad=True)

    assert (soft[1, 3:] != 0).any()  # padded rows
    assert (soft[1, :, 3:] != 0).any()  # and padded columns
    constant = normalize_adjacency(
        soft * mask[:, :, None] * mask[:, None, :], mask)
    got = _readout(layers, features.data, constant, mask).data
    expected = _per_node_readout(layers, features.data, constant, mask)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    weights = rng.normal(size=(3, 3))
    assert_grads_close(
        lambda: ad.tsum(_readout(layers, features.data, constant, mask)
                        * weights),
        [t for layer in layers for t in (layer.weight, layer.bias)])

    probe = init_gcn_layer(2, 3, rng)
    probe.bias.data[:] = rng.normal(size=3)
    linear = _pooled_linear(probe, features.data, constant, mask).data
    np.testing.assert_allclose(
        linear, _per_node_readout([probe], features.data, constant, mask),
        rtol=0, atol=1e-12)

    unpadded = normalize_adjacency(soft, mask)

    def loss():
        out = _pooled_linear(probe, features, unpadded, mask)
        return ad.tsum(out * weights)

    assert_grads_close(loss, [features, probe.weight, probe.bias])


def _degree_case(seed, hidden):
    """A degree-branch stack on four graphs, with kinks placed on nodes.

    Graph 0 is a ring (every ``s`` tied), graph 1 a path zero-padded from 4
    to 7 nodes, graph 2 one isolated node and graph 3 random. Units 0–3 put
    their kink exactly on a real node's ``s`` (``b_j = −fl(s·w_j)``), two
    rising and two falling; units 4–6 are flat with a positive, a negative
    and a zero bias.
    """
    rng = np.random.default_rng(seed)
    b, n = 4, 7
    a = np.zeros((b, n, n))
    mask = np.zeros((b, n))
    a[0], mask[0] = ring_adjacency(n), 1.0
    a[1, :4, :4], mask[1, :4] = path_adjacency(4), 1.0
    mask[2, 0] = 1.0
    a[3], mask[3] = random_adjacency(rng, n, 0.5), 1.0
    degrees = a.sum(axis=-1, keepdims=True)
    normalized = normalize_adjacency(a, mask)
    s = (normalized @ degrees)[..., 0]

    layers = [init_gcn_layer(1, hidden, rng), init_gcn_layer(hidden, 3, rng)]
    w = layers[0].weight.data[0]
    bias = layers[0].bias.data
    bias[:] = rng.normal(size=hidden)
    w[:4] = np.abs(w[:4]) * np.array([1.0, -1.0, 1.0, -1.0])
    for j, (g, i) in enumerate([(3, int(rng.integers(n))), (3, 2),
                                (1, 0), (0, int(rng.integers(n)))]):
        bias[j] = -(s[g, i] * w[j])
        assert s[g, i] * w[j] + bias[j] == 0.0  # exactly on the kink
    w[4:7] = 0.0
    bias[4:7] = [0.7, -0.7, 0.0]
    layers[1].bias.data[:] = rng.normal(size=3)
    return layers, normalized, mask, s


@pytest.mark.parametrize("seed", range(5))
def test_degree_readout_closed_form_matches_per_node_path(seed):
    # One hidden layer on one constant column reads out in closed form; its
    # values and every gradient must be the per-node path's, ties included.
    layers, normalized, mask, s = _degree_case(seed, hidden=12)
    b = mask.shape[0]
    pool = masked_mean_pool(normalized, mask)
    np.testing.assert_array_equal(pool[1, 0, 4:], 0.0)  # padded nodes
    ramp = ad.ramp_sums(s, pool[:, 0])
    first, last = layers

    def per_node():
        return ad.pooled_bias_relu(s[..., None], first.weight, first.bias,
                                   pool)

    def closed_form():
        return ad.ramp_relu_sum(first.weight, first.bias, ramp)

    weights = np.random.default_rng(seed).normal(size=(b, 3))
    results = []
    for hidden in (per_node, closed_form):
        for layer in layers:
            layer.weight.zero_grad()
            layer.bias.zero_grad()
        out = linear_readout(last, hidden())
        ad.tsum(out * weights).backward()
        results.append((out.data, [t.grad for layer in layers
                                   for t in (layer.weight, layer.bias)]))
    (want, want_grads), (got, got_grads) = results
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for g_got, g_want in zip(got_grads, want_grads):
        np.testing.assert_allclose(g_got, g_want, rtol=0, atol=1e-12)
    # the kinked units are partly active, so their gradients are not trivial
    assert (want_grads[1][:4] != 0).all()


def test_masked_mean_pool():
    states = np.array([[[1.0, 2.0], [3.0, 4.0], [9.0, 9.0]],
                       [[2.0, 2.0], [0.0, 0.0], [0.0, 0.0]]])
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    got = masked_mean_pool(states, mask)
    np.testing.assert_allclose(got, [[[2.0, 3.0]], [[2.0, 2.0]]])
