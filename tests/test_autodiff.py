"""Gradient and value checks for the reverse-mode tape.

Every op is compared against central finite differences (step 1e-5,
relative error < 1e-4), plus forward-value checks against plain numpy.
"""

from __future__ import annotations

import numpy as np
import pytest

import gladcf.autodiff as ad
from gladcf.autodiff import Tensor

from util import assert_grads_close, leaf


def test_add_mul_broadcast_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([10.0, 20.0])
    out = (a + b) * 2.0
    np.testing.assert_array_equal(out.data, [[22.0, 44.0], [26.0, 48.0]])


def test_arithmetic_grads():
    rng = np.random.default_rng(0)
    a = leaf(rng, (3, 4))
    b = leaf(rng, (4,))
    c = leaf(rng, (3, 1))
    assert_grads_close(lambda: ad.tsum((a + b) * c - 0.5 * a), [a, b, c])


def test_matmul_grads_2d():
    rng = np.random.default_rng(1)
    a = leaf(rng, (3, 4))
    b = leaf(rng, (4, 2))
    assert_grads_close(lambda: ad.tsum(a @ b), [a, b])


def test_matmul_grads_batched_times_shared():
    # (B, n, k) @ (k, m): the shared right operand accumulates over the batch.
    rng = np.random.default_rng(2)
    a = leaf(rng, (5, 3, 4))
    w = leaf(rng, (4, 2))
    assert_grads_close(lambda: ad.tsum(a @ w), [a, w])


def test_matmul_grads_shared_times_batched():
    # (n, n) @ (B, n, n): numpy broadcasts the left operand across the stack.
    rng = np.random.default_rng(3)
    m = leaf(rng, (4, 4))
    stack = leaf(rng, (6, 4, 4))
    out = m @ stack
    assert out.shape == (6, 4, 4)
    assert_grads_close(lambda: ad.tsum(ad.sigmoid(m @ stack)), [m, stack])


def test_matmul_batched_times_shared_matches_per_graph_loop():
    # the flat (B·n, k) @ (k, m) product against one matmul per stack entry
    rng = np.random.default_rng(11)
    a = leaf(rng, (4, 5, 3))
    w = leaf(rng, (3, 2))
    upstream = rng.normal(size=(4, 5, 2))
    out = a @ w
    ad.tsum(out * upstream).backward()
    np.testing.assert_allclose(
        out.data, np.stack([a.data[i] @ w.data for i in range(4)]),
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        a.grad, np.stack([upstream[i] @ w.data.T for i in range(4)]),
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        w.grad, sum(a.data[i].T @ upstream[i] for i in range(4)),
        rtol=0, atol=1e-12)


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        ad.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))


def test_sigmoid_values_and_stability():
    t = Tensor([-800.0, 0.0, 800.0])
    out = ad.sigmoid(t).data
    assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0
    assert np.isfinite(out).all()


def test_unary_grads():
    rng = np.random.default_rng(4)
    t = leaf(rng, (4, 3))
    assert_grads_close(lambda: ad.tsum(ad.sigmoid(t)), [t])
    shifted = Tensor(np.abs(rng.normal(size=(5,))) + 0.5, requires_grad=True)
    assert_grads_close(lambda: ad.tsum(ad.log(shifted)), [shifted])
    assert_grads_close(lambda: ad.tsum(ad.sqrt(shifted)), [shifted])
    assert_grads_close(lambda: ad.tsum(ad.power(shifted, -0.5)), [shifted])
    # keep relu/abs inputs away from their kinks at zero
    off_kink = Tensor(rng.normal(size=(6,)) + np.where(
        rng.normal(size=(6,)) > 0, 1.0, -1.0), requires_grad=True)
    assert_grads_close(lambda: ad.tsum(ad.relu(off_kink)), [off_kink])
    assert_grads_close(lambda: ad.tsum(ad.absolute(off_kink)), [off_kink])


def test_clamp_blocks_gradient_outside_range():
    t = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
    out = ad.tsum(ad.clamp(t, 0.0, 1.0))
    out.backward()
    np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(ad.clamp(t, 0.0, 1.0).data, [0.0, 0.5, 1.0])


def test_safe_nonzero():
    t = Tensor([0.0, -2.0, 3.0], requires_grad=True)
    out = ad.safe_nonzero(t)
    np.testing.assert_array_equal(out.data, [1.0, 1.0, 3.0])
    ad.tsum(out * 2.0).backward()
    np.testing.assert_array_equal(t.grad, [0.0, 0.0, 2.0])


def test_sum_mean_axes_grads():
    rng = np.random.default_rng(5)
    t = leaf(rng, (3, 4, 2))
    assert_grads_close(lambda: ad.tsum(t), [t])
    assert_grads_close(lambda: ad.tsum(ad.sigmoid(ad.tsum(t, axis=1))), [t])
    assert_grads_close(lambda: ad.tsum(ad.sigmoid(ad.tsum(t, axis=(1, 2)))), [t])
    assert_grads_close(lambda: ad.tsum(ad.mean(t, axis=-1) * 3.0), [t])
    np.testing.assert_allclose(ad.mean(t).data, t.data.mean())


def test_softmax_matches_numpy_and_grads():
    rng = np.random.default_rng(6)
    t = leaf(rng, (4, 3))
    out = ad.softmax_last(t).data
    e = np.exp(t.data - t.data.max(axis=-1, keepdims=True))
    np.testing.assert_allclose(out, e / e.sum(axis=-1, keepdims=True))
    np.testing.assert_allclose(out.sum(axis=-1), 1.0)
    weights = rng.normal(size=(4, 3))
    assert_grads_close(lambda: ad.tsum(ad.softmax_last(t) * weights), [t])


def test_concat_and_reshape_grads():
    rng = np.random.default_rng(7)
    a = leaf(rng, (2, 3, 2))
    b = leaf(rng, (2, 3, 4))
    out = ad.concat_last(a, b)
    assert out.shape == (2, 3, 6)
    scale = rng.normal(size=(2, 3, 6))
    projection = Tensor(rng.normal(size=(2, 3)))
    assert_grads_close(lambda: ad.tsum(ad.concat_last(a, b) * scale), [a, b])
    assert_grads_close(lambda: ad.tsum(ad.reshape(a, (6, 2)) @ projection), [a])


def test_take_nodes_reorders_and_scatters():
    rng = np.random.default_rng(9)
    t = leaf(rng, (2, 4, 3))
    order = np.array([[2, 0, 3, 1], [1, 3, 0, 2]])
    out = ad.take_nodes(t, order)
    for b in range(2):
        np.testing.assert_array_equal(out.data[b], t.data[b][order[b]])
    scale = rng.normal(size=(2, 4, 3))
    assert_grads_close(lambda: ad.tsum(ad.take_nodes(t, order) * scale), [t])


def test_add_diagonal():
    rng = np.random.default_rng(10)
    t = leaf(rng, (2, 3, 3))
    diag = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    out = ad.add_diagonal(t, diag)
    expected = t.data.copy()
    for b in range(2):
        expected[b] += np.diag(diag[b])
    np.testing.assert_array_equal(out.data, expected)
    assert_grads_close(lambda: ad.tsum(ad.sigmoid(ad.add_diagonal(t, diag))), [t])


def test_gradient_accumulates_across_reuse():
    x = Tensor([3.0], requires_grad=True)
    y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
    ad.tsum(y).backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_gradient_shared_by_sibling_operands_stays_separate():
    # add hands one upstream array to both operands, and a's first gradient
    # is stored without a copy: a's second contribution must not reach b
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([5.0, 6.0], requires_grad=True)
    c = a + b
    loss = ad.tsum(c) + ad.tsum(a * 3.0)
    loss.backward()
    np.testing.assert_array_equal(a.grad, [4.0, 4.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_backward_requires_scalar():
    t = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_no_tape_without_requires_grad():
    a = Tensor([1.0, 2.0])
    out = ad.sigmoid(a * 3.0)
    assert out._backward is None and out._parents == ()
    assert not out.requires_grad


def test_deep_chain_does_not_recurse():
    x = Tensor([1.0], requires_grad=True)
    y = x
    for _ in range(5000):
        y = y * 1.0001
    ad.tsum(y).backward()
    assert x.grad is not None and np.isfinite(x.grad).all()


def test_division_by_tensor_rejected():
    with pytest.raises(TypeError):
        Tensor([1.0]) / Tensor([2.0])
