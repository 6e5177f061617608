"""Gradient and value checks for the reverse-mode tape.

Every op is compared against central finite differences (step 1e-5,
relative error < 1e-4), plus forward-value checks against plain numpy.
"""

from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path

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
    # numpy's stacked product with a shared right operand, and its summed
    # weight gradient, against one matmul per stack entry
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


def test_sigmoid_equals_the_select_form_bit_for_bit():
    # max(e, x >= 0) / (1 + e) against np.where(x >= 0, 1, e) / (1 + e):
    # the tails, both zeros, subnormal-scale inputs, infinities and NaN
    special = [0.0, -0.0, 1e-300, -1e-300, 1e-17, -1e-17, 800.0, -800.0,
               np.inf, -np.inf, np.nan]
    draws = np.random.default_rng(18).normal(scale=10.0, size=100_000)
    x = np.concatenate([special, draws])
    e = np.exp(-np.abs(x))
    want = np.where(x >= 0, 1.0, e) / (1.0 + e)
    t = Tensor(x.copy(), requires_grad=True)
    out = ad.sigmoid(t)
    np.testing.assert_array_equal(t.data, x)   # the input is left alone
    assert np.array_equal(out.data, want, equal_nan=True)
    assert np.isnan(out.data[10]) and out.data[8] == 1.0 and out.data[9] == 0.0
    g = np.random.default_rng(19).normal(size=x.shape)
    ad.tsum(out * g).backward()
    assert np.array_equal(t.grad, g * want * (1.0 - want), equal_nan=True)


def _cut_rows_chain(logits, adjacency):
    """``Σ σ(L @ A_b)²`` per graph from separate ops: the reference."""
    s = ad.sigmoid(ad.matmul(logits, Tensor(adjacency)))
    return ad.tsum(s * s, axis=(-2, -1))


def test_sigmoid_square_sums_matches_unfused_chain():
    # the rows of a (n_max, n_max) logit matrix past a chunk's width w,
    # against w columns of a (B, w, w) stack, as counterfactual_loss uses it
    rng = np.random.default_rng(20)
    n_max, width, batch = 7, 4, 3
    edge = leaf(rng, (n_max, n_max))
    adjacency = (rng.random((batch, width, width)) < 0.5).astype(float)
    weights = rng.normal(size=batch)

    results = []
    for build in (ad.sigmoid_square_sums, _cut_rows_chain):
        edge.zero_grad()
        out = build(ad.block(edge, n_max - width, width, first_row=width),
                    adjacency)
        ad.tsum(out * weights).backward()
        results.append((out.data, edge.grad))
    (got, got_grad), (want, want_grad) = results
    assert got.shape == (batch,)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-15)
    assert not got_grad[:width].any() and not got_grad[:, width:].any()
    assert got_grad[width:, :width].all()
    assert_grads_close(
        lambda: ad.tsum(ad.sigmoid_square_sums(
            ad.block(edge, n_max - width, width, first_row=width), adjacency)
            * weights), [edge])

    # a chunk as wide as n_max cuts off no rows
    full = (rng.random((batch, n_max, n_max)) < 0.5).astype(float)
    edge.zero_grad()
    out = ad.sigmoid_square_sums(ad.block(edge, 0, n_max, first_row=n_max),
                                 full)
    np.testing.assert_array_equal(out.data, np.zeros(batch))
    ad.tsum(out * weights).backward()
    np.testing.assert_array_equal(edge.grad, np.zeros((n_max, n_max)))


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


def _pooled_chain(t, w, b, pool):
    """``pool @ relu(t @ W + b)`` from separate ops, with ``t @ W`` as one
    flat ``(B·n, k) @ (k, h)`` product: the reference."""
    batch, n, k = t.shape
    flat = ad.matmul(t.reshape(batch * n, k), w)
    hidden = ad.relu(ad.reshape(flat, (batch, n, w.shape[1])) + b)
    return ad.reshape(ad.matmul(pool, hidden), (batch, w.shape[1]))


def test_pooled_hidden_layer_matches_unfused_chain():
    # graph 0 is full, graph 1 has 2 real nodes padded to 4 and graph 2 is
    # empty; as a plan made from a zero-padded Â has them, the propagated
    # rows and the pool weights are zero at padded nodes
    rng = np.random.default_rng(16)
    mask = np.array([[1.0] * 4, [1.0, 1.0, 0.0, 0.0], [0.0] * 4])
    t = rng.normal(size=(3, 4, 3)) * mask[..., None]
    w = leaf(rng, (3, 5))
    b = leaf(rng, (5,))
    pool = rng.uniform(0.1, 0.9, size=(3, 1, 4)) * mask[:, None, :]
    weights = rng.normal(size=(3, 5))

    results = []
    for build in (ad.pooled_bias_relu, _pooled_chain):
        for x in (w, b):
            x.zero_grad()
        out = build(t, w, b, pool)
        ad.tsum(out * weights).backward()
        results.append((out.data, [x.grad for x in (w, b)]))
    (got, got_grads), (want, want_grads) = results
    assert got.shape == (3, 5)
    np.testing.assert_array_equal(got, want)
    for g_got, g_want in zip(got_grads, want_grads):
        np.testing.assert_array_equal(g_got, g_want)
    # the ReLU both passes and clips some real entries, and passes relu(b)
    # at some padded node, which its zero pool weight must cancel
    pre = t @ w.data + b.data
    real = mask.astype(bool)
    assert (pre[real] > 0).any() and (pre[real] < 0).any()
    assert (pre[~real] > 0).any()
    np.testing.assert_array_equal(got[2], 0.0)   # the empty graph
    # the padded nodes add nothing: the layer equals its real rows' sum
    for g, m in enumerate(real):
        np.testing.assert_allclose(
            got[g], pool[g, 0, m] @ np.maximum(pre[g, m], 0.0), rtol=0,
            atol=1e-12)
    assert_grads_close(
        lambda: ad.tsum(ad.pooled_bias_relu(t, w, b, pool) * weights),
        [w, b])

    # a chunk whose graphs have no nodes at all pools to zero
    w.zero_grad()
    out = ad.pooled_bias_relu(np.zeros((2, 0, 3)), w, b, np.zeros((2, 1, 0)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 5)))
    ad.tsum(out).backward()
    np.testing.assert_array_equal(w.grad, 0.0)


def test_pooled_hidden_layer_tapes_only_its_weight_and_bias():
    # the graph terms are constants, so the weight and the bias are the
    # node's only parents, and a frozen layer records no tape entry
    rng = np.random.default_rng(17)
    t, pool = rng.normal(size=(2, 3, 4)), rng.uniform(size=(2, 1, 3))
    w, b = leaf(rng, (4, 2)), leaf(rng, (2,))
    out = ad.pooled_bias_relu(t, w, b, pool)
    assert len(out._parents) == 2
    assert out._parents[0] is w and out._parents[1] is b
    frozen = ad.pooled_bias_relu(t, Tensor(w.data), Tensor(b.data), pool)
    assert frozen._backward is None and frozen._parents == ()
    np.testing.assert_array_equal(frozen.data, out.data)


def test_pooled_hidden_layer_does_not_depend_on_its_blocks(monkeypatch):
    # five graphs padded to n = 6: full, partly padded, empty, and so on.
    # ROWS = 4 makes every graph wider than one block, 6 gives one graph
    # per block, 12 two graphs (which do not divide 5) and 30 one block
    rng = np.random.default_rng(18)
    mask = np.array([[1.0] * 6, [1.0] * 3 + [0.0] * 3, [0.0] * 6,
                     [1.0] * 5 + [0.0], [1.0] * 2 + [0.0] * 4])
    t = rng.normal(size=(5, 6, 3)) * mask[..., None]
    pool = rng.uniform(0.1, 0.9, size=(5, 1, 6)) * mask[:, None, :]
    w, b = leaf(rng, (3, 7)), leaf(rng, (7,))
    weights = rng.normal(size=(5, 7))

    results = {}
    for rows in (4, 6, 12, 30):
        monkeypatch.setattr(ad, "ROWS", rows)
        w.zero_grad()
        b.zero_grad()
        out = ad.pooled_bias_relu(t, w, b, pool)
        ad.tsum(out * weights).backward()
        results[rows] = out.data, w.grad, b.grad
    value, grad_w, grad_b = results[30]
    pre = t @ w.data + b.data
    assert (pre > 0).any() and (pre < 0).any()
    np.testing.assert_array_equal(value[2], 0.0)  # the empty graph
    for got, got_w, got_b in results.values():
        np.testing.assert_array_equal(got, value)
        np.testing.assert_allclose(got_w, grad_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_b, grad_b, rtol=0, atol=1e-12)
    monkeypatch.setattr(ad, "ROWS", 4)
    assert_grads_close(
        lambda: ad.tsum(ad.pooled_bias_relu(t, w, b, pool) * weights),
        [w, b])


def _traced_peak(call):
    """``call()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_frozen_pooled_hidden_layer_keeps_no_mask(monkeypatch):
    # the tape keeps one byte per unit; a call with a frozen weight and
    # bias, as in predict_scores, keeps nothing past one block
    monkeypatch.setattr(ad, "ROWS", 32)  # one graph per block
    rng = np.random.default_rng(19)
    batch, n, k, h = 64, 32, 3, 256
    t, pool = rng.normal(size=(batch, n, k)), rng.uniform(size=(batch, 1, n))
    w, b = rng.normal(size=(k, h)), rng.normal(size=h)
    peaks = {}
    for taped in (False, True):
        weight = Tensor(w, requires_grad=taped)
        bias = Tensor(b, requires_grad=taped)
        out, peaks[taped] = _traced_peak(
            lambda: ad.pooled_bias_relu(t, weight, bias, pool))
        assert (out._backward is not None) == taped
        assert len(out._parents) == 2 * taped
    mask_bytes = batch * n * h
    assert peaks[False] < mask_bytes <= peaks[True]


def test_pooled_hidden_layer_allocates_no_per_node_float_buffer():
    # a BZR-sized chunk: a taped forward and backward stay below half of
    # one float64 (B·n, h) buffer, 7.5 MB
    rng = np.random.default_rng(20)
    batch, n, k, h = 128, 57, 57, 256
    t, pool = rng.normal(size=(batch, n, k)), rng.uniform(size=(batch, 1, n))
    w, b = leaf(rng, (k, h)), leaf(rng, (h,))
    weights = rng.normal(size=(batch, h))

    def step():
        ad.tsum(ad.pooled_bias_relu(t, w, b, pool) * weights).backward()

    _, peak = _traced_peak(step)
    assert w.grad.shape == (k, h) and b.grad.shape == (h,)
    assert peak < batch * n * h * 8 / 2


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
    assert_grads_close(lambda: ad.mean(t) * 3.0, [t])
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


def test_block_crops_and_zero_fills_gradient():
    rng = np.random.default_rng(11)
    for shape, rows, cols, first in (((5, 4), 3, 2, 0), ((2, 4, 5), 4, 3, 0),
                                     ((2, 6, 4), 3, 2, 2)):
        t = leaf(rng, shape)
        out = ad.block(t, rows, cols, first_row=first)
        np.testing.assert_array_equal(
            out.data, t.data[..., first:first + rows, :cols])
        scale = rng.normal(size=out.shape)
        assert_grads_close(
            lambda: ad.tsum(ad.sigmoid(
                ad.block(t, rows, cols, first_row=first)) * scale), [t])
        assert not t.grad[..., :first, :].any()
        assert not t.grad[..., first + rows:, :].any()
        assert not t.grad[..., :, cols:].any()


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


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gladcf"


def _top_level_names(tree):
    """Public functions, classes and assigned names of a module."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node) for t in node.targets
                           if isinstance(t, ast.Name))
    return {name: node for name, node in defined.items()
            if not name.startswith("_")}


def _loaded_names(tree, skip):
    """Names read anywhere in ``tree`` outside the subtree ``skip``."""
    seen, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            seen.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return seen


def _autodiff_names_used(tree):
    """What a module takes from ``autodiff``: names imported from it, and
    attributes read off a name it is imported as."""
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "autodiff":
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "autodiff")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def _op_classes():
    """The keys of ``bench/instrument.py``'s ``OP_CLASSES``, read without
    importing the bench."""
    tree = ast.parse((ROOT / "bench" / "instrument.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "OP_CLASSES"
                        for t in node.targets))


def test_every_op_has_a_caller():
    # the autodiff carries only what the package uses, or what the bench
    # instruments by name
    own = ast.parse((PACKAGE / "autodiff.py").read_text())
    elsewhere = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "autodiff.py":
            elsewhere |= _autodiff_names_used(ast.parse(path.read_text()))
    bound = set(_op_classes())
    unused = sorted(name for name, node in _top_level_names(own).items()
                    if name not in elsewhere | bound
                    and name not in _loaded_names(own, skip=node))
    assert not unused, f"autodiff names no one uses: {unused}"
