"""Detector checks: loss identities, weighting oracle, gradients, training."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

import gladcf.detector as detector_module
import gladcf.gcn as gcn_module
from gladcf.autodiff import Tensor
from gladcf.detector import (DetectorConfig, TrainConfig, adaptive_weighting,
                             composite_loss, decide, detector_scores,
                             fuse_features, init_detector, load_checkpoint,
                             loss_weights, partition_masks, plan_branches,
                             predict_scores, save_checkpoint, score,
                             train_detector, weighted_nll)
from gladcf.errors import ConfigError, TrainingDivergedError
from gladcf.gcn import normalize_adjacency
from gladcf.graphs import (PaddedBatch, Provenance, make_graph, pad_batch,
                           padded_chunks)
from gladcf.tu import FeatureConfig, FeatureMode, build_features
from util import (assert_grads_close, connected_random_graph, random_graph,
                  rewrite_checkpoint, ring_adjacency)

TOY = DetectorConfig(hidden1=8, hidden2=6, reduce_dim=4)

N = Provenance.ORIGINAL_NORMAL
A = Provenance.ORIGINAL_ABNORMAL
G = Provenance.GENERATED


def test_composite_loss_frozen_oracle():
    # one normal at 0.8, one original abnormal at 0.6, one generated at 0.9;
    # alpha = 1/2, so L = -log(0.2) + 0.5*(-log 0.6) + 1.2*0.5*(-log 0.9)
    scores = Tensor([0.8, 0.6, 0.9])
    loss, parts = composite_loss(scores, np.array([0, 1, 1]), [N, A, G],
                                 beta=1.2)
    expected = -np.log(0.2) + 0.5 * -np.log(0.6) + 0.6 * -np.log(0.9)
    assert abs(float(loss.data) - expected) < 1e-12
    assert parts["alpha"] == 0.5
    assert abs(parts["l_normal"] - -np.log(0.2)) < 1e-12
    assert abs(parts["l_original"] - -np.log(0.6)) < 1e-12
    assert abs(parts["l_generated"] - -np.log(0.9)) < 1e-12


def test_composite_loss_identity_property():
    rng = np.random.default_rng(0)
    provenance_pool = [N, A, G]
    for _ in range(200):
        b = int(rng.integers(1, 40))
        scores = Tensor(rng.uniform(1e-6, 1 - 1e-6, size=b))
        labels = rng.integers(0, 2, size=b)
        prov = []
        for lab in labels:
            if lab == 0:
                prov.append(N if rng.random() < 0.8 else G)
            else:
                prov.append(A if rng.random() < 0.6 else G)
        beta = float(rng.uniform(0.1, 2.5))
        loss, p = composite_loss(scores, labels, prov, beta=beta)
        recombined = (p["l_normal"] + (1.0 - p["alpha"]) * p["l_original"]
                      + beta * p["alpha"] * p["l_generated"])
        # all-empty batches (e.g. only generated normals) still satisfy this
        assert abs(float(loss.data) - recombined) < 1e-9


def test_composite_loss_empty_partitions():
    scores = Tensor([0.3, 0.4])
    loss, p = composite_loss(scores, np.array([0, 0]), [N, N], beta=1.2)
    assert p["alpha"] == 0.0 and p["l_original"] == 0.0
    assert abs(float(loss.data) - p["l_normal"]) < 1e-12
    loss2, p2 = composite_loss(scores, np.array([1, 1]), [A, A], beta=1.2)
    assert abs(float(loss2.data) - p2["l_original"]) < 1e-12  # alpha = 0


def test_composite_loss_switches():
    scores = Tensor([0.8, 0.6, 0.9])
    labels = np.array([0, 1, 1])
    prov = [N, A, G]
    no_nor, _ = composite_loss(scores, labels, prov, beta=1.2,
                               include_normal=False)
    expected = 0.5 * -np.log(0.6) + 0.6 * -np.log(0.9)
    assert abs(float(no_nor.data) - expected) < 1e-12
    no_abn, _ = composite_loss(scores, labels, prov, beta=1.2,
                               include_abnormal=False)
    assert abs(float(no_abn.data) - -np.log(0.2)) < 1e-12
    nothing, _ = composite_loss(scores, labels, prov, beta=1.2,
                                include_normal=False, include_abnormal=False)
    assert float(nothing.data) == 0.0


def test_composite_loss_clamps_extreme_scores():
    loss, _ = composite_loss(Tensor([0.0, 1.0]), np.array([0, 1]), [N, A],
                             beta=1.0)
    assert np.isfinite(float(loss.data))


def test_loss_weights_frozen_oracle():
    # 2 normal (one generated), 1 original and 2 generated anomalies:
    # alpha = 2/3, so the weights are 1/2, 1/2, (1/3)/1, (1.2 * 2/3)/2 twice
    labels, prov = np.array([0, 0, 1, 1, 1]), [N, G, A, G, G]
    np.testing.assert_allclose(loss_weights(labels, prov, beta=1.2),
                               [0.5, 0.5, 1 / 3, 0.4, 0.4], rtol=1e-15)
    np.testing.assert_allclose(
        loss_weights(labels, prov, 1.2, include_normal=False),
        [0.0, 0.0, 1 / 3, 0.4, 0.4], rtol=1e-15)
    np.testing.assert_array_equal(
        loss_weights(labels, prov, 1.2, include_abnormal=False),
        [0.5, 0.5, 0.0, 0.0, 0.0])
    # no anomalies: alpha = 0 and only the normal term is left
    np.testing.assert_array_equal(
        loss_weights(np.zeros(4), [N] * 4, beta=1.2), 0.25)


def test_weighted_nll_reads_each_log_likelihood_exactly():
    rng = np.random.default_rng(15)
    scores = np.concatenate([rng.uniform(size=20), [0.0, 1.0, 0.0, 1.0]])
    labels = np.concatenate([rng.integers(0, 2, size=20), [0, 0, 1, 1]])
    clamped = np.clip(scores, detector_module.SCORE_FLOOR,
                      1.0 - detector_module.SCORE_FLOOR)
    expected = -np.where(labels == 1, np.log(clamped), np.log(1.0 - clamped))
    got = [float(weighted_nll(Tensor(scores), labels,
                              np.eye(len(scores))[i]).data)
           for i in range(len(scores))]
    np.testing.assert_array_equal(got, expected)


def test_partition_masks_generated_normals_join_normal_term():
    masks = partition_masks(np.array([0, 0, 1, 1]), [N, G, A, G])
    np.testing.assert_array_equal(masks[0], [True, True, False, False])
    np.testing.assert_array_equal(masks[1], [False, False, True, False])
    np.testing.assert_array_equal(masks[2], [False, False, False, True])


def test_score_head_trivial_and_decide():
    rng = np.random.default_rng(1)
    params = init_detector(5, TOY, rng)
    params.head_bias.data[:] = 0.0
    zero_embedding = Tensor(np.zeros((3, TOY.reduce_dim)))
    np.testing.assert_array_equal(score(params, zero_embedding).data,
                                  [0.5, 0.5, 0.5])
    np.testing.assert_array_equal(decide(np.array([0.5, 0.5001, 0.4999]), 0.5),
                                  [0, 1, 0])
    np.testing.assert_array_equal(decide(np.array([0.2, 0.3]), 0.2), [0, 1])


def test_init_shapes_and_ablation_dims():
    rng = np.random.default_rng(2)
    full = init_detector(5, TOY, rng)
    assert full.feature_branch[0].weight.shape == (5, 8)
    assert full.feature_branch[1].weight.shape == (8, 6)
    assert full.degree_branch[0].weight.shape == (1, 8)
    assert full.reducer.weight.shape == (12, 4)
    assert full.adaptive_weight.shape == (4, 4)
    assert full.head_weight.shape == (4, 1)
    assert len(full.trainables()) == 4 + 4 + 2 + 1 + 2

    no_x = init_detector(5, DetectorConfig(hidden1=8, hidden2=6, reduce_dim=4,
                                           use_feature_branch=False),
                         np.random.default_rng(2))
    assert no_x.feature_branch is None
    assert no_x.reducer.weight.shape == (6, 4)
    with pytest.raises(ConfigError):
        DetectorConfig(use_feature_branch=False, use_degree_branch=False)


def test_init_is_seeded_and_bounded():
    a = init_detector(5, TOY, np.random.default_rng(3))
    b = init_detector(5, TOY, np.random.default_rng(3))
    np.testing.assert_array_equal(a.reducer.weight.data, b.reducer.weight.data)
    limit = np.sqrt(6.0 / (5 + 8))
    assert np.all(np.abs(a.feature_branch[0].weight.data) <= limit)
    assert np.all(np.abs(a.adaptive_weight.data) <= np.sqrt(6.0 / 8))


def _toy_batch(rng, b=3, h=5, n_lo=3, n_hi=6):
    graphs = [random_graph(rng, int(rng.integers(n_lo, n_hi + 1)), h,
                           label=int(rng.integers(0, 2)),
                           provenance=N)
              for _ in range(b)]
    return graphs, pad_batch(graphs, n_hi)


def _random_biases(params, rng):
    """Non-zero biases everywhere, so a bias leaking into padding shows."""
    for branch in (params.feature_branch, params.degree_branch):
        for layer in branch or ():
            layer.bias.data[:] = rng.normal(size=layer.out_dim)
    params.reducer.bias.data[:] = rng.normal(size=params.config.reduce_dim)


def _per_node_states(params, batch):
    """Concatenated per-node branch states, replayed in NumPy: (B, n, fused).

    Each branch runs layer, ReLU, layer on every node, with every layer's
    padded rows masked; this is the detector's function before any pooling.
    """
    mask = batch.node_mask
    normalized = normalize_adjacency(batch.adjacency_stack, mask)
    degrees = batch.adjacency_stack.sum(axis=-1, keepdims=True)
    states = []
    for layers, h in ((params.feature_branch, batch.feature_stack),
                      (params.degree_branch, degrees)):
        if layers is None:
            continue
        for i, layer in enumerate(layers):
            if i > 0:
                h = np.maximum(h, 0.0)
            h = (normalized @ h @ layer.weight.data
                 + layer.bias.data) * mask[..., None]
        states.append(h)
    return np.concatenate(states, axis=-1)


def _masked_mean(rows, mask):
    return (rows * mask[..., None]).sum(axis=1) / mask.sum(axis=1)[:, None]


def test_fuse_features_concat_order_and_padding():
    rng = np.random.default_rng(4)
    graphs, batch = _toy_batch(rng)
    params = init_detector(5, TOY, rng)
    _random_biases(params, rng)
    fused = fuse_features(params, plan_branches(params, batch)).data
    assert fused.shape == (3, 12)
    expected = _masked_mean(_per_node_states(params, batch), batch.node_mask)
    np.testing.assert_allclose(fused, expected, rtol=0, atol=1e-12)
    # the first half of the channels comes from the feature branch
    solo = init_detector(5, DetectorConfig(hidden1=8, hidden2=6, reduce_dim=4,
                                           use_degree_branch=False), rng)
    solo.feature_branch = params.feature_branch
    np.testing.assert_array_equal(
        fuse_features(solo, plan_branches(solo, batch)).data, fused[:, :6])


def test_adaptive_weighting_matches_numpy_replay():
    rng = np.random.default_rng(5)
    params = init_detector(5, TOY, rng)
    _random_biases(params, rng)
    graphs, batch = _toy_batch(rng)
    fused = fuse_features(params, plan_branches(params, batch))
    got = adaptive_weighting(params, fused).data

    # per node: rows sorted by L1 norm, reduced, reweighted; then pooled
    z = _per_node_states(params, batch)
    order = np.argsort(-np.abs(z).sum(axis=-1), axis=1, kind="stable")
    rows = np.take_along_axis(z, order[:, :, None], axis=1)
    mask = np.take_along_axis(batch.node_mask, order, axis=1)
    reduced = rows @ params.reducer.weight.data + params.reducer.bias.data
    weighted = reduced @ params.adaptive_weight.data
    np.testing.assert_allclose(got, _masked_mean(weighted, mask), rtol=0,
                               atol=1e-12)


def test_adaptive_weighting_bypass():
    rng = np.random.default_rng(6)
    config = DetectorConfig(hidden1=8, hidden2=6, reduce_dim=4,
                            use_adaptive_weighting=False)
    params = init_detector(5, config, rng)
    _random_biases(params, rng)
    graphs, batch = _toy_batch(rng)
    fused = fuse_features(params, plan_branches(params, batch))
    got = adaptive_weighting(params, fused).data
    z = _per_node_states(params, batch)
    reduced = z @ params.reducer.weight.data + params.reducer.bias.data
    np.testing.assert_allclose(got, _masked_mean(reduced, batch.node_mask),
                               rtol=0, atol=1e-12)
    assert params.adaptive_weight not in params.trainables()


def test_scores_do_not_depend_on_padding_width():
    rng = np.random.default_rng(17)
    graphs = [random_graph(rng, n, 5) for n in (3, 6, 4, 5)]
    params = init_detector(5, TOY, rng)
    _random_biases(params, rng)
    tight, wide = (detector_scores(params, plan_branches(
        params, pad_batch(graphs, n))).data for n in (6, 6 + 7))
    np.testing.assert_allclose(wide, tight, rtol=0, atol=1e-12)


def _mixed_graphs(rng, h):
    """Graphs of mixed sizes with two one-node graphs, one of them with
    all-zero features."""
    isolated = make_graph(np.zeros((1, 1)), rng.random((1, h)), 0, N)
    blank = make_graph(np.zeros((1, 1)), np.zeros((1, h)), 0, N)
    return [random_graph(rng, n, h) for n in (3, 7, 4, 9, 2, 6)] + [
        isolated, blank]


def test_plans_are_zero_at_padded_nodes():
    # Neither hidden layer masks padded nodes; what replaces the mask is
    # that the plan's pool weights and Â·X rows are exactly zero there, in
    # size-bucketed chunks and in a batch padded past its largest graph.
    rng = np.random.default_rng(23)
    graphs = _mixed_graphs(rng, 5)
    params = init_detector(5, TOY, rng)
    n = max(g.num_nodes for g in graphs)
    batches = [batch for _, batch in padded_chunks(graphs, 3)]
    batches.append(pad_batch(graphs, n + 7))
    assert 1 in {batch.node_mask.shape[1] for batch in batches}
    padded_nodes = 0
    for batch in batches:
        plan = plan_branches(params, batch)
        padded = batch.node_mask == 0
        padded_nodes += int(padded.sum())
        np.testing.assert_array_equal(plan.pool[:, 0][padded], 0.0)
        np.testing.assert_array_equal(plan.inputs[padded], 0.0)
        for constant in (plan.pool, plan.inputs, *plan.ramp):
            assert type(constant) is np.ndarray
    assert padded_nodes > 7 * len(graphs)


def test_plan_branches_builds_no_tensor(monkeypatch):
    # the plan reads fixed graphs only, so it is plain NumPy: not one Tensor
    # is made, tape node or wrapper, with both branches on
    rng = np.random.default_rng(24)
    _, batch = _toy_batch(rng)
    params = init_detector(5, TOY, rng)
    built = []
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    plan = plan_branches(params, batch)
    assert plan.inputs is not None and plan.ramp is not None
    assert built == []


def test_one_column_features_score_as_the_per_node_reference():
    # degree_binning with one bin gives every node the feature 1, so the
    # feature branch reads a one-column Â·X through the GEMM node
    rng = np.random.default_rng(24)
    graphs = build_features(_mixed_graphs(rng, 3), FeatureConfig(
        mode=FeatureMode.DEGREE_BINNING, num_bins=1)).graphs
    params = init_detector(1, TOY, rng)
    _random_biases(params, rng)
    batch = pad_batch(graphs, max(g.num_nodes for g in graphs) + 3)
    plan = plan_branches(params, batch)
    assert plan.inputs.shape[-1] == 1
    got = detector_scores(params, plan).data

    # per node: branches, reducer, reweighting; then the mean over real
    # nodes
    mask = batch.node_mask
    z = _per_node_states(params, batch)
    reduced = z @ params.reducer.weight.data + params.reducer.bias.data
    rows = reduced @ params.adaptive_weight.data * mask[..., None]
    embedding = rows.sum(axis=1) / mask.sum(axis=1)[:, None]
    logits = (np.maximum(embedding, 0.0) @ params.head_weight.data
              + params.head_bias.data)[:, 0]
    np.testing.assert_allclose(got, 1.0 / (1.0 + np.exp(-logits)), rtol=0,
                               atol=1e-12)


def test_tape_holds_no_per_node_last_layer_state():
    # Both branches read out pooled: the feature branch's hidden layer and
    # its pool are one tape node, the degree branch's hidden layer has a
    # closed form and the last layer runs on pooled rows. So one forward and
    # backward pass holds no (B, n, hidden1) or (B, n, hidden2) array, as a
    # value or a gradient; the only per-node arrays are the planned inputs.
    rng = np.random.default_rng(19)
    graphs, batch = _toy_batch(rng, n_hi=6)
    b, n = batch.node_mask.shape

    def tape_shapes(config):
        params = init_detector(5, config, rng)
        loss, _ = composite_loss(
            detector_scores(params, plan_branches(params, batch)),
            [g.label for g in graphs], [g.provenance for g in graphs],
            beta=1.2)
        loss.backward()
        shapes, seen, stack = set(), set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            shapes.add(node.shape)
            if node.grad is not None:
                shapes.add(np.shape(node.grad))
            stack.extend(node._parents)
        return shapes

    config = DetectorConfig(hidden1=8, hidden2=7, reduce_dim=4)
    shapes = tape_shapes(config)
    assert (5, config.hidden1) in shapes  # the walk reaches the hidden weight
    assert (b, n, config.hidden1) not in shapes
    assert (b, n, config.hidden2) not in shapes
    degree_only = tape_shapes(DetectorConfig(hidden1=8, hidden2=7,
                                             reduce_dim=4,
                                             use_feature_branch=False))
    assert (config.hidden1,) in degree_only  # the walk reaches its bias
    assert not any(len(shape) == 3 for shape in degree_only)


def test_training_epochs_reuse_the_planned_graph_terms(monkeypatch):
    # Â, its pool weights and the degree sort are made once per chunk: after
    # planning, no epoch normalizes an adjacency or pools one again.
    rng = np.random.default_rng(20)
    graphs = [random_graph(rng, n, 3, label=i % 2,
                           provenance=A if i % 2 else N)
              for i, n in enumerate((3, 5, 4, 6, 5, 3))]
    calls = {"planned": False, "during": 0, "after": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["after" if calls["planned"] else "during"] += 1
            return fn(*args, **kwargs)
        return wrapper

    plan_chunks = detector_module._plan_chunks

    def plan_then_flag(*args, **kwargs):
        chunks = plan_chunks(*args, **kwargs)
        calls["planned"] = True
        return chunks

    monkeypatch.setattr(detector_module, "_plan_chunks", plan_then_flag)
    for module, name in ((detector_module, "normalize_adjacency"),
                         (detector_module, "masked_mean_pool"),
                         (gcn_module, "normalize_adjacency"),
                         (gcn_module, "masked_mean_pool")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    _, trace = train_detector(graphs, TOY, TrainConfig(epochs=3, chunk_size=2),
                              np.random.default_rng(0))
    assert calls["planned"] and len(trace) == 3
    assert calls["during"] > 0  # the counters see the planning
    assert calls["after"] == 0


def test_non_finite_chunk_loss_stops_training(monkeypatch):
    rng = np.random.default_rng(22)
    graphs = [random_graph(rng, n, 3, label=i % 2,
                           provenance=A if i % 2 else N)
              for i, n in enumerate((3, 5, 4, 6))]
    objective = detector_module.weighted_nll

    def diverging(*args):
        return objective(*args) * np.nan

    monkeypatch.setattr(detector_module, "weighted_nll", diverging)
    with pytest.raises(TrainingDivergedError, match="epoch 0"):
        train_detector(graphs, TOY, TrainConfig(epochs=2, chunk_size=2),
                       np.random.default_rng(0))


def test_planned_chunks_hold_no_padded_batch():
    # Training reads a chunk's plans only, so a chunk must not keep its
    # padded batch, or any (B, w, w) adjacency, alive through every epoch.
    rng = np.random.default_rng(21)
    graphs = [random_graph(rng, n, 3, label=i % 2,
                           provenance=A if i % 2 else N)
              for i, n in enumerate((4, 6, 5, 7, 6, 5, 4))]
    params = init_detector(3, TOY, rng)
    chunks = detector_module._plan_chunks(graphs, 3, params)
    pool_shapes = set()
    seen, stack = set(), list(chunks)
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        assert not isinstance(item, PaddedBatch)
        if isinstance(item, np.ndarray):
            assert not (item.ndim == 3 and item.shape[1] == item.shape[2]), \
                item.shape
        elif isinstance(item, Tensor):
            stack.extend([item.data, item.grad, *item._parents])
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif dataclasses.is_dataclass(item):
            stack.extend(getattr(item, f.name)
                         for f in dataclasses.fields(item))
            if hasattr(item, "pool"):
                pool_shapes.add(item.pool.shape)
    # the walk reached every chunk's plans: one pool shape per chunk width
    assert pool_shapes == {(3, 1, 5), (3, 1, 6), (1, 1, 7)}


def test_scores_are_probabilities():
    rng = np.random.default_rng(7)
    _, batch = _toy_batch(rng, b=5)
    params = init_detector(5, TOY, rng)
    s = detector_scores(params, plan_branches(params, batch)).data
    assert s.shape == (5,)
    assert np.all((s > 0) & (s < 1))


def test_score_permutation_invariance():
    rng = np.random.default_rng(8)
    params = init_detector(4, TOY, rng)
    for trial in range(5):
        g = random_graph(rng, 6, 4)
        perm = rng.permutation(6)
        permuted = make_graph(g.adjacency[np.ix_(perm, perm)],
                              g.node_features[perm], g.label, g.provenance)
        a = predict_scores(params, [g])
        b = predict_scores(params, [permuted])
        assert abs(a[0] - b[0]) < 1e-8


def test_end_to_end_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    graphs = [connected_random_graph(rng, int(rng.integers(3, 6)), 4,
                                     label=lab, provenance=prov)
              for lab, prov in ((0, N), (1, A), (1, G), (0, N))]
    batch = pad_batch(graphs, 5)
    labels = np.array([g.label for g in graphs])
    prov = [g.provenance for g in graphs]
    params = init_detector(4, DetectorConfig(hidden1=5, hidden2=4,
                                             reduce_dim=3), rng)
    plans = plan_branches(params, batch)

    def loss():
        scores = detector_scores(params, plans)
        value, _ = composite_loss(scores, labels, prov, beta=1.2)
        return value

    assert_grads_close(loss, params.trainables())


def test_train_detector_learns_separable_data():
    rng = np.random.default_rng(10)
    graphs = []
    for i in range(10):
        n = int(rng.integers(5, 8))
        graphs.append(make_graph(ring_adjacency(n), np.ones((n, 2)), 0, N))
    for i in range(6):
        n = int(rng.integers(5, 8))
        graphs.append(make_graph(np.ones((n, n)) - np.eye(n),
                                 np.ones((n, 2)), 1, A))
    # reduce_dim stays at 8 here: narrower toy heads can start with every
    # embedding dimension negative, parking the score on a dead ReLU
    config = DetectorConfig(hidden1=8, hidden2=6, reduce_dim=8)
    params, trace = train_detector(
        graphs, config, TrainConfig(epochs=60, lr=0.02, chunk_size=64),
        np.random.default_rng(0))
    assert len(trace) == 60 and np.isfinite(trace).all()
    assert trace[-1] < trace[0]
    scores = predict_scores(params, graphs)
    assert scores[10:].min() > scores[:10].max()  # classes fully separated


def test_training_is_deterministic_and_chunking_exact():
    rng = np.random.default_rng(11)
    graphs = [random_graph(rng, int(rng.integers(3, 7)), 3,
                           label=int(i >= 6), provenance=A if i >= 6 else N)
              for i in range(10)]
    config = DetectorConfig(hidden1=6, hidden2=4, reduce_dim=3)
    run = lambda chunk: train_detector(
        graphs, config, TrainConfig(epochs=8, lr=0.01, chunk_size=chunk),
        np.random.default_rng(1))
    params_a, trace_a = run(64)
    params_b, trace_b = run(64)
    assert trace_a == trace_b
    np.testing.assert_array_equal(params_a.reducer.weight.data,
                                  params_b.reducer.weight.data)
    params_c, trace_c = run(3)
    np.testing.assert_allclose(trace_a, trace_c, atol=1e-9)
    np.testing.assert_allclose(params_a.reducer.weight.data,
                               params_c.reducer.weight.data, atol=1e-9)


@pytest.mark.parametrize("include_normal,include_abnormal",
                         [(True, True), (True, False), (False, True)])
def test_training_optimizes_composite_loss(include_normal, include_abnormal):
    # chunks of 4 split the 11 graphs so that some chunks miss a partition
    rng = np.random.default_rng(14)
    graphs = [connected_random_graph(rng, int(rng.integers(3, 9)), 3,
                                     label=lab, provenance=prov)
              for lab, prov in [(0, N)] * 6 + [(1, A)] * 2 + [(1, G)] * 3]
    beta = 1.7
    _, trace = train_detector(
        graphs, TOY,
        TrainConfig(epochs=1, beta=beta, chunk_size=4,
                    include_normal_term=include_normal,
                    include_abnormal_term=include_abnormal),
        np.random.default_rng(3))
    params = init_detector(3, TOY, np.random.default_rng(3))
    scores = detector_scores(params, plan_branches(
        params, pad_batch(graphs, max(g.num_nodes for g in graphs))))
    loss, _ = composite_loss(scores, [g.label for g in graphs],
                             [g.provenance for g in graphs], beta,
                             include_normal=include_normal,
                             include_abnormal=include_abnormal)
    assert abs(trace[0] - float(loss.data)) < 1e-9


def test_predict_scores_restores_input_order():
    rng = np.random.default_rng(12)
    graphs = [random_graph(rng, n, 3) for n in (7, 3, 5, 4, 6)]
    params = init_detector(3, TOY, rng)
    chunked = predict_scores(params, graphs, chunk_size=2)
    batch = pad_batch(graphs, 7)
    direct = detector_scores(params, plan_branches(params, batch)).data
    np.testing.assert_allclose(chunked, direct, atol=1e-12)
    assert predict_scores(params, []).shape == (0,)


class _FlagRecorder(Tensor):
    """A parameter that logs every assignment to ``requires_grad``."""

    assignments: list = []

    def __setattr__(self, name, value):
        if name == "requires_grad":
            _FlagRecorder.assignments.append(value)
        super().__setattr__(name, value)


@pytest.mark.parametrize("adaptive", [True, False])
def test_predict_scores_leaves_parameter_flags_alone(adaptive):
    rng = np.random.default_rng(14)
    graphs = [random_graph(rng, n, 3) for n in (5, 3, 6)]
    config = DetectorConfig(hidden1=8, hidden2=6, reduce_dim=4,
                            use_adaptive_weighting=adaptive)
    params = init_detector(3, config, rng)
    expected = predict_scores(params, graphs)
    for layer in params.feature_branch + params.degree_branch:
        layer.weight = _FlagRecorder(layer.weight.data, requires_grad=True)
        layer.bias = _FlagRecorder(layer.bias.data, requires_grad=True)
    for holder, name in ((params.reducer, "weight"), (params.reducer, "bias"),
                         (params, "adaptive_weight"), (params, "head_weight"),
                         (params, "head_bias")):
        setattr(holder, name, _FlagRecorder(getattr(holder, name).data,
                                            requires_grad=True))
    _FlagRecorder.assignments.clear()
    got = predict_scores(params, graphs)
    assert _FlagRecorder.assignments == []
    np.testing.assert_array_equal(got, expected)
    assert all(t.requires_grad for t in params.trainables())


# the version-2 checkpoint layout: npz keys in order, and the meta config keys
_V2_TAIL = ["reducer_weight", "reducer_bias", "adaptive_weight", "head_weight",
            "head_bias", "meta_json"]
_V2_KEYS = {
    "full": [f"{branch}{i}_{part}" for branch in ("feature", "degree")
             for i in range(2) for part in ("weight", "bias")] + _V2_TAIL,
    "no_gcn_d": [f"feature{i}_{part}" for i in range(2)
                 for part in ("weight", "bias")] + _V2_TAIL,
    "no_gcn_x": [f"degree{i}_{part}" for i in range(2)
                 for part in ("weight", "bias")] + _V2_TAIL,
}
_V2_CONFIG_KEYS = ["hidden1", "hidden2", "reduce_dim",
                   "use_adaptive_weighting", "use_degree_branch",
                   "use_feature_branch"]


def test_checkpoint_roundtrip(tmp_path):
    import json

    rng = np.random.default_rng(13)
    for variant, keys in _V2_KEYS.items():
        config = dataclasses.replace(
            TOY, use_feature_branch=variant != "no_gcn_x",
            use_degree_branch=variant != "no_gcn_d")
        params = init_detector(5, config, rng)
        path = tmp_path / f"{variant}.npz"
        save_checkpoint(path, params, extra={"fold": 3, "auc": 0.91})
        with np.load(path) as archive:
            assert archive.files == keys
            meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
        assert meta["format_version"] == 2
        assert sorted(meta["config"]) == _V2_CONFIG_KEYS
        loaded, extra = load_checkpoint(path)
        assert extra == {"fold": 3, "auc": 0.91}
        assert loaded.config == params.config
        for a, b in zip(params.trainables(), loaded.trainables()):
            np.testing.assert_array_equal(a.data, b.data)
        graphs = [random_graph(rng, 4, 5)]
        np.testing.assert_allclose(predict_scores(params, graphs),
                                   predict_scores(loaded, graphs), atol=1e-15)


def _saved_checkpoint(tmp_path):
    path = tmp_path / "detector.npz"
    save_checkpoint(path, init_detector(3, TOY, np.random.default_rng(14)))
    return path


def test_checkpoint_version_guard(tmp_path):
    path = _saved_checkpoint(tmp_path)
    for version in (1, 99):
        rewrite_checkpoint(
            path, lambda arrays, meta: meta.update(format_version=version))
        with pytest.raises(ConfigError,
                           match=f"unsupported checkpoint version {version}"):
            load_checkpoint(path)


@pytest.mark.parametrize("edit,message", [
    (lambda arrays, meta: meta["config"].update(threshold=0.5),
     "checkpoint config must hold exactly"),
    (lambda arrays, meta: arrays.pop("degree1_bias"),
     "'degree1_bias': shape None in the file, (6,) for its config"),
    (lambda arrays, meta: arrays.update(
        head_weight=np.zeros((TOY.reduce_dim + 1, 1))),
     "'head_weight': shape (5, 1) in the file, (4, 1) for its config"),
    (lambda arrays, meta: meta.pop("extra"),
     "checkpoint meta is unreadable: KeyError('extra')"),
    (lambda arrays, meta: meta["config"].update(hidden1="8"),
     "checkpoint config 'hidden1' must be of type int, got '8'"),
    (lambda arrays, meta: meta["config"].update(hidden1=8.0),
     "checkpoint config 'hidden1' must be of type int, got 8.0"),
    (lambda arrays, meta: meta["config"].update(hidden1=True),
     "checkpoint config 'hidden1' must be of type int, got True"),
    (lambda arrays, meta: meta["config"].update(use_feature_branch="no"),
     "checkpoint config 'use_feature_branch' must be of type bool, got 'no'"),
], ids=["unknown_config_key", "missing_array", "misshapen_array",
        "meta_without_extra", "string_width", "float_width", "bool_width",
        "string_switch"])
def test_malformed_checkpoint_is_rejected(edit, message, tmp_path):
    path = _saved_checkpoint(tmp_path)
    rewrite_checkpoint(path, edit)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_checkpoint(path)


def _write_object_array(path):
    np.savez(path, meta_json=np.array([{"format_version": 2}], dtype=object))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:100])


def _write_one_array(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


@pytest.mark.parametrize("corrupt,message", [
    (lambda path: path.write_bytes(b"not a checkpoint\n"), "pickled"),
    (lambda path: path.write_bytes(b""), "No data left in file"),
    (_write_object_array, "Object arrays cannot be loaded"),
    (_truncate, "File is not a zip file"),
    (_write_one_array, "not an npz archive"),
], ids=["not_a_zip", "empty", "object_array", "truncated", "one_array"])
def test_corrupt_checkpoint_is_a_named_error(corrupt, message, tmp_path):
    path = _saved_checkpoint(tmp_path)
    corrupt(path)
    with pytest.raises(ConfigError, match=rf"checkpoint {re.escape(str(path))}"
                       rf" is unreadable: .*{message}"):
        load_checkpoint(path)
