"""Detector checks: loss identities, weighting oracle, gradients, training."""

from __future__ import annotations

import numpy as np
import pytest

import gladcf.autodiff as ad
from gladcf.autodiff import Tensor
from gladcf.detector import (DetectorConfig, TrainConfig, adaptive_weighting,
                             composite_loss, decide, detector_scores,
                             fuse_features, init_detector, load_checkpoint,
                             partition_masks, predict_scores, save_checkpoint,
                             score, train_detector)
from gladcf.errors import ConfigError
from gladcf.graphs import GraphDataset, Provenance, make_graph, pad_batch
from util import (assert_grads_close, connected_random_graph, random_graph,
                  ring_adjacency)

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
    with pytest.raises(ConfigError):
        DetectorConfig(threshold=1.0)


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


def test_fuse_features_concat_order_and_padding():
    rng = np.random.default_rng(4)
    graphs, batch = _toy_batch(rng)
    params = init_detector(5, TOY, rng)
    fused = fuse_features(params, batch).data
    assert fused.shape == (3, 6, 12)
    # padded rows stay zero
    for i, g in enumerate(graphs):
        assert np.all(fused[i, g.num_nodes:, :] == 0.0)
    # the first half of the channels comes from the feature branch
    solo = init_detector(5, DetectorConfig(hidden1=8, hidden2=6, reduce_dim=4,
                                           use_degree_branch=False), rng)
    solo.feature_branch = params.feature_branch
    np.testing.assert_array_equal(fuse_features(solo, batch).data,
                                  fused[:, :, :6])


def test_adaptive_weighting_matches_numpy_replay():
    rng = np.random.default_rng(5)
    params = init_detector(5, TOY, rng)
    graphs, batch = _toy_batch(rng)
    fused = fuse_features(params, batch)
    got = adaptive_weighting(params, fused, batch.node_mask).data

    z = fused.data
    order = np.argsort(-np.abs(z).sum(axis=-1), axis=1, kind="stable")
    rows = np.take_along_axis(z, order[:, :, None], axis=1)
    mask = np.take_along_axis(batch.node_mask, order, axis=1)
    reduced = rows @ params.reducer.weight.data + params.reducer.bias.data
    weighted = reduced @ params.adaptive_weight.data
    counts = mask.sum(axis=1, keepdims=True)
    pooled = (weighted * mask[:, :, None]).sum(axis=1) / counts
    np.testing.assert_allclose(got, pooled, atol=1e-12)


def test_adaptive_weighting_bypass():
    rng = np.random.default_rng(6)
    config = DetectorConfig(hidden1=8, hidden2=6, reduce_dim=4,
                            use_adaptive_weighting=False)
    params = init_detector(5, config, rng)
    graphs, batch = _toy_batch(rng)
    fused = fuse_features(params, batch)
    got = adaptive_weighting(params, fused, batch.node_mask).data
    z = fused.data
    reduced = z @ params.reducer.weight.data + params.reducer.bias.data
    counts = batch.node_mask.sum(axis=1, keepdims=True)
    pooled = (reduced * batch.node_mask[:, :, None]).sum(axis=1) / counts
    np.testing.assert_allclose(got, pooled, atol=1e-12)
    assert params.adaptive_weight not in params.trainables()


def test_scores_are_probabilities():
    rng = np.random.default_rng(7)
    _, batch = _toy_batch(rng, b=5)
    params = init_detector(5, TOY, rng)
    s = detector_scores(params, batch).data
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

    def loss():
        scores = detector_scores(params, batch)
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
    scores = detector_scores(
        params, pad_batch(graphs, max(g.num_nodes for g in graphs)))
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
    direct = detector_scores(params, batch).data
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


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    params = init_detector(5, TOY, rng)
    path = tmp_path / "detector.npz"
    save_checkpoint(path, params, extra={"fold": 3, "auc": 0.91})
    loaded, extra = load_checkpoint(path)
    assert extra == {"fold": 3, "auc": 0.91}
    assert loaded.config == params.config
    for a, b in zip(params.trainables(), loaded.trainables()):
        np.testing.assert_array_equal(a.data, b.data)
    graphs = [random_graph(rng, 4, 5)]
    np.testing.assert_allclose(predict_scores(params, graphs),
                               predict_scores(loaded, graphs), atol=1e-15)


def test_checkpoint_version_guard(tmp_path):
    rng = np.random.default_rng(14)
    params = init_detector(3, TOY, rng)
    path = tmp_path / "detector.npz"
    save_checkpoint(path, params)
    import json

    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode())
    meta["format_version"] = 99
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ConfigError, match="version"):
        load_checkpoint(path)
