"""Counterfactual generation: rewrite ops, training loss, sample integrity."""

from __future__ import annotations

import numpy as np
import pytest

import gladcf.autodiff as ad
from gladcf import augment
from gladcf.autodiff import Tensor
from gladcf.augment import (AugmentConfig, PerturbationPair, augment_training_set,
                            counterfactual_loss, generate_samples,
                            init_perturbation_pair, make_probe, mask_features,
                            perturb_structure, plan_seeds, select_seeds,
                            train_perturbations)
from gladcf.errors import ConfigError, SizeError, TrainingDivergedError
from gladcf.graphs import Provenance, pad_batch

from util import assert_grads_close, random_adjacency, random_graph


def _pair(n, h, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return PerturbationPair(
        edge_logits=Tensor(rng.normal(scale=scale, size=(n, n)),
                           requires_grad=True),
        mask_logits=Tensor(rng.normal(scale=scale, size=(n, h)),
                           requires_grad=True))


def test_zero_logits_give_fully_connected_hard_output():
    # sigmoid(0 @ A) = 0.5 everywhere and the threshold is inclusive, so the
    # hard rewrite of any graph under zero logits is the complete graph.
    pair = PerturbationPair(edge_logits=Tensor(np.zeros((4, 4))),
                            mask_logits=Tensor(np.zeros((4, 2))))
    adj = random_adjacency(np.random.default_rng(0), 4)
    hard = perturb_structure(pair, adj, sigma=0.5)
    np.testing.assert_array_equal(hard, np.ones((4, 4)) - np.eye(4))


def test_high_threshold_gives_empty_graph():
    pair = _pair(4, 2)
    adj = random_adjacency(np.random.default_rng(1), 4)
    assert np.all(perturb_structure(pair, adj, sigma=1.0 - 1e-9) == 0.0)


def test_hard_output_is_binary_symmetric_hollow():
    rng = np.random.default_rng(2)
    for seed in range(5):
        pair = _pair(5, 3, seed=seed, scale=2.0)
        adj = random_adjacency(rng, 5)
        hard = perturb_structure(pair, adj, sigma=0.5)
        assert np.isin(hard, (0.0, 1.0)).all()
        np.testing.assert_array_equal(hard, hard.T)
        np.testing.assert_array_equal(np.diag(hard), np.zeros(5))


def test_smooth_rewrite_is_as_wide_as_the_chunk():
    # with or without a threshold, a chunk narrower than n_max gets the
    # (B, w, w) rewrite from the logits' leading w rows and columns
    rng = np.random.default_rng(12)
    pair = _pair(7, 2, seed=13)
    adj = np.stack([random_adjacency(rng, 4) for _ in range(3)])
    smooth = perturb_structure(pair, adj)
    assert smooth.shape == (3, 4, 4)
    want = ad.sigmoid(Tensor(pair.edge_logits.data[:4, :4] @ adj)).data
    np.testing.assert_array_equal(smooth.data, want)
    assert perturb_structure(pair, adj, sigma=0.5).shape == (3, 4, 4)


def test_smooth_matches_indicator_in_saturation_limit():
    # Scaling the logits by a large constant drives the smooth surrogate onto
    # the thresholded indicator (before the symmetrize/zero-diagonal step that
    # only the hard structure path applies).
    rng = np.random.default_rng(3)
    pair = _pair(5, 3, seed=4)
    adj = random_adjacency(rng, 5)
    saturated = PerturbationPair(
        edge_logits=Tensor(pair.edge_logits.data * 1e4),
        mask_logits=Tensor(pair.mask_logits.data * 1e4))
    smooth = perturb_structure(saturated, adj).data
    indicator = (ad.sigmoid(Tensor(pair.edge_logits.data @ adj)).data
                 >= 0.5).astype(float)
    assert np.max(np.abs(smooth - indicator)) < 1e-6
    # feature masking has no post-step, so there the limit matches end-to-end
    feats = rng.random((5, 3))
    smooth_feats = mask_features(saturated, feats).data
    hard_feats = mask_features(pair, feats, tau=0.5)
    assert np.max(np.abs(smooth_feats - hard_feats)) < 1e-6


def test_masked_features_keep_original_values():
    rng = np.random.default_rng(5)
    pair = _pair(6, 4, seed=6, scale=2.0)
    feats = rng.random((6, 4))
    hard = mask_features(pair, feats, tau=0.5)
    kept = hard != 0.0
    np.testing.assert_array_equal(hard[kept], feats[kept])
    gate = 1.0 / (1.0 + np.exp(-pair.mask_logits.data))
    np.testing.assert_array_equal(kept, gate >= 0.5)


def test_threshold_validation():
    with pytest.raises(ConfigError):
        AugmentConfig(sigma=0.0)
    with pytest.raises(ConfigError):
        AugmentConfig(tau=1.5)


# -- independent recomputation of the training loss -------------------------


def _numpy_probe(weight, bias, feats, adj, mask):
    """Plain-numpy replay of the probe: conv, mean pool, softmax."""
    b, n, _ = adj.shape
    eye = np.zeros((b, n, n))
    idx = np.arange(n)
    eye[:, idx, idx] = mask
    a = adj + eye
    deg = a.sum(axis=-1)
    deg = np.where(deg > 0, deg, 1.0)
    scale = 1.0 / np.sqrt(deg)
    a_hat = a * scale[:, :, None] * scale[:, None, :]
    h = a_hat @ (feats @ weight) + bias
    h = h * mask[:, :, None]
    counts = np.maximum(mask.sum(axis=1), 1.0)
    pooled = (h * mask[:, :, None]).sum(axis=1) / counts[:, None]
    e = np.exp(pooled - pooled.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _numpy_counterfactual_loss(pair, probe, adj, feats, mask):
    """Term-by-term recomputation used as the conformance oracle."""
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    w, b = probe.weight.data, probe.bias.data
    smooth_adj = sig(pair.edge_logits.data @ adj)
    gate = sig(pair.mask_logits.data)
    smooth_feats = gate * feats
    structure_dist = np.sqrt(((adj - smooth_adj) ** 2).sum(axis=(-2, -1)))
    gate_norm = np.sqrt((gate ** 2).sum())
    closeness = structure_dist - gate_norm

    p = _numpy_probe(w, b, feats, adj, mask)
    p_a = _numpy_probe(w, b, feats, smooth_adj, mask)
    p_b = _numpy_probe(w, b, smooth_feats, adj, mask)
    floor = 1e-12

    def kl(p_row, q_row):
        p_row = np.maximum(p_row, floor)
        q_row = np.clip(q_row, floor, 1.0)
        return (p_row * (np.log(p_row) - np.log(q_row))).sum(axis=-1)

    divergence = kl(p, p_a) + kl(p, p_b)
    return float(np.mean(closeness - divergence))


def test_loss_matches_independent_recomputation():
    rng = np.random.default_rng(7)
    for case in range(8):
        n = int(rng.integers(2, 6))
        h = int(rng.integers(1, 4))
        batch = int(rng.integers(1, 4))
        pair = _pair(n, h, seed=100 + case, scale=1.5)
        probe = make_probe(h, np.random.default_rng(200 + case))
        adj = np.stack([random_adjacency(rng, n) for _ in range(batch)])
        feats = rng.random((batch, n, h))
        mask = np.ones((batch, n))
        loss, _ = counterfactual_loss(pair, probe,
                                      plan_seeds(probe, adj, feats, mask))
        expected = _numpy_counterfactual_loss(pair, probe, adj, feats, mask)
        assert abs(float(loss.data) - expected) < 1e-9


def test_loss_gradients_match_finite_differences():
    # the edge logits reach the loss through the probe's soft Â, its
    # normalization and its pool weights: the one differentiable adjacency
    rng = np.random.default_rng(8)
    n, h, batch = 4, 2, 2
    pair = _pair(n, h, seed=9)
    probe = make_probe(h, np.random.default_rng(10))
    adj = np.stack([random_adjacency(rng, n) for _ in range(batch)])
    feats = rng.random((batch, n, h))
    chunk = plan_seeds(probe, adj, feats, np.ones((batch, n)))

    def loss():
        value, _ = counterfactual_loss(pair, probe, chunk)
        return value

    assert_grads_close(loss, pair.trainables())


def test_loss_at_own_width_equals_loss_at_n_max():
    # The two cut-off constants stand in exactly for the columns past w.
    rng = np.random.default_rng(22)
    graphs = [random_graph(rng, n, 3) for n in (3, 6, 4, 5)]
    pair = _pair(9, 3, seed=23, scale=1.5)
    probe = make_probe(3, np.random.default_rng(24))
    results = []
    for width in (6, 9):
        batch = pad_batch(graphs, width)
        pair.edge_logits.zero_grad()
        pair.mask_logits.zero_grad()
        loss, _ = counterfactual_loss(pair, probe, plan_seeds(
            probe, batch.adjacency_stack, batch.feature_stack,
            batch.node_mask))
        loss.backward()
        results.append((float(loss.data), pair.edge_logits.grad.copy(),
                        pair.mask_logits.grad.copy()))
    (own, edge_own, mask_own), (full, edge_full, mask_full) = results
    assert abs(own - full) < 1e-12
    np.testing.assert_allclose(edge_own, edge_full, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mask_own, mask_full, rtol=0, atol=1e-12)


def test_probe_is_frozen_and_seeded():
    probe_a = make_probe(3, np.random.default_rng(11))
    probe_b = make_probe(3, np.random.default_rng(11))
    np.testing.assert_array_equal(probe_a.weight.data, probe_b.weight.data)
    assert not probe_a.weight.requires_grad
    chunk = plan_seeds(probe_a, np.zeros((2, 4, 4)),
                       np.random.random((2, 4, 3)), np.ones((2, 4)))
    np.testing.assert_allclose(chunk.original.sum(axis=-1), 1.0)
    dist = augment._distribution(probe_a, chunk.pool, chunk.feature_stack)
    np.testing.assert_array_equal(dist.data, chunk.original)
    assert dist._backward is None  # nothing trainable in the tape


def test_select_seeds():
    rng = np.random.default_rng(12)
    graphs = [random_graph(rng, 4, 2, label=0) for _ in range(8)]
    graphs += [random_graph(rng, 4, 2, label=1,
                            provenance=Provenance.ORIGINAL_ABNORMAL)
               for _ in range(3)]
    idx, minority = select_seeds(graphs, np.random.default_rng(0))
    assert minority == 1 and len(idx) == 5
    assert all(graphs[i].label == 0 for i in idx)
    assert len(np.unique(idx)) == len(idx)  # without replacement
    again, _ = select_seeds(graphs, np.random.default_rng(0))
    np.testing.assert_array_equal(idx, again)
    oversample, _ = select_seeds(graphs, np.random.default_rng(1), count=12)
    assert len(oversample) == 12  # with replacement beyond the pool size
    with pytest.raises(ConfigError, match="count must be non-negative, got -1"):
        select_seeds(graphs, np.random.default_rng(0), count=-1)


def test_select_seeds_balanced_gives_nothing():
    rng = np.random.default_rng(13)
    graphs = [random_graph(rng, 4, 2, label=i % 2,
                           provenance=Provenance.ORIGINAL_ABNORMAL if i % 2
                           else Provenance.ORIGINAL_NORMAL)
              for i in range(6)]
    idx, _ = select_seeds(graphs, np.random.default_rng(0))
    assert len(idx) == 0


def test_train_perturbations_runs_and_is_deterministic():
    rng = np.random.default_rng(14)
    seeds = [random_graph(rng, int(rng.integers(3, 6)), 3) for _ in range(6)]
    config = AugmentConfig(epochs=12, lr=0.05, chunk_size=4)
    pair_a, trace_a = train_perturbations(
        seeds, 6, config, np.random.default_rng(42))
    pair_b, trace_b = train_perturbations(
        seeds, 6, config, np.random.default_rng(42))
    assert len(trace_a) == 12 and np.isfinite(trace_a).all()
    np.testing.assert_array_equal(pair_a.edge_logits.data,
                                  pair_b.edge_logits.data)
    assert trace_a == trace_b
    # training moved the logits and lowered the objective
    fresh = init_perturbation_pair(6, 3, np.random.default_rng(42))
    assert not np.array_equal(pair_a.edge_logits.data, fresh.edge_logits.data)
    assert trace_a[-1] < trace_a[0]


def test_train_perturbations_chunking_matches_single_batch():
    # equal sizes, then mixed sizes: chunk widths 3..8 inside n_max = 10
    rng = np.random.default_rng(15)
    equal = [random_graph(rng, 4, 2) for _ in range(6)]
    mixed = [random_graph(rng, int(rng.integers(3, 9)), 2) for _ in range(9)]
    for seeds, n_max in ((equal, 5), (mixed, 10)):
        chunked = train_perturbations(
            seeds, n_max, AugmentConfig(epochs=5, lr=0.05, chunk_size=2),
            np.random.default_rng(7))
        whole = train_perturbations(
            seeds, n_max, AugmentConfig(epochs=5, lr=0.05, chunk_size=64),
            np.random.default_rng(7))
        for a, b in zip(chunked[0].trainables(), whole[0].trainables()):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(chunked[1], whole[1], rtol=0, atol=1e-12)


def test_augmenter_epochs_reuse_the_planned_seed_terms(monkeypatch):
    # The original adjacency's normalization and pool weights are planned
    # once per chunk; after that, each epoch normalizes and pools only the
    # smooth-rewired adjacency, once per chunk.
    rng = np.random.default_rng(28)
    seeds = [random_graph(rng, n, 3) for n in (3, 5, 4, 6, 5, 3)]
    calls = {"normalize_adjacency": 0, "masked_mean_pool": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(augment, name,
                            counted(name, getattr(augment, name)))
    # sizes 3, 3 | 4, 5, 5 | 6: the cap of 4 never binds, but 4 > 5/4 of 3
    # and 6 > 5/4 of 4 each start a chunk
    epochs, chunks = 3, 3
    train_perturbations(seeds, 7, AugmentConfig(epochs=epochs, chunk_size=4),
                        np.random.default_rng(0))
    per_chunk = 1 + epochs  # the plan, then one per epoch
    assert calls == {"normalize_adjacency": chunks * per_chunk,
                     "masked_mean_pool": chunks * per_chunk}


def test_seed_wider_than_n_max_is_rejected():
    rng = np.random.default_rng(29)
    graphs = [random_graph(rng, n, 2) for n in (3, 6, 4)]
    with pytest.raises(SizeError, match="6 nodes"):
        train_perturbations(graphs, 5, AugmentConfig(epochs=1),
                            np.random.default_rng(0))
    with pytest.raises(SizeError, match="6 nodes"):
        generate_samples(_pair(5, 2), graphs, np.array([0, 1, 2]), 1,
                         AugmentConfig(chunk_size=2))


def test_non_finite_chunk_loss_stops_training(monkeypatch):
    rng = np.random.default_rng(30)
    seeds = [random_graph(rng, n, 2) for n in (3, 4, 5)]
    loss_fn = augment.counterfactual_loss

    def diverging(*args):
        loss, clamped = loss_fn(*args)
        return loss * np.nan, clamped

    monkeypatch.setattr(augment, "counterfactual_loss", diverging)
    with pytest.raises(TrainingDivergedError, match="epoch 0"):
        train_perturbations(seeds, 5, AugmentConfig(epochs=2),
                            np.random.default_rng(0))


def test_train_requires_features_and_seeds():
    rng = np.random.default_rng(16)
    with pytest.raises(ConfigError, match="no seed graphs"):
        train_perturbations([], 4, AugmentConfig(), rng)
    bare = random_graph(rng, 3, 2)
    featureless = bare.__class__(
        adjacency=bare.adjacency, node_features=np.zeros((3, 0)),
        label=0, provenance=bare.provenance)
    with pytest.raises(ConfigError, match="features"):
        train_perturbations([featureless], 4, AugmentConfig(), rng)


def test_generate_samples_integrity():
    rng = np.random.default_rng(17)
    graphs = [random_graph(rng, int(rng.integers(3, 6)), 3, label=0)
              for _ in range(7)]
    graphs += [random_graph(rng, 4, 3, label=1,
                            provenance=Provenance.ORIGINAL_ABNORMAL)
               for _ in range(2)]
    pair = _pair(6, 3, seed=18, scale=1.5)
    idx, minority = select_seeds(graphs, np.random.default_rng(3))
    generated = generate_samples(pair, graphs, idx, minority,
                                 AugmentConfig(chunk_size=4))
    assert len(generated) == len(idx)
    for sample, seed_index in zip(generated, idx):
        seed = graphs[seed_index]
        assert sample.num_nodes == seed.num_nodes
        assert sample.label == minority
        assert sample.provenance is Provenance.GENERATED
        # adjacency validity (binary/symmetric/hollow) is enforced by Graph;
        # degrees must reflect the *new* structure
        np.testing.assert_array_equal(sample.degrees,
                                      sample.adjacency.sum(axis=1))
        kept = sample.node_features != 0.0
        np.testing.assert_array_equal(sample.node_features[kept],
                                      seed.node_features[kept])


def test_generated_sample_matches_manual_rewrite():
    # several size chunks; indices out of order and repeated
    rng = np.random.default_rng(26)
    graphs = [random_graph(rng, n, 3) for n in (5, 2, 7, 3, 7, 4)]
    pair = _pair(9, 3, seed=27, scale=2.0)
    indices = np.array([4, 1, 0, 5, 1, 2, 3])
    generated = generate_samples(pair, graphs, indices, 1,
                                 AugmentConfig(chunk_size=2))
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    keep = (sig(pair.mask_logits.data) >= 0.5).astype(float)
    assert len(generated) == len(indices)
    for sample, index in zip(generated, indices):
        seed = graphs[index]
        n = seed.num_nodes
        padded = np.zeros((9, 9))
        padded[:n, :n] = seed.adjacency
        hard = (sig(pair.edge_logits.data @ padded) >= 0.5).astype(float)
        hard = np.maximum(hard, hard.T)
        np.fill_diagonal(hard, 0.0)
        np.testing.assert_array_equal(sample.adjacency, hard[:n, :n])
        padded_feats = np.zeros((9, 3))
        padded_feats[:n] = seed.node_features
        np.testing.assert_array_equal(sample.node_features,
                                      (keep * padded_feats)[:n])


def test_generate_samples_applies_config_thresholds():
    # sigma = tau = 1 keeps no edge and no feature entry, since every
    # sigmoid is below 1; a threshold just above 0 keeps them all
    rng = np.random.default_rng(31)
    graphs = [random_graph(rng, n, 3) for n in (4, 6, 3, 5)]
    indices = np.array([0, 1, 2, 3])
    pair = _pair(6, 3, seed=32, scale=2.0)
    empty = generate_samples(pair, graphs, indices, 1,
                             AugmentConfig(sigma=1.0, tau=1.0, chunk_size=2))
    for sample in empty:
        assert not sample.adjacency.any()
        assert not sample.node_features.any()
    full = generate_samples(pair, graphs, indices, 1,
                            AugmentConfig(sigma=1e-12, tau=1e-12,
                                          chunk_size=2))
    for sample, seed in zip(full, graphs):
        n = seed.num_nodes
        np.testing.assert_array_equal(sample.adjacency,
                                      np.ones((n, n)) - np.eye(n))
        np.testing.assert_array_equal(sample.node_features,
                                      seed.node_features)


def test_augment_training_set_balances():
    rng = np.random.default_rng(21)
    graphs = [random_graph(rng, int(rng.integers(3, 6)), 3, label=0)
              for _ in range(9)]
    graphs += [random_graph(rng, int(rng.integers(3, 6)), 3, label=1,
                            provenance=Provenance.ORIGINAL_ABNORMAL)
               for _ in range(4)]
    result = augment_training_set(graphs, 6, AugmentConfig(epochs=5),
                                  np.random.default_rng(0))
    assert len(result.generated) == 5 and result.minority_label == 1
    combined = list(graphs) + result.generated
    labels = [g.label for g in combined]
    assert labels.count(0) == labels.count(1)
    even_split = graphs[:4] + graphs[9:]
    balanced = augment_training_set(even_split, 6, AugmentConfig(epochs=5),
                                    np.random.default_rng(0))
    assert balanced.generated == [] and balanced.loss_trace == []
