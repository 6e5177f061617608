"""Graph container, padding, and stratified-split behavior."""

from __future__ import annotations

import numpy as np
import pytest

from gladcf.errors import ConfigError, SizeError
from gladcf.graphs import (Graph, GraphDataset, Provenance, make_graph,
                           padded_chunks, pad_batch, stratified_kfold)

from util import path_adjacency, random_graph


def test_graph_validation():
    good = make_graph(path_adjacency(3), np.zeros((3, 2)), 0,
                      Provenance.ORIGINAL_NORMAL)
    assert good.num_nodes == 3 and good.feature_dim == 2
    np.testing.assert_array_equal(good.degrees, [1.0, 2.0, 1.0])

    with pytest.raises(SizeError):
        make_graph(np.zeros((2, 3)), np.zeros((2, 2)), 0,
                   Provenance.ORIGINAL_NORMAL)
    for bad in (0.5, np.nan):
        with pytest.raises(ConfigError, match="0 or 1"):
            make_graph(np.full((2, 2), bad), np.zeros((2, 1)), 0,
                       Provenance.ORIGINAL_NORMAL)
    # -0.0 equals 0.0, so it passes the binary check
    assert not make_graph(np.full((2, 2), -0.0), np.zeros((2, 1)), 0,
                          Provenance.ORIGINAL_NORMAL).adjacency.any()
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConfigError):
        make_graph(asym, np.zeros((2, 1)), 0, Provenance.ORIGINAL_NORMAL)
    with pytest.raises(ConfigError):
        make_graph(np.eye(2), np.zeros((2, 1)), 0, Provenance.ORIGINAL_NORMAL)
    with pytest.raises(SizeError):
        make_graph(path_adjacency(3), np.zeros((2, 1)), 0,
                   Provenance.ORIGINAL_NORMAL)
    with pytest.raises(ConfigError):
        make_graph(path_adjacency(3), np.zeros((3, 1)), 7,
                   Provenance.ORIGINAL_NORMAL)
    for bad in (np.nan, np.inf, -np.inf):
        features = np.zeros((3, 2))
        features[1, 0] = bad
        with pytest.raises(ConfigError, match="finite"):
            make_graph(path_adjacency(3), features, 0,
                       Provenance.ORIGINAL_NORMAL)


def test_a_graph_needs_at_least_one_node():
    # no TU file holds a graph with no nodes, so no Graph is one, and no
    # readout has an empty graph to score
    for build in (Graph, make_graph):
        with pytest.raises(SizeError, match="at least one node"):
            build(np.zeros((0, 0)), np.zeros((0, 3)), 0,
                  Provenance.ORIGINAL_NORMAL)


def test_graph_derives_its_degrees_from_the_adjacency():
    adjacency = path_adjacency(4)
    features = np.arange(8.0).reshape(4, 2)
    g = Graph(adjacency, features, 1, Provenance.ORIGINAL_ABNORMAL)
    made = make_graph(adjacency, features, 1, Provenance.ORIGINAL_ABNORMAL)
    for name in ("adjacency", "node_features", "degrees"):
        np.testing.assert_array_equal(getattr(g, name), getattr(made, name))
    assert (g.label, g.provenance, g.node_labels) == (
        made.label, made.provenance, made.node_labels)
    np.testing.assert_array_equal(g.degrees, adjacency.sum(axis=1))
    with pytest.raises(ValueError):
        g.degrees[0] = 0.0
    with pytest.raises(TypeError):
        Graph(adjacency, features, 1, Provenance.ORIGINAL_ABNORMAL,
              degrees=np.zeros(4))


def test_graph_arrays_are_immutable():
    g = make_graph(path_adjacency(3), np.zeros((3, 1)), 0,
                   Provenance.ORIGINAL_NORMAL)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0.0
    with pytest.raises(ValueError):
        g.node_features[0, 0] = 1.0


def test_with_features_matches_a_fully_checked_graph():
    rng = np.random.default_rng(3)
    g = make_graph(path_adjacency(4), np.zeros((4, 0)), 1,
                   Provenance.ORIGINAL_ABNORMAL, node_labels=[3, 1, 4, 1])
    feats = rng.normal(size=(4, 2))
    rebuilt = g.with_features(feats)
    full = Graph(adjacency=g.adjacency, node_features=feats,
                 label=g.label, provenance=g.provenance,
                 node_labels=g.node_labels)
    for name in ("adjacency", "node_features", "degrees", "node_labels"):
        np.testing.assert_array_equal(getattr(rebuilt, name),
                                      getattr(full, name))
    assert (rebuilt.label, rebuilt.provenance) == (full.label, full.provenance)
    assert rebuilt.adjacency is g.adjacency  # shared, not re-checked
    assert g.feature_dim == 0  # the original is untouched
    with pytest.raises(ValueError):
        rebuilt.node_features[0, 0] = 1.0
    with pytest.raises(ConfigError, match="finite"):
        g.with_features(np.full((4, 2), np.nan))
    for bad in (np.zeros((3, 2)), np.zeros(4)):
        with pytest.raises(SizeError, match="4 rows"):
            g.with_features(bad)


def test_dataset_consistency_checks():
    rng = np.random.default_rng(0)
    graphs = [random_graph(rng, 4, 3), random_graph(rng, 6, 3)]
    ds = GraphDataset(name="toy", graphs=tuple(graphs))
    assert ds.n_max == 6 and ds.feature_dim == 3 and len(ds) == 2
    with pytest.raises(ConfigError):
        GraphDataset(name="bad", graphs=(graphs[0], random_graph(rng, 4, 5)))
    with pytest.raises(SizeError):
        GraphDataset(name="small", graphs=tuple(graphs), n_max=5)


def test_dataset_counts():
    rng = np.random.default_rng(1)
    graphs = (
        random_graph(rng, 4, 2, label=0),
        random_graph(rng, 4, 2, label=1,
                     provenance=Provenance.ORIGINAL_ABNORMAL),
        random_graph(rng, 4, 2, label=1,
                     provenance=Provenance.ORIGINAL_ABNORMAL),
    )
    ds = GraphDataset(name="toy", graphs=graphs)
    assert [g.label for g in ds.graphs] == [0, 1, 1]
    assert ds[2].provenance is Provenance.ORIGINAL_ABNORMAL


def test_pad_batch_shapes_and_zero_padding():
    rng = np.random.default_rng(2)
    graphs = [random_graph(rng, 3, 2), random_graph(rng, 5, 2, label=1)]
    batch = pad_batch(graphs, n_max=6)
    assert batch.adjacency_stack.shape == (2, 6, 6)
    assert batch.feature_stack.shape == (2, 6, 2)
    assert batch.node_mask.shape == (2, 6)
    np.testing.assert_array_equal(batch.node_mask[0], [1, 1, 1, 0, 0, 0])
    assert np.all(batch.adjacency_stack[0, 3:, :] == 0)
    assert np.all(batch.adjacency_stack[0, :, 3:] == 0)
    assert np.all(batch.feature_stack[0, 3:, :] == 0)
    np.testing.assert_array_equal(batch.adjacency_stack[1, :5, :5],
                                  graphs[1].adjacency)


def test_pad_batch_errors_name_the_graph():
    rng = np.random.default_rng(3)
    graphs = [random_graph(rng, 3, 2), random_graph(rng, 8, 2)]
    with pytest.raises(SizeError, match="graph 1"):
        pad_batch(graphs, n_max=6)


def test_pad_batch_empty():
    batch = pad_batch([], n_max=4)
    assert batch.size == 0
    assert batch.adjacency_stack.shape == (0, 4, 4)


def _toy_dataset(n_normal, n_abnormal, seed=0):
    rng = np.random.default_rng(seed)
    graphs = [random_graph(rng, int(rng.integers(3, 7)), 2, label=0)
              for _ in range(n_normal)]
    graphs += [random_graph(rng, int(rng.integers(3, 7)), 2, label=1,
                            provenance=Provenance.ORIGINAL_ABNORMAL)
               for _ in range(n_abnormal)]
    return GraphDataset(name="toy", graphs=tuple(graphs))


def test_stratified_kfold_partitions_and_ratio():
    ds = _toy_dataset(17, 8)
    labels = np.array([g.label for g in ds.graphs])
    folds = stratified_kfold(ds, k=5, seed=7)
    assert len(folds) == 5
    all_test = np.concatenate([test for _, test in folds])
    assert sorted(all_test.tolist()) == list(range(len(ds)))
    for train, test in folds:
        assert len(np.intersect1d(train, test)) == 0
        assert len(train) + len(test) == len(ds)
        # class ratio within one sample per class
        for cls, total in ((0, 17), (1, 8)):
            got = int((labels[test] == cls).sum())
            assert abs(got - total / 5) <= 1


def test_stratified_kfold_determinism():
    ds = _toy_dataset(10, 6)
    a = stratified_kfold(ds, k=3, seed=11)
    b = stratified_kfold(ds, k=3, seed=11)
    c = stratified_kfold(ds, k=3, seed=12)
    for (ta, sa), (tb, sb) in zip(a, b):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(sa, sb)
    assert any(not np.array_equal(sa, sc)
               for (_, sa), (_, sc) in zip(a, c))


def test_stratified_kfold_errors():
    ds = _toy_dataset(10, 6)
    with pytest.raises(ConfigError, match="k must be"):
        stratified_kfold(ds, k=1, seed=0)
    tiny = _toy_dataset(10, 2)
    with pytest.raises(ConfigError, match="class 1"):
        stratified_kfold(tiny, k=3, seed=0)
    rng = np.random.default_rng(5)
    polluted = GraphDataset(name="bad", graphs=ds.graphs + (
        random_graph(rng, 4, 2, label=1, provenance=Provenance.GENERATED),))
    with pytest.raises(ConfigError, match="GENERATED"):
        stratified_kfold(polluted, k=2, seed=0)


def test_size_chunks_order_by_size_then_index():
    rng = np.random.default_rng(6)
    sizes = [5, 3, 5, 2, 3, 7, 2, 2]
    graphs = [random_graph(rng, n, 1) for n in sizes]
    chunks = list(padded_chunks(graphs, 3))
    # [3, 6, 7] ends at the cap of 3 graphs; the other cuts come before a
    # graph wider than 5/4 of its chunk's first: 5 > 3.75 and 7 > 6.25
    assert [idx.tolist() for idx, _ in chunks] == [[3, 6, 7], [1, 4], [0, 2],
                                                   [5]]
    for idx, batch in chunks:
        assert batch.size == len(idx)
        assert batch.n_max == sizes[idx[-1]] == max(sizes[i] for i in idx)
        for row, i in enumerate(idx):
            n = sizes[i]
            np.testing.assert_array_equal(batch.adjacency_stack[row, :n, :n],
                                          graphs[i].adjacency)
    assert list(padded_chunks([], 3)) == []


def test_size_chunks_cut_only_at_the_cap_or_a_width_jump():
    rng = np.random.default_rng(7)
    for _ in range(200):
        sizes = rng.integers(1, 60, size=int(rng.integers(1, 40))).tolist()
        chunk_size = int(rng.integers(1, 12))
        graphs = [make_graph(np.zeros((n, n)), np.zeros((n, 1)), 0,
                             Provenance.ORIGINAL_NORMAL) for n in sizes]
        chunks = list(padded_chunks(graphs, chunk_size))
        runs = [idx.tolist() for idx, _ in chunks]
        flat = [i for run in runs for i in run]
        assert flat == sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
        for run, (_, batch) in zip(runs, chunks):
            assert 1 <= len(run) <= chunk_size
            assert batch.n_max == max(sizes[i] for i in run)
            assert 4 * batch.n_max <= 5 * sizes[run[0]]
        for run, following in zip(runs, runs[1:]):
            assert (len(run) == chunk_size
                    or 4 * sizes[following[0]] > 5 * sizes[run[0]])
