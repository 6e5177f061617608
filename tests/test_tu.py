"""TU-format parsing, error reporting, feature construction, and round-trips."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from gladcf.errors import ConfigError, SizeError, TuFormatError
from gladcf.graphs import Provenance, make_graph
from gladcf.tu import (FeatureConfig, FeatureMode, build_features,
                       dataset_stats, load_tu_dataset, write_tu_dataset)

from util import path_adjacency, random_adjacency, write_tu


def _triangle_plus_edge(tmp_path, labels=(1, 2)):
    # graph 1: triangle on nodes 1..3; graph 2: single edge on nodes 4..5
    write_tu(tmp_path, "TOY",
             graph_edges=[[(1, 2), (2, 1), (2, 3), (1, 3)], [(1, 2)]],
             graph_sizes=[3, 2], labels=list(labels))
    return tmp_path


def test_load_basic(tmp_path):
    graphs = load_tu_dataset(_triangle_plus_edge(tmp_path), name="TOY")
    assert len(graphs) == 2
    tri, edge = graphs
    assert tri.num_nodes == 3 and edge.num_nodes == 2
    np.testing.assert_array_equal(tri.adjacency,
                                  np.ones((3, 3)) - np.eye(3))
    np.testing.assert_array_equal(edge.adjacency,
                                  [[0.0, 1.0], [1.0, 0.0]])
    assert tri.label == 1 and tri.provenance is Provenance.ORIGINAL_ABNORMAL
    assert edge.label == 0 and edge.provenance is Provenance.ORIGINAL_NORMAL
    assert tri.feature_dim == 0  # features pending build_features


def test_anomaly_label_value_mapping(tmp_path):
    graphs = load_tu_dataset(_triangle_plus_edge(tmp_path, labels=(1, 2)),
                             name="TOY", anomaly_label_value=2)
    assert [g.label for g in graphs] == [0, 1]


def test_symmetrization_and_cleanup(tmp_path):
    # one-directional edge, duplicate edge, and a self-loop
    write_tu(tmp_path, "TOY",
             graph_edges=[[(1, 2), (1, 2), (2, 3), (3, 3)]],
             graph_sizes=[3], labels=[1])
    (g,) = load_tu_dataset(tmp_path, name="TOY")
    np.testing.assert_array_equal(g.adjacency, path_adjacency(3))


def test_load_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="TOY_graph_labels"):
        load_tu_dataset(tmp_path, name="TOY")

    _triangle_plus_edge(tmp_path)
    bad = tmp_path / "TOY_A.txt"
    bad.write_text("1, 2\nponies\n")
    with pytest.raises(TuFormatError, match="TOY_A.txt:2"):
        load_tu_dataset(tmp_path, name="TOY")
    bad.write_text("1, 2\n1, 99\n")
    with pytest.raises(TuFormatError, match="out of range"):
        load_tu_dataset(tmp_path, name="TOY")
    bad.write_text("1, 2\n3, 4\n")  # node 3 in graph 1, node 4 in graph 2
    with pytest.raises(TuFormatError, match="crosses graphs"):
        load_tu_dataset(tmp_path, name="TOY")
    bad.write_text("1, 2\n")
    indicator = tmp_path / "TOY_graph_indicator.txt"
    indicator.write_text("1\n1\n1\n1\n1\n")  # graph 2 loses all nodes
    with pytest.raises(TuFormatError, match="graph 2 has no nodes"):
        load_tu_dataset(tmp_path, name="TOY")
    indicator.write_text("1\n1\n7\n1\n1\n")
    with pytest.raises(TuFormatError, match="graph 7"):
        load_tu_dataset(tmp_path, name="TOY")


# (file, content, expected message) on the TOY set: graph 1 holds nodes 1..3,
# graph 2 holds nodes 4..5
MALFORMED = [
    ("A", "1, 2\nponies\n", "A.txt:2: expected 'u, v', got 'ponies'"),
    ("A", "1, 2\n1, pony\n", "A.txt:2: expected an integer, got 'pony'"),
    ("A", "1 2\n", "A.txt:1: expected 'u, v', got '1 2'"),
    ("A", "1, 2\n2, 3,\n", "A.txt:2: expected 'u, v', got '2, 3,'"),
    ("A", "1, 2.0\n", "A.txt:1: expected an integer, got '2.0'"),
    ("A", "1_000, 2\n", "A.txt:1: expected an integer, got '1_000'"),
    ("A", "1, 9223372036854775808\n",
     "A.txt:1: expected an integer, got '9223372036854775808'"),
    ("A", "1, 2\n1, 99\n", "A.txt:2: node id 99 out of range 1..5"),
    ("A", "0, 1\n", "A.txt:1: node id 0 out of range 1..5"),
    ("A", "1, 2\n3, 4\n", "A.txt:2: edge (3, 4) crosses graphs 1 and 2"),
    ("A", "1, 2\n1, 2\xe9\n", "A.txt:2: expected ASCII text, got byte 0xe9"),
    ("graph_indicator", "1\n1\n1\n1\n1\n",
     "graph_indicator.txt: graph 2 has no nodes"),
    ("graph_indicator", "1\n1\n7\n1\n1\n",
     "graph_indicator.txt:3: node assigned to graph 7, but only 2 graphs "
     "are declared"),
    ("graph_indicator", "1\n1\n0\n2\n2\n",
     "graph_indicator.txt:3: node assigned to graph 0"),
    ("graph_indicator", "1\n1\n-9223372036854775808\n2\n2\n",
     "graph_indicator.txt:3: node assigned to graph -9223372036854775808"),
    ("graph_indicator", "1\n1\n1\n2\n2.5\n",
     "graph_indicator.txt:5: expected an integer, got '2.5'"),
    ("graph_labels", "1\n1_000\n",
     "graph_labels.txt:2: expected an integer, got '1_000'"),
    ("graph_labels", "1\n1, 2\n",
     "graph_labels.txt:2: expected an integer, got '1, 2'"),
]


@pytest.mark.parametrize("suffix,content,message", MALFORMED)
def test_malformed_file_names_its_line(tmp_path, suffix, content, message):
    _triangle_plus_edge(tmp_path)
    (tmp_path / f"TOY_{suffix}.txt").write_bytes(content.encode("latin-1"))
    with pytest.raises(TuFormatError, match=re.escape(f"TOY_{message}")):
        load_tu_dataset(tmp_path, name="TOY")


@pytest.mark.parametrize("content,message", [
    ("1, 2\n3, 4\n1, 99\n", "A.txt:2: edge (3, 4) crosses graphs 1 and 2"),
    ("1, 2\n1, 99\n3, 4\n", "A.txt:2: node id 99 out of range 1..5"),
    ("4, 5\n\n3, 99\n3, 4\n", "A.txt:3: node id 99 out of range 1..5"),
])
def test_edge_file_names_its_first_faulty_line(tmp_path, content, message):
    # the first faulty line wins, whichever fault it has
    _triangle_plus_edge(tmp_path)
    (tmp_path / "TOY_A.txt").write_text(content)
    with pytest.raises(TuFormatError, match=re.escape(f"TOY_{message}")):
        load_tu_dataset(tmp_path, name="TOY")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_line_numbers_count_blank_lines(tmp_path, newline):
    _triangle_plus_edge(tmp_path)
    edges = tmp_path / "TOY_A.txt"
    for lines, message in (
            (["1, 2", "", "   ", "\t", "2, 3", "bad"],
             "TOY_A.txt:6: expected 'u, v', got 'bad'"),
            (["", " ", "1, 2", "", "1, 99"],
             "TOY_A.txt:5: node id 99 out of range"),
            (["", "", "", "3, 4"], "TOY_A.txt:4: edge (3, 4) crosses"),
            (["1, 2", "", "2, 3\xe9"], "TOY_A.txt:3: expected ASCII")):
        edges.write_bytes(newline.join(lines).encode("latin-1"))
        with pytest.raises(TuFormatError, match=re.escape(message)):
            load_tu_dataset(tmp_path, name="TOY")


def test_crlf_and_blank_lines_load(tmp_path):
    plain = load_tu_dataset(_triangle_plus_edge(tmp_path / "lf"), name="TOY")
    for path in (tmp_path / "lf").iterdir():
        text = path.read_text().replace("\n", "\r\n")
        (tmp_path / "crlf").mkdir(exist_ok=True)
        (tmp_path / "crlf" / path.name).write_text(
            " \t\r\n\r\n" + text + "\r\n  \r\n", newline="")
    crlf = load_tu_dataset(tmp_path / "crlf", name="TOY")
    assert len(crlf) == len(plain)
    for a, b in zip(plain, crlf):
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
        assert a.label == b.label


def test_interleaved_indicator_keeps_order_of_appearance(tmp_path):
    # graph 1 holds nodes 1, 3, 5 and graph 2 nodes 2, 4, in that order
    (tmp_path / "TOY_graph_indicator.txt").write_text("1\n2\n1\n2\n1\n")
    (tmp_path / "TOY_graph_labels.txt").write_text("1\n0\n")
    (tmp_path / "TOY_A.txt").write_text("1, 3\n4, 2\n5, 3\n")
    (tmp_path / "TOY_node_labels.txt").write_text("10\n20\n11\n21\n12\n")
    first, second = load_tu_dataset(tmp_path, name="TOY",
                                    include_node_labels=True)
    np.testing.assert_array_equal(first.adjacency, path_adjacency(3))
    np.testing.assert_array_equal(second.adjacency, path_adjacency(2))
    np.testing.assert_array_equal(first.node_labels, [10, 11, 12])
    np.testing.assert_array_equal(second.node_labels, [20, 21])


@pytest.mark.parametrize("seed", range(4))
def test_load_inverts_write(tmp_path, seed):
    rng = np.random.default_rng(seed)
    sizes = np.concatenate([[1, 60], rng.integers(1, 61, size=20)])
    graphs = []
    for n in sizes:
        adjacency = random_adjacency(rng, int(n), p=rng.uniform(0.0, 0.3))
        isolated = rng.random(n) < 0.2
        adjacency[isolated] = 0.0
        adjacency[:, isolated] = 0.0
        label = int(rng.integers(2))
        graphs.append(make_graph(
            adjacency, np.zeros((n, 0)), label,
            Provenance.ORIGINAL_ABNORMAL if label
            else Provenance.ORIGINAL_NORMAL))
    write_tu_dataset(graphs, tmp_path, "RAND")
    back = load_tu_dataset(tmp_path, name="RAND")
    assert len(back) == len(graphs)
    for orig, loaded in zip(graphs, back):
        np.testing.assert_array_equal(loaded.adjacency, orig.adjacency)
        np.testing.assert_array_equal(loaded.degrees, orig.degrees)
        assert loaded.label == orig.label
        assert loaded.provenance is orig.provenance
        assert loaded.node_features.shape == (orig.num_nodes, 0)


def test_node_labels_optional(tmp_path):
    _triangle_plus_edge(tmp_path)
    (tmp_path / "TOY_node_labels.txt").write_text("5\n6\n7\n8\n9\n")
    plain = load_tu_dataset(tmp_path, name="TOY")
    assert plain[0].node_labels is None
    with_labels = load_tu_dataset(tmp_path, name="TOY",
                                  include_node_labels=True)
    np.testing.assert_array_equal(with_labels[0].node_labels, [5, 6, 7])
    np.testing.assert_array_equal(with_labels[1].node_labels, [8, 9])


def test_identity_features(tmp_path):
    graphs = load_tu_dataset(_triangle_plus_edge(tmp_path), name="TOY")
    ds = build_features(graphs, FeatureConfig(mode=FeatureMode.IDENTITY),
                        name="TOY")
    assert ds.feature_dim == 3 and ds.n_max == 3
    np.testing.assert_array_equal(ds[0].node_features, np.eye(3))
    np.testing.assert_array_equal(ds[1].node_features, np.eye(3)[:2])
    wider = build_features(graphs, FeatureConfig(mode=FeatureMode.IDENTITY),
                           n_max=5)
    assert wider.feature_dim == 5
    with pytest.raises(SizeError):
        build_features(graphs, FeatureConfig(mode=FeatureMode.IDENTITY),
                       n_max=2)


def test_degree_binning_oracle():
    # Star S4: degrees (4, 1, 1, 1, 1); 2 bins over [0, 4] have width 2, so
    # the hub (degree 4, top edge inclusive) lands in bin 1, leaves in bin 0.
    star = np.zeros((5, 5))
    star[0, 1:] = 1.0
    star[1:, 0] = 1.0
    g = make_graph(star, np.zeros((5, 0)), 1, Provenance.ORIGINAL_ABNORMAL)
    ds = build_features([g], FeatureConfig(mode=FeatureMode.DEGREE_BINNING,
                                           num_bins=2))
    expected = np.zeros((5, 2))
    expected[0, 1] = 1.0
    expected[1:, 0] = 1.0
    np.testing.assert_array_equal(ds[0].node_features, expected)


def test_degree_binning_edges():
    # interior boundary: degree exactly 2 with width 2 belongs to bin 1
    g1 = make_graph(path_adjacency(3), np.zeros((3, 0)), 0,
                    Provenance.ORIGINAL_NORMAL)
    star = np.zeros((5, 5))
    star[0, 1:] = 1.0
    star[1:, 0] = 1.0
    g2 = make_graph(star, np.zeros((5, 0)), 0, Provenance.ORIGINAL_NORMAL)
    ds = build_features([g1, g2],
                        FeatureConfig(mode=FeatureMode.DEGREE_BINNING,
                                      num_bins=2))
    middle = ds[0].node_features[1]  # degree 2 of global max 4
    np.testing.assert_array_equal(middle, [0.0, 1.0])
    # an edgeless dataset puts everything in bin 0
    iso = make_graph(np.zeros((3, 3)), np.zeros((3, 0)), 0,
                     Provenance.ORIGINAL_NORMAL)
    ds0 = build_features([iso], FeatureConfig(mode=FeatureMode.DEGREE_BINNING,
                                              num_bins=4))
    np.testing.assert_array_equal(ds0[0].node_features[:, 0], np.ones(3))


def test_ldp_oracle():
    # Path 0-1-2: degrees (1, 2, 1).
    g = make_graph(path_adjacency(3), np.zeros((3, 0)), 0,
                   Provenance.ORIGINAL_NORMAL)
    ds = build_features([g], FeatureConfig(mode=FeatureMode.LDP))
    expected = np.array([
        [1.0, 2.0, 2.0, 2.0, 0.0],
        [2.0, 1.0, 1.0, 1.0, 0.0],
        [1.0, 2.0, 2.0, 2.0, 0.0],
    ])
    np.testing.assert_allclose(ds[0].node_features, expected)
    # isolated nodes get an all-zero profile
    lonely = make_graph(np.zeros((2, 2)), np.zeros((2, 0)), 0,
                        Provenance.ORIGINAL_NORMAL)
    ds2 = build_features([lonely], FeatureConfig(mode=FeatureMode.LDP))
    np.testing.assert_array_equal(ds2[0].node_features, np.zeros((2, 5)))


def test_ldp_population_std():
    # Hub of a star with leaf degrees (1, 1, 3): population std, not sample.
    a = np.zeros((4, 4))
    a[0, 1:] = 1.0
    a[1:, 0] = 1.0
    a[3, 1] = 1.0  # leaf 3 also connects to leaf 1
    a[1, 3] = 1.0
    a[3, 2] = 1.0
    a[2, 3] = 1.0
    g = make_graph(a, np.zeros((4, 0)), 0, Provenance.ORIGINAL_NORMAL)
    ds = build_features([g], FeatureConfig(mode=FeatureMode.LDP))
    hub = ds[0].node_features[0]
    nd = np.array([2.0, 2.0, 3.0])
    np.testing.assert_allclose(
        hub, [3.0, nd.min(), nd.max(), nd.mean(), nd.std()])


def test_ldp_matches_per_node_loop():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 30):
        adjacency = random_adjacency(rng, n, p=0.3)
        isolated = rng.random(n) < 0.3
        adjacency[isolated] = 0.0
        adjacency[:, isolated] = 0.0
        g = make_graph(adjacency, np.zeros((n, 0)), 0,
                       Provenance.ORIGINAL_NORMAL)
        expected = np.zeros((n, 5))
        for i in range(n):
            nd = g.degrees[np.flatnonzero(adjacency[i])]
            if len(nd):
                expected[i] = (g.degrees[i], nd.min(), nd.max(), nd.mean(),
                               nd.std())
        ds = build_features([g], FeatureConfig(mode=FeatureMode.LDP))
        np.testing.assert_allclose(ds[0].node_features, expected,
                                   rtol=0, atol=1e-12)


def test_feature_config_validation():
    with pytest.raises(ConfigError):
        FeatureConfig(num_bins=0)
    with pytest.raises(ConfigError):
        build_features([], FeatureConfig())


def test_write_then_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    graphs = []
    for i in range(6):
        n = int(rng.integers(2, 7))
        upper = np.triu(rng.random((n, n)) < 0.5, k=1).astype(float)
        adj = upper + upper.T
        graphs.append(make_graph(adj, np.zeros((n, 0)), int(i % 2),
                                 Provenance.ORIGINAL_ABNORMAL if i % 2
                                 else Provenance.ORIGINAL_NORMAL))
    write_tu_dataset(graphs, tmp_path, "ROUND")
    back = load_tu_dataset(tmp_path, name="ROUND")
    assert len(back) == len(graphs)
    for orig, loaded in zip(graphs, back):
        np.testing.assert_array_equal(orig.adjacency, loaded.adjacency)
        assert orig.label == loaded.label


def test_write_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    graphs = [make_graph(path_adjacency(4), np.zeros((4, 0)), 1,
                         Provenance.ORIGINAL_ABNORMAL)]
    write_tu_dataset(graphs, tmp_path / "a", "X")
    write_tu_dataset(graphs, tmp_path / "b", "X")
    for suffix in ("A", "graph_indicator", "graph_labels"):
        a = (tmp_path / "a" / f"X_{suffix}.txt").read_bytes()
        b = (tmp_path / "b" / f"X_{suffix}.txt").read_bytes()
        assert a == b


def test_write_golden_bytes(tmp_path):
    # a path on nodes 1..3, then a triangle on 4..6 beside an isolated node 7
    triangle = np.zeros((4, 4))
    triangle[:3, :3] = 1.0 - np.eye(3)
    graphs = [make_graph(path_adjacency(3), np.zeros((3, 0)), 0,
                         Provenance.ORIGINAL_NORMAL),
              make_graph(triangle, np.zeros((4, 0)), 1,
                         Provenance.ORIGINAL_ABNORMAL)]
    write_tu_dataset(graphs, tmp_path, "G")
    expected = {
        "A": b"1, 2\n2, 1\n2, 3\n3, 2\n"
             b"4, 5\n4, 6\n5, 4\n5, 6\n6, 4\n6, 5\n",
        "graph_indicator": b"1\n1\n1\n2\n2\n2\n2\n",
        "graph_labels": b"0\n1\n",
    }
    for suffix, content in expected.items():
        assert (tmp_path / f"G_{suffix}.txt").read_bytes() == content


def _percent_formatted(graphs):
    """The TU files as ``%``-formatting of each line writes them: the
    oracle for ``write_tu_dataset``'s array renderer."""
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    edges = [np.argwhere(g.adjacency) + (base + 1)
             for g, base in zip(graphs, offsets)]
    pairs = np.concatenate(edges).ravel().tolist()
    indicator = np.repeat(np.arange(1, len(graphs) + 1),
                          [g.num_nodes for g in graphs]).tolist()
    return {
        "A": "%d, %d\n" * (len(pairs) // 2) % tuple(pairs),
        "graph_indicator": "".join(f"{gid}\n" for gid in indicator),
        "graph_labels": "".join(f"{g.label}\n" for g in graphs),
    }


def _graph(adjacency, label):
    n = len(adjacency)
    return make_graph(adjacency, np.zeros((n, 0)), label,
                      Provenance.ORIGINAL_ABNORMAL if label
                      else Provenance.ORIGINAL_NORMAL)


def _digit_crossing_graphs():
    # 101 rings with chords on 100 nodes: node ids run 1..10100 and graph
    # ids 1..101, so every width change from one digit to five is written
    rng = np.random.default_rng(3)
    graphs = []
    for i in range(101):
        ring = np.roll(np.eye(100), 1, axis=1)
        chords = np.triu(rng.random((100, 100)) < 0.01, k=2)
        upper = np.triu(np.maximum(ring + ring.T, chords), k=1)
        graphs.append(_graph(upper + upper.T, i % 2))
    return graphs


def _small_and_edgeless_graphs():
    # single nodes and edgeless graphs between edged ones
    return [_graph(np.zeros((1, 1)), 0), _graph(path_adjacency(3), 1),
            _graph(np.zeros((4, 4)), 1),
            _graph(np.zeros((1, 1)), 1), _graph(path_adjacency(12), 0),
            _graph(np.zeros((2, 2)), 0)]


def _edgeless_graphs():
    return [_graph(np.zeros((n, n)), n % 2) for n in (1, 3, 1, 9, 2)]


@pytest.mark.parametrize("build", [
    _digit_crossing_graphs, _small_and_edgeless_graphs, _edgeless_graphs])
def test_write_matches_percent_formatting(tmp_path, build):
    graphs = build()
    write_tu_dataset(graphs, tmp_path, "O")
    expected = _percent_formatted(graphs)
    for suffix, text in expected.items():
        assert (tmp_path / f"O_{suffix}.txt").read_bytes() == \
            text.encode("ascii"), suffix
    assert {0, 1} <= {g.label for g in graphs}


def test_write_digit_crossings_are_covered(tmp_path):
    write_tu_dataset(_digit_crossing_graphs(), tmp_path, "O")
    ids = {int(v) for line in (tmp_path / "O_A.txt").read_text().split("\n")
           if line for v in line.split(", ")}
    assert {9, 10, 99, 100, 999, 1000, 9999, 10000} <= ids
    graph_ids = (tmp_path / "O_graph_indicator.txt").read_text().split()
    assert {"9", "10", "99", "100", "101"} <= set(graph_ids)


def test_write_without_edges_leaves_an_empty_edge_file(tmp_path):
    write_tu_dataset(_edgeless_graphs(), tmp_path, "O")
    assert (tmp_path / "O_A.txt").read_bytes() == b""
    back = load_tu_dataset(tmp_path, name="O")
    assert [g.num_nodes for g in back] == [1, 3, 1, 9, 2]
    assert all(not g.adjacency.any() for g in back)


def test_write_rejects_an_empty_graph_list(tmp_path):
    with pytest.raises(ConfigError, match="no graphs"):
        write_tu_dataset([], tmp_path / "out", "E")
    assert not (tmp_path / "out").exists()


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_memory_is_bounded_by_the_file(tmp_path):
    # 200k edge lines over 100 graphs of 10 nodes, most of them repeated
    # edges, so the graphs are small beside the text. Here the load peaks
    # at 3.9 times the file's size: its int64 table, plus one block.
    # Parsing whole files from a list of lines peaked at 18 times.
    rng = np.random.default_rng(7)
    graphs, nodes, lines = 100, 10, 2000
    owner = np.repeat(np.arange(graphs), lines)
    edges = rng.integers(1, nodes + 1, size=(graphs * lines, 2))
    np.savetxt(tmp_path / "M_A.txt", edges + owner[:, None] * nodes,
               fmt="%d", delimiter=", ")
    np.savetxt(tmp_path / "M_graph_indicator.txt",
               np.repeat(np.arange(1, graphs + 1), nodes), fmt="%d")
    np.savetxt(tmp_path / "M_graph_labels.txt", np.ones(graphs), fmt="%d")
    size = (tmp_path / "M_A.txt").stat().st_size
    peak = _traced_peak(lambda: load_tu_dataset(tmp_path, name="M"))
    assert peak < 6 * size


def test_write_memory_does_not_grow_with_the_adjacencies(tmp_path):
    # 64 rings of 256 nodes: 33.6 MB of adjacencies. The edge file is
    # rendered in blocks of at most 2**17 cells, so the peak (1.4 MB here)
    # stays below four float64 blocks, 4 MiB; one concatenation of all
    # the adjacencies peaked at 33.8 MB.
    ring = np.roll(np.eye(256), 1, axis=1)
    graphs = [_graph(ring + ring.T, i % 2) for i in range(64)]
    assert sum(g.adjacency.nbytes for g in graphs) >= 32 << 20
    peak = _traced_peak(lambda: write_tu_dataset(graphs, tmp_path, "W"))
    assert peak < 4 << 20


def test_dataset_stats():
    g1 = make_graph(path_adjacency(3), np.zeros((3, 0)), 0,
                    Provenance.ORIGINAL_NORMAL)
    g2 = make_graph(np.ones((4, 4)) - np.eye(4), np.zeros((4, 0)), 1,
                    Provenance.ORIGINAL_ABNORMAL)
    stats = dataset_stats([g1, g2])
    assert stats == {"graphs": 2, "avg_nodes": 3.5, "avg_edges": 4.0,
                     "normal": 1, "abnormal": 1}
