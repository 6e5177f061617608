"""TU-format dataset I/O and node-feature construction.

The on-disk layout is the usual benchmark-collection triple::

    <DS>_A.txt                comma-separated 1-indexed edge pairs
    <DS>_graph_indicator.txt  graph id (1-indexed) per node line
    <DS>_graph_labels.txt     integer label per graph line

plus an optional ``<DS>_node_labels.txt`` that is ignored unless asked for.
Edges are symmetrized; self-loops and duplicate edges are dropped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, SizeError, TuFormatError
from .graphs import Graph, GraphDataset, Provenance, make_graph

Array = np.ndarray


class FeatureMode(enum.Enum):
    IDENTITY = "identity"
    DEGREE_BINNING = "degree_binning"
    LDP = "ldp"


@dataclass(frozen=True)
class FeatureConfig:
    mode: FeatureMode = FeatureMode.IDENTITY
    num_bins: int = 10

    def __post_init__(self):
        if self.num_bins < 1:
            raise ConfigError(f"num_bins must be positive, got {self.num_bins}")


# -- loading -------------------------------------------------------------------


def _read_lines(path: Path) -> list[tuple[int, str]]:
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if text:
                out.append((lineno, text))
    return out


def _parse_int(path: Path, lineno: int, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise TuFormatError(f"{path}:{lineno}: expected an integer, got {text!r}")


def load_tu_dataset(directory: str | Path, anomaly_label_value: int = 1,
                    name: str | None = None,
                    include_node_labels: bool = False) -> list[Graph]:
    """Load a TU-format directory into graphs with empty feature matrices.

    A graph is labeled 1 (anomalous) when its raw label equals
    ``anomaly_label_value`` and 0 otherwise. Node features are left as
    ``(n, 0)`` matrices pending :func:`build_features`.
    """
    directory = Path(directory)
    if name is None:
        name = directory.name
    edges_path = directory / f"{name}_A.txt"
    indicator_path = directory / f"{name}_graph_indicator.txt"
    labels_path = directory / f"{name}_graph_labels.txt"

    raw_labels = [
        _parse_int(labels_path, lineno, text)
        for lineno, text in _read_lines(labels_path)
    ]
    num_graphs = len(raw_labels)
    if num_graphs == 0:
        raise TuFormatError(f"{labels_path}: no graph labels found")

    indicator: list[int] = []
    for lineno, text in _read_lines(indicator_path):
        gid = _parse_int(indicator_path, lineno, text)
        if not 1 <= gid <= num_graphs:
            raise TuFormatError(
                f"{indicator_path}:{lineno}: node assigned to graph {gid}, "
                f"but only {num_graphs} graphs are declared")
        indicator.append(gid)
    num_nodes = len(indicator)
    if num_nodes == 0:
        raise TuFormatError(f"{indicator_path}: no nodes found")

    # Map each global node id to (graph, local index), by order of appearance.
    local_index = np.zeros(num_nodes, dtype=np.int64)
    sizes = np.zeros(num_graphs, dtype=np.int64)
    for node, gid in enumerate(indicator):
        local_index[node] = sizes[gid - 1]
        sizes[gid - 1] += 1
    for gid, n in enumerate(sizes, start=1):
        if n == 0:
            raise TuFormatError(
                f"{indicator_path}: graph {gid} has no nodes")

    adjacencies = [np.zeros((n, n)) for n in sizes]
    for lineno, text in _read_lines(edges_path):
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise TuFormatError(
                f"{edges_path}:{lineno}: expected 'u, v', got {text!r}")
        u = _parse_int(edges_path, lineno, parts[0])
        v = _parse_int(edges_path, lineno, parts[1])
        for endpoint in (u, v):
            if not 1 <= endpoint <= num_nodes:
                raise TuFormatError(
                    f"{edges_path}:{lineno}: node id {endpoint} out of range "
                    f"1..{num_nodes}")
        gu, gv = indicator[u - 1], indicator[v - 1]
        if gu != gv:
            raise TuFormatError(
                f"{edges_path}:{lineno}: edge ({u}, {v}) crosses graphs "
                f"{gu} and {gv}")
        if u == v:
            continue  # self-loops dropped
        a = adjacencies[gu - 1]
        lu, lv = local_index[u - 1], local_index[v - 1]
        a[lu, lv] = 1.0
        a[lv, lu] = 1.0

    node_labels_per_graph: list[list[int]] | None = None
    if include_node_labels:
        nl_path = directory / f"{name}_node_labels.txt"
        values = [
            _parse_int(nl_path, lineno, text)
            for lineno, text in _read_lines(nl_path)
        ]
        if len(values) != num_nodes:
            raise TuFormatError(
                f"{nl_path}: {len(values)} node labels for {num_nodes} nodes")
        node_labels_per_graph = [[] for _ in range(num_graphs)]
        for node, value in enumerate(values):
            node_labels_per_graph[indicator[node] - 1].append(value)

    graphs = []
    for gid in range(num_graphs):
        label = 1 if raw_labels[gid] == anomaly_label_value else 0
        provenance = (Provenance.ORIGINAL_ABNORMAL if label == 1
                      else Provenance.ORIGINAL_NORMAL)
        n = sizes[gid]
        node_labels = None
        if node_labels_per_graph is not None:
            node_labels = np.array(node_labels_per_graph[gid], dtype=np.int64)
        graphs.append(make_graph(
            adjacencies[gid], np.zeros((n, 0)), label, provenance,
            node_labels=node_labels))
    return graphs


# -- feature construction --------------------------------------------------


def _identity_features(graph: Graph, n_max: int) -> Array:
    feats = np.zeros((graph.num_nodes, n_max))
    feats[np.arange(graph.num_nodes), np.arange(graph.num_nodes)] = 1.0
    return feats


def _degree_bin_index(degrees: Array, max_degree: float, num_bins: int) -> Array:
    """Equal-width bins over [0, max_degree], top edge inclusive."""
    if max_degree <= 0:
        return np.zeros(len(degrees), dtype=np.int64)
    width = max_degree / num_bins
    idx = np.floor(degrees / width).astype(np.int64)
    return np.minimum(idx, num_bins - 1)


def _ldp_features(graph: Graph) -> Array:
    """Per node: own degree plus min/max/mean/std of neighbor degrees."""
    n = graph.num_nodes
    feats = np.zeros((n, 5))
    degs = graph.degrees
    for i in range(n):
        neighbors = np.flatnonzero(graph.adjacency[i])
        if len(neighbors) == 0:
            continue  # isolated node: all-zero row
        nd = degs[neighbors]
        feats[i] = (degs[i], nd.min(), nd.max(), nd.mean(), nd.std())
    return feats


def build_features(graphs: Sequence[Graph], config: FeatureConfig,
                   name: str = "dataset",
                   n_max: int | None = None) -> GraphDataset:
    """Construct node features for every graph and wrap them in a dataset.

    IDENTITY gives each node a one-hot basis row of length ``n_max`` (default:
    the largest graph). DEGREE_BINNING one-hot encodes each node's degree into
    ``num_bins`` equal-width bins over the global degree range. LDP builds the
    5-dimensional local degree profile.
    """
    graphs = list(graphs)
    if not graphs:
        raise ConfigError("cannot build features for an empty graph list")
    biggest = max(g.num_nodes for g in graphs)
    if n_max is None:
        n_max = biggest
    elif n_max < biggest:
        raise SizeError(
            f"n_max={n_max} smaller than largest graph ({biggest} nodes)")

    if config.mode is FeatureMode.IDENTITY:
        built = [_identity_features(g, n_max) for g in graphs]
    elif config.mode is FeatureMode.DEGREE_BINNING:
        max_degree = max(float(g.degrees.max()) if g.num_nodes else 0.0
                         for g in graphs)
        built = []
        for g in graphs:
            bins = _degree_bin_index(g.degrees, max_degree, config.num_bins)
            feats = np.zeros((g.num_nodes, config.num_bins))
            feats[np.arange(g.num_nodes), bins] = 1.0
            built.append(feats)
    elif config.mode is FeatureMode.LDP:
        built = [_ldp_features(g) for g in graphs]
    else:  # pragma: no cover - enum is closed
        raise ConfigError(f"unknown feature mode {config.mode!r}")

    rebuilt = tuple(
        Graph(adjacency=g.adjacency, node_features=feats, degrees=g.degrees,
              label=g.label, provenance=g.provenance, node_labels=g.node_labels)
        for g, feats in zip(graphs, built))
    return GraphDataset(name=name, graphs=rebuilt,
                        feature_mode=config.mode.value, n_max=n_max)


# -- writing ---------------------------------------------------------------


def write_tu_dataset(graphs: Sequence[Graph], directory: str | Path,
                     name: str) -> None:
    """Write graphs back out as a TU-format triple (byte-deterministic).

    Each undirected edge appears in both orientations, sorted by
    (source, target); node ids are global and 1-indexed; labels are the
    stored binary labels.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sizes = [g.num_nodes for g in graphs]
    offsets = np.cumsum([0] + sizes)
    # argwhere lists each graph's edges in (row, col) order and node ids grow
    # from graph to graph, so the concatenation is already sorted
    edges = [np.argwhere(g.adjacency) + (base + 1)
             for g, base in zip(graphs, offsets)]
    pairs = np.concatenate(edges).ravel().tolist() if edges else []
    indicator = np.repeat(np.arange(1, len(graphs) + 1), sizes).tolist()
    contents = {
        "A": "%d, %d\n" * (len(pairs) // 2) % tuple(pairs),
        "graph_indicator": "".join(f"{gid}\n" for gid in indicator),
        "graph_labels": "".join(f"{g.label}\n" for g in graphs),
    }
    for suffix, text in contents.items():
        with open(directory / f"{name}_{suffix}.txt", "w",
                  encoding="ascii") as fh:
            fh.write(text)


def dataset_stats(graphs: Sequence[Graph]) -> dict:
    """Summary statistics in the shape the ingest command prints."""
    n = len(graphs)
    nodes = [g.num_nodes for g in graphs]
    edges = [float(g.adjacency.sum()) / 2.0 for g in graphs]
    labels = [g.label for g in graphs]
    return {
        "graphs": n,
        "avg_nodes": float(np.mean(nodes)) if n else 0.0,
        "avg_edges": float(np.mean(edges)) if n else 0.0,
        "normal": int(labels.count(0)),
        "abnormal": int(labels.count(1)),
    }
