"""TU-format dataset I/O and node-feature construction.

The on-disk layout is the usual benchmark-collection triple::

    <DS>_A.txt                comma-separated 1-indexed edge pairs
    <DS>_graph_indicator.txt  graph id (1-indexed) per node line
    <DS>_graph_labels.txt     integer label per graph line

plus an optional ``<DS>_node_labels.txt`` that is ignored unless asked for.
Edges are symmetrized; self-loops and duplicate edges are dropped. A graph's
nodes need not be contiguous in the indicator file: they are numbered within
their graph in order of appearance.

Every file is ASCII text of comma-separated decimal integers that fit in
int64, one record per line, with optional spaces or tabs around each value.
Lines may end in LF, CRLF or CR; blank and whitespace-only lines are skipped.
Each file is parsed in one ``np.loadtxt`` pass, so Python-only integer
spellings such as ``1_000`` are rejected. Bad input raises
:class:`~gladcf.errors.TuFormatError` naming the file and, for a fault on
one line, the first such line by its number in the file: a non-ASCII byte,
a line that does not parse, a graph id outside the declared graphs, an
edge endpoint outside ``1..num_nodes``, an edge whose endpoints lie in
different graphs. A file is parsed whole before its values are checked, so
a parse fault is reported before a range fault on an earlier line.
"""

from __future__ import annotations

import enum
import itertools
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


def _split_lines(text: str) -> list[str]:
    """Split as a text-mode file read does: LF, CRLF and CR each end a line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse(lines: list[str], columns: int) -> Array | None:
    """The ``(len(lines), columns)`` int64 table, or None if a line is bad."""
    try:
        table = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2,
                           comments=None)
    except ValueError:
        return None
    return table if table.shape[1] == columns else None


def _bad_line(path: Path, lineno: int, text: str,
              columns: int) -> TuFormatError:
    """The error for a line ``_parse`` rejects, naming what it expected."""
    parts = text.split(",")
    if len(parts) != columns:
        expected = "'u, v'" if columns == 2 else "an integer"
        return TuFormatError(
            f"{path}:{lineno}: expected {expected}, got {text!r}")
    token = next((p.strip() for p in parts
                  if not p.strip() or _parse([p], 1) is None), text)
    return TuFormatError(
        f"{path}:{lineno}: expected an integer, got {token!r}")


def _read_table(path: Path, columns: int) -> tuple[Array, Array]:
    """Parse a file of comma-separated integers into an ``(m, columns)`` table.

    Blank and whitespace-only lines are skipped; the second value holds the
    file line number (1-based) of each table row. The first bad line raises
    :class:`TuFormatError`.
    """
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    data = path.read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = len(_split_lines(data[:exc.start].decode("ascii")))
        raise TuFormatError(
            f"{path}:{lineno}: expected ASCII text, got byte "
            f"0x{data[exc.start]:02x}") from None
    lines = _split_lines(text)
    kept = [bool(line.strip()) for line in lines]
    rows = list(itertools.compress(lines, kept))
    linenos = np.flatnonzero(kept) + 1
    if not rows:
        return np.empty((0, columns), dtype=np.int64), linenos
    table = _parse(rows, columns)
    if table is None:
        # the first bad row ends the shortest prefix that fails to parse
        good, bad = 0, len(rows)
        while bad - good > 1:
            middle = (good + bad) // 2
            if _parse(rows[:middle], columns) is None:
                bad = middle
            else:
                good = middle
        raise _bad_line(path, linenos[good], rows[good].strip(), columns)
    return table, linenos


def _edge_cells(path: Path, graph_of: Array, local_index: Array,
                sizes: Array) -> list[Array]:
    """Read and check the edge file; per graph, the flat indices of its
    adjacency cells, both orientations of every edge but no self-loops."""
    edges, linenos = _read_table(path, 2)
    num_nodes = len(graph_of)
    outside = (edges < 1) | (edges > num_nodes)
    nodes = np.where(outside, 1, edges) - 1
    ends = graph_of[nodes]
    faulty = outside.any(axis=1) | (ends[:, 0] != ends[:, 1])
    if faulty.any():
        row = int(faulty.argmax())
        u, v = edges[row]
        if outside[row].any():
            endpoint = u if outside[row, 0] else v
            raise TuFormatError(
                f"{path}:{linenos[row]}: node id {endpoint} out of range "
                f"1..{num_nodes}")
        raise TuFormatError(
            f"{path}:{linenos[row]}: edge ({u}, {v}) crosses graphs "
            f"{ends[row, 0] + 1} and {ends[row, 1] + 1}")
    nodes = nodes[nodes[:, 0] != nodes[:, 1]]
    pairs = np.concatenate([nodes, nodes[:, ::-1]])
    owner = graph_of[pairs[:, 0]]
    order = np.argsort(owner, kind="stable")
    pairs, owner = pairs[order], owner[order]
    cells = local_index[pairs[:, 0]] * sizes[owner] + local_index[pairs[:, 1]]
    bounds = np.cumsum(np.bincount(owner, minlength=len(sizes)))[:-1]
    return np.split(cells, bounds)


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

    raw_labels = _read_table(labels_path, 1)[0][:, 0]
    num_graphs = len(raw_labels)
    if num_graphs == 0:
        raise TuFormatError(f"{labels_path}: no graph labels found")

    table, linenos = _read_table(indicator_path, 1)
    outside = (table[:, 0] < 1) | (table[:, 0] > num_graphs)
    if outside.any():
        row = int(outside.argmax())
        raise TuFormatError(
            f"{indicator_path}:{linenos[row]}: node assigned to graph "
            f"{table[row, 0]}, but only {num_graphs} graphs are declared")
    graph_of = table[:, 0] - 1  # 0-based graph of each node
    num_nodes = len(graph_of)
    if num_nodes == 0:
        raise TuFormatError(f"{indicator_path}: no nodes found")
    sizes = np.bincount(graph_of, minlength=num_graphs)
    if not sizes.all():
        raise TuFormatError(f"{indicator_path}: graph "
                            f"{int(np.argmin(sizes)) + 1} has no nodes")
    # Each node's local index is its rank within its graph, by order of
    # appearance: a stable sort groups the nodes graph by graph.
    by_graph = np.argsort(graph_of, kind="stable")
    starts = np.cumsum(sizes) - sizes
    local_index = np.empty(num_nodes, dtype=np.int64)
    local_index[by_graph] = np.arange(num_nodes) - starts[graph_of[by_graph]]

    cells_per_graph = _edge_cells(edges_path, graph_of, local_index, sizes)
    adjacencies = []
    for n, cells in zip(sizes, cells_per_graph):
        adjacency = np.zeros((n, n))
        adjacency.reshape(-1)[cells] = 1.0
        adjacencies.append(adjacency)

    node_labels_per_graph = [None] * num_graphs
    if include_node_labels:
        nl_path = directory / f"{name}_node_labels.txt"
        values = _read_table(nl_path, 1)[0][:, 0]
        if len(values) != num_nodes:
            raise TuFormatError(
                f"{nl_path}: {len(values)} node labels for {num_nodes} nodes")
        node_labels_per_graph = np.split(values[by_graph], starts[1:])

    graphs = []
    for raw_label, n, adjacency, node_labels in zip(
            raw_labels, sizes, adjacencies, node_labels_per_graph):
        label = 1 if raw_label == anomaly_label_value else 0
        provenance = (Provenance.ORIGINAL_ABNORMAL if label == 1
                      else Provenance.ORIGINAL_NORMAL)
        graphs.append(make_graph(adjacency, np.zeros((n, 0)), label,
                                 provenance, node_labels=node_labels))
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
    """Per node: own degree plus min/max/mean/std of neighbor degrees.

    The std is the population one, taken about the mean in a second pass;
    isolated nodes keep an all-zero row.
    """
    feats = np.zeros((graph.num_nodes, 5))
    linked = graph.degrees > 0
    adjacency = graph.adjacency[linked]
    degs, counts = graph.degrees, graph.degrees[linked]
    neighbor = adjacency > 0
    mean = adjacency @ degs / counts
    deviation = np.where(neighbor, degs - mean[:, None], 0.0)
    feats[linked] = np.stack([
        counts,
        np.where(neighbor, degs, np.inf).min(axis=1, initial=np.inf),
        np.where(neighbor, degs, 0.0).max(axis=1, initial=0.0),
        mean,
        np.sqrt((deviation * deviation).sum(axis=1) / counts),
    ], axis=1)
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

    rebuilt = tuple(g.with_features(feats) for g, feats in zip(graphs, built))
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
