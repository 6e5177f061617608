"""Core graph containers, batch padding, and stratified splitting.

Graphs are small frozen records around numpy arrays; arrays are marked
read-only at construction so instances are safe to share across folds and
worker processes.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, SizeError

Array = np.ndarray

# Widest over narrowest graph in a chunk: each graph keeps ≥ 64 % real cells.
WIDTH_RATIO = 1.25
# Default most graphs per chunk, in both models.
CHUNK_SIZE = 128


class Provenance(enum.Enum):
    """Where a graph came from: loaded from disk, or synthesized."""

    ORIGINAL_NORMAL = "original_normal"
    ORIGINAL_ABNORMAL = "original_abnormal"
    GENERATED = "generated"


def _freeze(a: Array) -> Array:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _checked_features(node_features: Array, n: int) -> Array:
    """``node_features`` as a frozen float matrix with ``n`` finite rows."""
    feats = np.asarray(node_features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != n:
        raise SizeError(
            f"node_features must have {n} rows, got shape {feats.shape}")
    if not np.isfinite(feats).all():
        raise ConfigError("node_features must be finite")
    return _freeze(feats)


@dataclass(frozen=True)
class Graph:
    """One undirected graph with binary adjacency and dense node features.

    Invariants (checked): at least one node; adjacency is square, binary,
    symmetric, with a zero diagonal; ``node_features`` has one finite row
    per node (zero columns are allowed before features are built).
    ``degrees`` is not an argument: it is derived from the adjacency row
    sums.
    """

    adjacency: Array
    node_features: Array
    label: int
    provenance: Provenance
    node_labels: Array | None = None
    degrees: Array = field(init=False)

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.float64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise SizeError(f"adjacency must be square, got {adj.shape}")
        n = adj.shape[0]
        if n == 0:
            raise SizeError("a graph needs at least one node")
        if not ((adj == 0.0) | (adj == 1.0)).all():
            raise ConfigError("adjacency entries must be 0 or 1")
        if not np.array_equal(adj, adj.T):
            raise ConfigError("adjacency must be symmetric")
        if np.trace(adj) != 0:
            raise ConfigError("adjacency diagonal must be zero")
        feats = _checked_features(self.node_features, n)
        if self.label not in (0, 1):
            raise ConfigError(f"label must be 0 or 1, got {self.label!r}")
        object.__setattr__(self, "adjacency", _freeze(adj))
        object.__setattr__(self, "node_features", feats)
        object.__setattr__(self, "degrees", _freeze(adj.sum(axis=1)))
        if self.node_labels is not None:
            object.__setattr__(
                self, "node_labels",
                _freeze(np.asarray(self.node_labels, dtype=np.int64)))

    def with_features(self, node_features: Array) -> Graph:
        """This graph with new node features; only they are checked, and
        the frozen adjacency, degrees and node labels are shared."""
        out = copy.copy(self)
        object.__setattr__(out, "node_features",
                           _checked_features(node_features, self.num_nodes))
        return out

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]


def make_graph(adjacency: Array, node_features: Array, label: int,
               provenance: Provenance,
               node_labels: Array | None = None) -> Graph:
    """Build a Graph; the same as calling ``Graph`` with these arguments."""
    return Graph(adjacency, node_features, label, provenance, node_labels)


@dataclass(frozen=True)
class GraphDataset:
    """A named collection of graphs sharing one feature space."""

    name: str
    graphs: tuple[Graph, ...]
    feature_mode: str | None = None
    n_max: int = field(default=0)

    def __post_init__(self):
        graphs = tuple(self.graphs)
        object.__setattr__(self, "graphs", graphs)
        if graphs:
            dims = {g.feature_dim for g in graphs}
            if len(dims) > 1:
                raise ConfigError(
                    f"inconsistent feature dims across dataset: {sorted(dims)}")
            biggest = max(g.num_nodes for g in graphs)
            if self.n_max == 0:
                object.__setattr__(self, "n_max", biggest)
            elif self.n_max < biggest:
                raise SizeError(
                    f"n_max={self.n_max} smaller than largest graph ({biggest})")

    def __len__(self) -> int:
        return len(self.graphs)

    def __getitem__(self, index: int) -> Graph:
        return self.graphs[index]

    @property
    def feature_dim(self) -> int:
        return self.graphs[0].feature_dim if self.graphs else 0


@dataclass(frozen=True)
class PaddedBatch:
    """Dense zero-padded stacks for a list of graphs.

    Shapes: adjacency ``(B, n, n)``, features ``(B, n, h)``, node_mask
    ``(B, n)``. Padded rows are exactly zero everywhere and the mask marks
    real nodes with 1.
    """

    adjacency_stack: Array
    feature_stack: Array
    node_mask: Array

    @property
    def size(self) -> int:
        return self.adjacency_stack.shape[0]

    @property
    def n_max(self) -> int:
        return self.adjacency_stack.shape[1]


def pad_batch(graphs: Sequence[Graph], n_max: int) -> PaddedBatch:
    """Stack graphs into dense padded arrays of node capacity ``n_max``."""
    batch = len(graphs)
    h = graphs[0].feature_dim if batch else 0
    adjacency = np.zeros((batch, n_max, n_max))
    features = np.zeros((batch, n_max, h))
    mask = np.zeros((batch, n_max))
    for i, g in enumerate(graphs):
        n = g.num_nodes
        if n > n_max:
            raise SizeError(
                f"graph {i} has {n} nodes, exceeding n_max={n_max}")
        if g.feature_dim != h:
            raise ConfigError(
                f"graph {i} feature dim {g.feature_dim} != {h}")
        adjacency[i, :n, :n] = g.adjacency
        features[i, :n, :] = g.node_features
        mask[i, :n] = 1.0
    return PaddedBatch(adjacency_stack=adjacency, feature_stack=features,
                       node_mask=mask)


def padded_chunks(graphs: Sequence[Graph], chunk_size: int
                  ) -> Iterator[tuple[Array, PaddedBatch]]:
    """Split graphs into chunks of similar size, each padded to its own width.

    Indices are ordered by ``(num_nodes, index)`` and cut into runs of at
    most ``chunk_size`` graphs; a run also ends before a graph wider than
    ``WIDTH_RATIO`` times the run's first, narrowest, graph. Yields
    ``(indices, batch)`` per run, where ``batch`` pads the run's graphs to
    its largest node count, the last index's.
    """
    order = sorted(range(len(graphs)), key=lambda i: (graphs[i].num_nodes, i))
    start = 0
    while start < len(order):
        limit = WIDTH_RATIO * graphs[order[start]].num_nodes
        stop = start + 1
        while (stop < len(order) and stop - start < chunk_size
               and graphs[order[stop]].num_nodes <= limit):
            stop += 1
        idx = np.array(order[start:stop], dtype=np.int64)
        members = [graphs[i] for i in idx]
        yield idx, pad_batch(members, members[-1].num_nodes)
        start = stop


def stratified_kfold(dataset: GraphDataset, k: int,
                     seed: int) -> list[tuple[Array, Array]]:
    """Deterministic stratified k-fold split over original graphs.

    Returns ``k`` pairs of sorted index arrays ``(train, test)``. Each class is
    shuffled with its own view of the seeded generator and dealt round-robin,
    so test folds preserve the class ratio within one sample per class.
    """
    if k < 2:
        raise ConfigError(f"k must be at least 2, got {k}")
    for i, g in enumerate(dataset.graphs):
        if g.provenance is Provenance.GENERATED:
            raise ConfigError(
                f"graph {i} is GENERATED; folds must be built before augmentation")
    labels = np.array([g.label for g in dataset.graphs])
    rng = np.random.default_rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if len(members) < k:
            raise ConfigError(
                f"class {cls} has {len(members)} graphs, fewer than k={k}")
        rng.shuffle(members)
        for fold in range(k):
            fold_members[fold].extend(members[fold::k])
    splits = []
    everything = set(range(len(dataset)))
    for fold in range(k):
        test = np.array(sorted(fold_members[fold]), dtype=np.int64)
        train = np.array(sorted(everything - set(fold_members[fold])),
                         dtype=np.int64)
        splits.append((train, test))
    return splits
