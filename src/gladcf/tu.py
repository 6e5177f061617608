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
Each file is read and parsed in blocks of whole lines of at most
``BLOCK_BYTES``: Python's text layer splits the lines, NumPy finds the
blank lines and any non-ASCII byte on the block's bytes, and one
``np.loadtxt`` call parses the lines kept, so Python-only integer
spellings such as ``1_000`` are rejected. No Python string per line is
made. Loading 320 graphs whose edge file has 234,630 lines (2.5 MB) peaks
at 10.4 MB in ``tracemalloc``, 4.2 MB of it the adjacencies; parsing each
file whole peaked at 40.5 MB.

Bad input raises :class:`~gladcf.errors.TuFormatError` naming the file
and, for a fault on one line, the first such line by its number in the
file: a non-ASCII byte, a line that does not parse, a graph id outside the
declared graphs, an edge endpoint outside ``1..num_nodes``, an edge whose
endpoints lie in different graphs. A file is parsed whole before its
values are checked, so a parse fault is reported before a range fault on
an earlier line, and a non-ASCII byte anywhere before either.

:func:`write_tu_dataset` renders the triple by array passes, with no
per-line formatting: the edge list is rendered in blocks of whole graphs of
at most ``BLOCK_CELLS`` adjacency cells, and every value is looked up in a
digit table. The files are byte-identical to ``"%d, %d\\n"`` and
``"%d\\n"`` formatting of each line.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

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


# Bytes per parse block: each file is read and parsed in blocks of whole
# lines of at most this size (a longer line is a block of its own).
BLOCK_BYTES = 1 << 18

_LF = 10
# the bytes ``str.strip`` removes from ASCII text; a line of nothing else is
# blank
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


def _whole_line_blocks(fh) -> Iterator[Array]:
    """The text of binary file ``fh`` as ``uint8`` blocks of whole lines:
    as many as fit in ``BLOCK_BYTES``, or one line longer than that.

    Python's text layer splits the lines: LF, CRLF and CR each end one and
    are read as LF, and an LF ends the file if no break does. A non-ASCII
    byte keeps its value.
    """
    text = io.TextIOWrapper(fh, encoding="ascii", errors="surrogateescape",
                            newline=None)
    data, more = "", True
    while data or more:
        cut = data.rfind("\n", 0, BLOCK_BYTES) + 1 or data.find("\n") + 1
        if more and (len(data) < BLOCK_BYTES or not cut):
            # fill the block; a line longer than a block is read on in
            # doubling steps, and a short read is the end of the file
            size = (BLOCK_BYTES - len(data) if len(data) < BLOCK_BYTES
                    else len(data))
            chunk = text.read(size)
            data, more = data + chunk, len(chunk) == size
            if data and not more and not data.endswith("\n"):
                data += "\n"
        else:
            yield np.frombuffer(data[:cut].encode("ascii", "surrogateescape"),
                                dtype=np.uint8)
            data = data[cut:]


def _line_blocks(path: Path) -> Iterator[tuple[Array, Array]]:
    """The file in blocks of whole lines (``_whole_line_blocks``), with
    blank lines dropped.

    Per block, yields the kept lines as one ``uint8`` array, each line
    ended by LF, and the file line number (1-based) of each kept line.
    The first non-ASCII byte raises :class:`TuFormatError`.
    """
    lineno = 1
    with open(path, "rb") as fh:
        for block in _whole_line_blocks(fh):
            ends = block == _LF
            high = np.flatnonzero(block >= 0x80)
            if len(high):
                at = int(high[0])
                raise TuFormatError(
                    f"{path}:{lineno + np.count_nonzero(ends[:at])}: "
                    f"expected ASCII text, got byte 0x{block[at]:02x}")
            stops = np.flatnonzero(ends)
            starts = np.concatenate([[0], stops[:-1] + 1])
            kept = np.logical_or.reduceat(~_SPACE[block], starts)
            if kept.any():
                yield (block[np.repeat(kept, stops - starts + 1)],
                       lineno + np.flatnonzero(kept))
            lineno += len(stops)


def _parse(text: bytes | Array, columns: int) -> Array | None:
    """The int64 table of ASCII lines ``text`` (bytes-like), or None if a
    line is bad or has other than ``columns`` values."""
    try:
        table = np.loadtxt(io.BytesIO(text), delimiter=",", dtype=np.int64,
                           ndmin=2, comments=None, encoding="ascii")
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
                  if not p.strip() or _parse(p.encode(), 1) is None), text)
    return TuFormatError(
        f"{path}:{lineno}: expected an integer, got {token!r}")


def _first_bad_line(path: Path, text: Array, linenos: Array,
                    columns: int) -> TuFormatError:
    """The error for the first line of a block that ``_parse`` rejects."""
    bounds = np.concatenate([[0], np.flatnonzero(text == _LF) + 1])
    # the first bad line ends the shortest prefix that fails to parse
    good, bad = 0, len(linenos)
    while bad - good > 1:
        middle = (good + bad) // 2
        if _parse(text[:bounds[middle]], columns) is None:
            bad = middle
        else:
            good = middle
    line = text[bounds[good]:bounds[good + 1] - 1].tobytes().decode("ascii")
    return _bad_line(path, linenos[good], line.strip(), columns)


def _read_table(path: Path, columns: int) -> list[Array]:
    """Parse a file of comma-separated integers into ``(m, columns)``
    tables, one per block of lines.

    Blank and whitespace-only lines are skipped. The first bad line raises
    :class:`TuFormatError` once the whole file has been read, unless a
    non-ASCII byte comes later in the file: that is reported instead.
    """
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    tables, fault = [], None
    for text, linenos in _line_blocks(path):
        if fault is not None:
            continue  # read on only for a non-ASCII byte
        table = _parse(text, columns)
        if table is None:
            fault = _first_bad_line(path, text, linenos, columns)
        else:
            tables.append(table)
    if fault is not None:
        raise fault
    return tables


def _read_column(path: Path) -> Array:
    """The values of a file of one integer per line."""
    return np.concatenate([np.empty(0, dtype=np.int64),
                           *(table[:, 0] for table in _read_table(path, 1))])


def _line_number(path: Path, row: int) -> int:
    """The file line number of table row ``row`` of a parsed file."""
    for _, linenos in _line_blocks(path):
        if row < len(linenos):
            break
        row -= len(linenos)
    return int(linenos[row])


def _fill_adjacencies(path: Path, graph_of: Array, local_index: Array,
                      sizes: Array) -> list[Array]:
    """Read and check the edge file into one adjacency per graph, both
    orientations of every edge but no self-loops."""
    tables = _read_table(path, 2)
    num_nodes = len(graph_of)
    squares = sizes * sizes
    cells = np.zeros(int(squares.sum()))
    cell_base = np.cumsum(squares) - squares
    # the flat index of each node's row in its graph's adjacency
    row_start = cell_base[graph_of] + local_index * sizes[graph_of]
    first_row = 0
    for edges in tables:
        outside = (edges < 1) | (edges > num_nodes)
        nodes = np.where(outside, 1, edges) - 1
        ends = graph_of[nodes]
        faulty = outside.any(axis=1) | (ends[:, 0] != ends[:, 1])
        if faulty.any():
            row = int(faulty.argmax())
            u, v = edges[row]
            lineno = _line_number(path, first_row + row)
            if outside[row].any():
                endpoint = u if outside[row, 0] else v
                raise TuFormatError(
                    f"{path}:{lineno}: node id {endpoint} out of range "
                    f"1..{num_nodes}")
            raise TuFormatError(
                f"{path}:{lineno}: edge ({u}, {v}) crosses graphs "
                f"{ends[row, 0] + 1} and {ends[row, 1] + 1}")
        first_row += len(edges)
        u, v = nodes[nodes[:, 0] != nodes[:, 1]].T
        cells[row_start[u] + local_index[v]] = 1.0
        cells[row_start[v] + local_index[u]] = 1.0
    return [cells[base:base + n * n].reshape(n, n)
            for base, n in zip(cell_base, sizes)]


def load_tu_dataset(directory: str | Path, anomaly_label_value: int = 1,
                    name: str | None = None,
                    include_node_labels: bool = False) -> list[Graph]:
    """Load a TU-format directory into graphs with empty feature matrices.

    A graph is labeled 1 (anomalous) when its raw label equals
    ``anomaly_label_value`` and 0 otherwise. Node features are left as
    ``(n, 0)`` matrices pending :func:`build_features`. The adjacencies
    are views into one buffer of all their cells, which each block of edge
    lines is scattered into, once per orientation.
    """
    directory = Path(directory)
    if name is None:
        name = directory.name
    edges_path = directory / f"{name}_A.txt"
    indicator_path = directory / f"{name}_graph_indicator.txt"
    labels_path = directory / f"{name}_graph_labels.txt"

    raw_labels = _read_column(labels_path)
    num_graphs = len(raw_labels)
    if num_graphs == 0:
        raise TuFormatError(f"{labels_path}: no graph labels found")

    graph_ids = _read_column(indicator_path)
    outside = (graph_ids < 1) | (graph_ids > num_graphs)
    if outside.any():
        row = int(outside.argmax())
        raise TuFormatError(
            f"{indicator_path}:{_line_number(indicator_path, row)}: node "
            f"assigned to graph {graph_ids[row]}, but only {num_graphs} "
            f"graphs are declared")
    graph_of = graph_ids - 1  # 0-based graph of each node
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

    adjacencies = _fill_adjacencies(edges_path, graph_of, local_index, sizes)

    node_labels_per_graph = [None] * num_graphs
    if include_node_labels:
        nl_path = directory / f"{name}_node_labels.txt"
        values = _read_column(nl_path)
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
        max_degree = max(float(g.degrees.max()) for g in graphs)
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


# Adjacency cells per write block: the edge file is rendered in blocks of
# whole graphs of at most this many cells (a bigger graph is a block alone).
BLOCK_CELLS = 1 << 17


def _line_renderer(top: int) -> Callable[[Array], Array]:
    """A function that renders an ``(m, k)`` table of integers in
    ``0..top`` as ASCII text, one row per line, values joined by ``", "``,
    into a flat ``uint8`` array.

    Every value is laid out right-aligned in a fixed-width cell; a table
    lookup per value gives the cell's digits and which of them are shown
    (no leading zeros), and one boolean mask drops the rest.
    """
    width = len(str(top))
    numbers = np.arange(top + 1)
    # one row per number: its digits, then the two separator bytes
    digits = np.empty((top + 1, width + 2), dtype=np.uint8)
    shown = np.ones((top + 1, width + 2), dtype=bool)
    for place in range(width):
        power = 10 ** (width - 1 - place)
        digits[:, place] = numbers // power % 10 + ord("0")
        shown[:, place] = numbers >= power
    shown[0, width - 1] = True  # zero shows its one digit
    digits[:, width:] = np.frombuffer(b", ", dtype=np.uint8)

    def render(values: Array) -> Array:
        cells = digits.take(values, axis=0)
        visible = shown.take(values, axis=0)
        # the last value on a line ends it with "\n" instead of ", "
        cells[:, -1, width] = ord("\n")
        visible[:, -1, width + 1] = False
        return cells[visible]

    return render


def _graph_blocks(squares: Array) -> Iterator[slice]:
    """Runs of consecutive graphs with at most ``BLOCK_CELLS`` adjacency
    cells in all, given each graph's cell count; a bigger graph runs
    alone."""
    ends = np.cumsum(squares)
    start = 0
    while start < len(squares):
        limit = ends[start] - squares[start] + BLOCK_CELLS
        stop = max(start + 1, int(np.searchsorted(ends, limit, "right")))
        yield slice(start, stop)
        start = stop


def write_tu_dataset(graphs: Sequence[Graph], directory: str | Path,
                     name: str) -> None:
    """Write graphs back out as a TU-format triple (byte-deterministic).

    Each undirected edge appears in both orientations, sorted by
    (source, target), one ``"u, v"`` line each; node ids are global and
    1-indexed; labels are the stored binary labels. Lines end in LF.

    The edge file is rendered in blocks of whole graphs of at most
    ``BLOCK_CELLS`` adjacency cells: one ``flatnonzero`` over a block's
    adjacencies laid end to end gives its edges, and the decimal digits
    come from a digit table indexed by value (``_line_renderer``). So the
    transient memory is bounded by the block, not by all adjacencies:
    64 graphs of 256 nodes, 33.6 MB of adjacencies, write at a
    ``tracemalloc`` peak of 1.4 MB. The bytes are the same as
    ``"%d, %d\\n"`` formatting of each edge and ``"%d\\n"`` of each graph
    id and label. An empty graph list is a :class:`ConfigError`, because
    no loadable TU dataset has one.
    """
    if not graphs:
        raise ConfigError("cannot write a TU dataset with no graphs")
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    node_base = np.cumsum(sizes) - sizes + 1
    render_edge = _line_renderer(int(sizes.sum()))
    with open(directory / f"{name}_A.txt", "wb") as fh:
        for block in _graph_blocks(sizes * sizes):
            n = sizes[block]
            cell_base = np.cumsum(n * n) - n * n
            # the non-zero cells of the block's adjacencies, row-major
            # within each graph; node ids grow from graph to graph, so the
            # lines come out sorted
            cells = np.flatnonzero(np.concatenate(
                [g.adjacency.reshape(-1) for g in graphs[block]]))
            starts = np.searchsorted(cells, cell_base)
            owner = np.repeat(np.arange(len(n)),
                              np.diff(starts, append=len(cells)))
            rows_cols = np.divmod(cells - cell_base[owner], n[owner])
            edges = np.stack(rows_cols, axis=1) + node_base[block][owner, None]
            fh.write(render_edge(edges))
    indicator = np.repeat(np.arange(1, len(graphs) + 1), sizes)
    labels = np.array([g.label for g in graphs], dtype=np.int64)
    for suffix, values in (("graph_indicator", indicator),
                           ("graph_labels", labels)):
        with open(directory / f"{name}_{suffix}.txt", "wb") as fh:
            fh.write(_line_renderer(int(values.max()))(values[:, None]))


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
