"""TU I/O across block cuts: the loader's parse blocks and the writer's
blocks of graphs, at their smallest sizes and at sizes between.

At ``BLOCK_BYTES = 1`` every parse block holds one line, so every line
break is a cut; at ``BLOCK_CELLS = 1`` every graph is a write block of its
own. The tests imported from ``test_tu`` run again here under both.
"""

from __future__ import annotations

import io
import re

import numpy as np
import pytest

import gladcf.tu as tu
from gladcf.errors import TuFormatError
from gladcf.tu import load_tu_dataset, write_tu_dataset

from test_tu import (_graph, _percent_formatted, _small_and_edgeless_graphs,
                     _triangle_plus_edge, test_crlf_and_blank_lines_load,
                     test_edge_file_names_its_first_faulty_line,
                     test_line_numbers_count_blank_lines,
                     test_load_inverts_write,
                     test_malformed_file_names_its_line,
                     test_write_golden_bytes,
                     test_write_matches_percent_formatting)
from util import path_adjacency

__all__ = ["test_crlf_and_blank_lines_load",
           "test_edge_file_names_its_first_faulty_line",
           "test_line_numbers_count_blank_lines", "test_load_inverts_write",
           "test_malformed_file_names_its_line", "test_write_golden_bytes",
           "test_write_matches_percent_formatting"]


@pytest.fixture(autouse=True)
def smallest_blocks(monkeypatch):
    monkeypatch.setattr(tu, "BLOCK_BYTES", 1)
    monkeypatch.setattr(tu, "BLOCK_CELLS", 1)


def test_every_line_is_a_block_and_crlf_pairs_stay_whole(monkeypatch):
    # every break (LF, CRLF or CR) is read as one LF
    text = b"1, 2\r\n\r\n \t\r3, 4\r\r\n5, 6"
    blocks = [bytes(b) for b in tu._whole_line_blocks(io.BytesIO(text))]
    assert blocks == [b"1, 2\n", b"\n", b" \t\n", b"3, 4\n", b"\n",
                      b"5, 6\n"]
    # at 8 bytes, a block holds the most whole lines that fit, the last
    # line too once the end of the file has ended it
    monkeypatch.setattr(tu, "BLOCK_BYTES", 8)
    blocks = [bytes(b) for b in tu._whole_line_blocks(io.BytesIO(text))]
    assert blocks == [b"1, 2\n\n", b" \t\n3, 4\n", b"\n5, 6\n"]


# (edge file, expected message) on the TOY set, each fault behind blank,
# whitespace-only, CRLF and CR lines that the cuts fall between
FAULTS = [
    (b"1, 2\r\n \r\n\t\r\r\n3, 4\r\n", "A.txt:5: edge (3, 4) crosses"),
    (b"1, 2\r\n\r\n1, 99\r\n", "A.txt:3: node id 99 out of range"),
    (b"1, 2\r \r\n\r10, 11\r", "A.txt:4: node id 10 out of range"),
    (b"1, 2\r\n  \r\n2, 3,\r\n", "A.txt:3: expected 'u, v', got '2, 3,'"),
    (b"1, 2\n\n1, 2\xe9\n", "A.txt:3: expected ASCII text, got byte 0xe9"),
    # a parse fault is reported before a range fault on an earlier line,
    # and a non-ASCII byte before a parse fault on an earlier line
    (b"1, 99\r\n\r\nponies\r\n", "A.txt:3: expected 'u, v', got 'ponies'"),
    (b"ponies\r\n1, 2\r\n\r\n2, \xff\r\n", "A.txt:4: expected ASCII"),
]


@pytest.mark.parametrize("block_bytes", [1, 2, 3, 5, 8, 13, 1 << 18])
@pytest.mark.parametrize("content,message", FAULTS)
def test_faults_keep_their_line_across_cuts(tmp_path, monkeypatch,
                                            block_bytes, content, message):
    monkeypatch.setattr(tu, "BLOCK_BYTES", block_bytes)
    _triangle_plus_edge(tmp_path)
    (tmp_path / "TOY_A.txt").write_bytes(content)
    with pytest.raises(TuFormatError, match=re.escape(f"TOY_{message}")):
        load_tu_dataset(tmp_path, name="TOY")


def _nine_then_ten_graphs():
    # node ids 1..9 in the first graph and 10..12 in the second
    return [_graph(path_adjacency(9), 1), _graph(path_adjacency(3), 0)]


@pytest.mark.parametrize("block_cells", [1, 81, 90, 1 << 17])
def test_ids_widen_across_a_write_block(tmp_path, monkeypatch, block_cells):
    monkeypatch.setattr(tu, "BLOCK_CELLS", block_cells)
    graphs = _nine_then_ten_graphs()
    write_tu_dataset(graphs, tmp_path, "W")
    edges = (tmp_path / "W_A.txt").read_bytes()
    assert edges == _percent_formatted(graphs)["A"].encode("ascii")
    assert b"9, 8\n10, 11\n" in edges


@pytest.mark.parametrize("block_bytes", [1, 5, 6, 7, 1 << 18])
def test_ids_widen_across_a_parse_block(tmp_path, monkeypatch, block_bytes):
    # "9, 8\n" is five bytes: small blocks cut before "10, 11\n"
    monkeypatch.setattr(tu, "BLOCK_BYTES", block_bytes)
    graphs = _nine_then_ten_graphs()
    write_tu_dataset(graphs, tmp_path, "W")
    back = load_tu_dataset(tmp_path, name="W")
    for orig, loaded in zip(graphs, back):
        np.testing.assert_array_equal(loaded.adjacency, orig.adjacency)


def test_a_write_block_of_edgeless_graphs(tmp_path, monkeypatch):
    # 9 + 9 + 1 + 9 cells in blocks of at most 10: the middle block holds
    # the two edgeless graphs and writes no line
    monkeypatch.setattr(tu, "BLOCK_CELLS", 10)
    graphs = [_graph(path_adjacency(3), 0), _graph(np.zeros((3, 3)), 1),
              _graph(np.zeros((1, 1)), 0), _graph(path_adjacency(3), 1)]
    squares = np.array([g.num_nodes ** 2 for g in graphs])
    assert list(tu._graph_blocks(squares)) == [
        slice(0, 1), slice(1, 3), slice(3, 4)]
    write_tu_dataset(graphs, tmp_path, "W")
    for suffix, text in _percent_formatted(graphs).items():
        assert (tmp_path / f"W_{suffix}.txt").read_bytes() == \
            text.encode("ascii"), suffix


@pytest.mark.parametrize("block_cells", [2, 16, 17, 100, 1 << 17])
def test_write_blocks_do_not_change_the_bytes(tmp_path, monkeypatch,
                                              block_cells):
    monkeypatch.setattr(tu, "BLOCK_CELLS", block_cells)
    graphs = _small_and_edgeless_graphs()
    write_tu_dataset(graphs, tmp_path, "W")
    for suffix, text in _percent_formatted(graphs).items():
        assert (tmp_path / f"W_{suffix}.txt").read_bytes() == \
            text.encode("ascii"), suffix
