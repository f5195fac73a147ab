"""Tests for graph persistence (text edge lists and npz binaries)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import EdgeLabeledDigraph
from repro.graph.generators import paper_figure1
from repro.graph.io import (
    load_graph,
    load_graph_npz,
    read_edge_list,
    save_graph_npz,
    write_edge_list,
)
from tests.helpers import CreatesMarker


@pytest.fixture
def named_graph():
    b = GraphBuilder()
    b.add_edge("alice", "knows", "bob")
    b.add_edge("bob", "worksFor", "carol")
    b.add_edge("carol", "knows", "alice")
    return b.build()


class TestEdgeList:
    def test_round_trip_named_labels(self, tmp_path, named_graph):
        path = tmp_path / "g.txt"
        write_edge_list(named_graph, path)
        loaded = read_edge_list(path)
        assert loaded.num_vertices == named_graph.num_vertices
        assert sorted(loaded.edges()) == sorted(named_graph.edges())

    def test_round_trip_integer_graph(self, tmp_path):
        g = EdgeLabeledDigraph(3, [(0, 0, 1), (1, 1, 2)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert sorted(loaded.edges()) == sorted(g.edges())

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 7 1\n# more\n1 7 0\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(SerializationError, match="expected"):
            read_edge_list(path)

    def test_name_tokens(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a knows b\nb knows a\n")
        g = read_edge_list(path)
        assert g.num_vertices == 2
        assert g.label_name(0) == "knows"

    def test_figure1_round_trip(self, tmp_path):
        g = paper_figure1()
        path = tmp_path / "fig1.txt"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert loaded.num_edges == g.num_edges
        assert loaded.num_labels == g.num_labels


class TestNpz:
    def test_round_trip(self, tmp_path, named_graph):
        path = tmp_path / "g.npz"
        save_graph_npz(named_graph, path)
        loaded = load_graph_npz(path)
        assert loaded == named_graph
        assert loaded.label_dictionary == named_graph.label_dictionary

    def test_round_trip_without_dictionary(self, tmp_path):
        g = EdgeLabeledDigraph(3, [(0, 2, 1)], num_labels=5)
        path = tmp_path / "g.npz"
        save_graph_npz(g, path)
        loaded = load_graph_npz(path)
        assert loaded == g
        assert loaded.num_labels == 5
        assert loaded.label_dictionary is None

    def test_empty_graph(self, tmp_path):
        g = EdgeLabeledDigraph(4, [])
        path = tmp_path / "g.npz"
        save_graph_npz(g, path)
        assert load_graph_npz(path).num_vertices == 4

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an npz archive")
        with pytest.raises(SerializationError):
            load_graph_npz(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_graph_npz(tmp_path / "absent.npz")


class TestDispatch:
    def test_load_graph_npz_extension(self, tmp_path, named_graph):
        path = tmp_path / "g.npz"
        save_graph_npz(named_graph, path)
        assert load_graph(path) == named_graph

    def test_load_graph_text(self, tmp_path, named_graph):
        path = tmp_path / "g.edges"
        write_edge_list(named_graph, path)
        assert sorted(load_graph(path).edges()) == sorted(named_graph.edges())


def _saved_arrays(tmp_path, graph):
    path = tmp_path / "saved.npz"
    save_graph_npz(graph, path)
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


class TestLoadRunsNoCode:
    """``load_graph_npz`` never unpickles, whatever the archive holds."""

    def test_pickled_label_names_rejected(self, tmp_path, named_graph):
        arrays = _saved_arrays(tmp_path, named_graph)
        marker = tmp_path / "marker"
        label_names = np.empty(1, dtype=object)
        label_names[0] = CreatesMarker(marker)
        arrays["label_names"] = label_names
        crafted = tmp_path / "crafted.npz"
        np.savez(crafted, **arrays)
        with pytest.raises(SerializationError, match="pickled"):
            load_graph_npz(crafted)
        assert not marker.exists()

    def test_old_named_archive_names_the_rebuild(self, tmp_path, named_graph):
        arrays = _saved_arrays(tmp_path, named_graph)
        names = list(named_graph.label_dictionary)
        arrays["label_names"] = np.asarray(names, dtype=object)
        path = tmp_path / "old-named.npz"
        np.savez_compressed(path, **arrays)
        with pytest.raises(SerializationError, match="save_graph_npz"):
            load_graph_npz(path)

    def test_old_archive_without_names_still_loads(self, tmp_path):
        # Every stand-in and generator graph was saved this way.
        g = EdgeLabeledDigraph(3, [(0, 2, 1), (1, 0, 1)], num_labels=5)
        sources, labels, targets = g.edge_arrays()
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            format_version=np.int64(1),
            num_vertices=np.int64(3),
            num_labels=np.int64(5),
            sources=sources,
            labels=labels,
            targets=targets,
            label_names=np.asarray([], dtype=object),
        )
        loaded = load_graph_npz(path)
        assert loaded == g
        assert loaded.label_dictionary is None

    def test_label_names_saved_as_plain_strings(self, tmp_path, named_graph):
        path = tmp_path / "g.npz"
        save_graph_npz(named_graph, path)
        with np.load(path, allow_pickle=False) as archive:
            assert archive["label_names"].dtype.kind == "U"
        loaded = load_graph_npz(path)
        assert list(loaded.label_dictionary) == list(named_graph.label_dictionary)
        assert loaded == named_graph
