"""Graph persistence: text edge lists and compact ``.npz`` binaries.

Two formats are supported:

- **Text edge list** — one ``source label target`` triple per line,
  whitespace-separated, ``#`` comments allowed.  Tokens may be names or
  integers; names are interned.  This is the interchange format used by
  SNAP/KONECT-style datasets the paper evaluates on.
- **NPZ binary** — numpy arrays plus the label dictionary, loading a
  large graph orders of magnitude faster than re-parsing text.  Label
  names are stored as fixed-width unicode, so loading never unpickles.
"""

from __future__ import annotations

import os
from typing import List, Union

import numpy as np

from repro.errors import SerializationError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.sequences import LabelDictionary

__all__ = [
    "load_graph",
    "load_graph_npz",
    "read_edge_list",
    "save_graph_npz",
    "write_edge_list",
]

PathLike = Union[str, os.PathLike]

_FORMAT_VERSION = 1


def read_edge_list(path: PathLike) -> EdgeLabeledDigraph:
    """Parse a whitespace-separated ``source label target`` file."""
    builder = GraphBuilder()
    numeric = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise SerializationError(
                    f"{path}:{line_number}: expected 'source label target', got {stripped!r}"
                )
            source, label, target = parts
            if numeric is None:
                numeric = source.isdigit() and target.isdigit()
            if numeric:
                builder.add_edge(int(source), _coerce_label(label), int(target))
            else:
                builder.add_edge(source, _coerce_label(label), target)
    return builder.build()


def _coerce_label(token: str):
    return int(token) if token.isdigit() else token


def write_edge_list(graph: EdgeLabeledDigraph, path: PathLike) -> None:
    """Write the graph in the text edge-list format (names when available)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# |V|={graph.num_vertices} |E|={graph.num_edges} |L|={graph.num_labels}\n")
        for source, label, target in graph.edges():
            if graph.label_dictionary is not None:
                handle.write(f"{source} {graph.label_name(label)} {target}\n")
            else:
                handle.write(f"{source} {label} {target}\n")


def save_graph_npz(graph: EdgeLabeledDigraph, path: PathLike) -> None:
    """Persist the graph as a compressed numpy archive (no pickles)."""
    sources, labels, targets = graph.edge_arrays()
    names = list(graph.label_dictionary) if graph.label_dictionary is not None else []
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        num_vertices=np.int64(graph.num_vertices),
        num_labels=np.int64(graph.num_labels),
        sources=sources,
        labels=labels,
        targets=targets,
        label_names=np.asarray(names, dtype=str),
    )


def load_graph_npz(path: PathLike) -> EdgeLabeledDigraph:
    """Load a graph written by :func:`save_graph_npz`; never unpickles anything."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            version = int(archive["format_version"])
            if version != _FORMAT_VERSION:
                raise SerializationError(
                    f"unsupported graph format version {version} in {path}"
                )
            names = _label_names(archive, path)
            dictionary = LabelDictionary(names) if names else None
            triples = np.column_stack(
                (archive["sources"], archive["labels"], archive["targets"])
            )
            return EdgeLabeledDigraph(
                int(archive["num_vertices"]),
                triples,
                num_labels=int(archive["num_labels"]) if dictionary is None else None,
                label_dictionary=dictionary,
            )
    except SerializationError:
        raise
    except Exception as exc:  # corrupt archives raise various zip/value errors
        raise SerializationError(f"failed to load graph from {path}: {exc}") from exc


def _label_names(archive, path: PathLike) -> List[str]:
    """The archive's label names, read without unpickling.

    Archives written before names were stored as unicode hold them as
    an object array.  An empty one (a graph without names) still loads;
    its ``.npy`` header says so, and its payload is never read.  Any
    other object array is refused.
    """
    with archive.zip.open("label_names.npy") as member:
        version = np.lib.format.read_magic(member)
        read_header = (
            np.lib.format.read_array_header_1_0
            if version == (1, 0)
            else np.lib.format.read_array_header_2_0
        )
        shape, _, dtype = read_header(member)
    if not dtype.hasobject:
        return archive["label_names"].tolist()
    if shape == (0,):
        return []
    raise SerializationError(
        f"{path} stores its label names as pickled objects, which are no longer "
        "loaded; load it with repro < 1.17 and save it again with save_graph_npz, "
        "or regenerate it with `repro dataset`, to store them as text"
    )


def load_graph(path: PathLike) -> EdgeLabeledDigraph:
    """Load a graph, dispatching on the file extension (.npz or text)."""
    if str(path).endswith(".npz"):
        return load_graph_npz(path)
    return read_edge_list(path)
