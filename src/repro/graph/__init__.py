"""Edge-labeled directed graph substrate.

Everything in the paper runs over an edge-labeled digraph
``G = (V, E, L)`` with ``E`` a *set* of labeled edges (parallel edges
with distinct labels are allowed, exact duplicates are not).  This
subpackage provides:

- :class:`EdgeLabeledDigraph` — immutable CSR-style storage with
  label-partitioned adjacency (the hot path of kernel-based search);
- :class:`GraphBuilder` — mutable accumulation with string labels;
- :mod:`repro.graph.io` — text edge-list and compact ``.npz`` formats;
- :mod:`repro.graph.stats` — Table III statistics (loops, triangles,
  degrees, label histograms);
- :mod:`repro.graph.generators` — Erdos-Renyi / Barabasi-Albert /
  copying-model generators with Zipfian labels, plus the paper's
  running-example graphs (Fig. 1 and Fig. 2);
- :mod:`repro.graph.datasets` — deterministic synthetic stand-ins for
  the 13 real-world graphs of Table III.
"""

from repro.graph.digraph import EdgeLabeledDigraph
from repro.graph.builder import GraphBuilder
from repro.graph.io import (
    load_graph,
    load_graph_npz,
    read_edge_list,
    save_graph_npz,
    write_edge_list,
)
from repro.graph.stats import GraphStats, compute_stats
from repro.graph import datasets, generators
from repro.graph.paths import is_path, path_labels, random_walk

__all__ = [
    "EdgeLabeledDigraph",
    "GraphBuilder",
    "GraphStats",
    "compute_stats",
    "datasets",
    "generators",
    "is_path",
    "load_graph",
    "load_graph_npz",
    "path_labels",
    "random_walk",
    "read_edge_list",
    "save_graph_npz",
    "write_edge_list",
]
