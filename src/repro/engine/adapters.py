"""Adapters wrapping every RLC answerer in the engine contract.

Eight engines ship with the library, one per answerer the paper
evaluates:

================  =============  ================================================
registry key      table label    backend
================  =============  ================================================
``rlc-index``     RLC            :class:`repro.core.RlcIndex` (Algorithm 1)
``bfs``           BFS            :class:`repro.baselines.NfaBfs`
``bibfs``         BiBFS          :class:`repro.baselines.NfaBiBfs`
``dfs``           DFS            :class:`repro.baselines.NfaDfs`
``etc``           ETC            :class:`repro.baselines.ExtendedTransitiveClosure`
``sys1``          Sys1           :class:`repro.baselines.simulated.Sys1PropertyGraphEngine`
``sys2``          Sys2           :class:`repro.baselines.simulated.Sys2RdfEngine`
``virtuoso-sim``  VirtuosoSim    :class:`repro.baselines.simulated.VirtuosoSimEngine`
================  =============  ================================================

:mod:`repro.engine.registry` lists them in a fixed table, with ``rlc``
as an alias of ``rlc-index``.

Each adapter defines only the two hooks of
:class:`~repro.engine.base.EngineBase`: ``_prepare`` builds its
backend and ``_evaluate`` answers one already-validated query.  The
RLC index probes its per-``MR`` hub lists (:meth:`RlcIndex.query_mr`)
and ETC's probe is a bare hash lookup.  The six online answerers —
three traversal baselines and three simulated Table V systems — share
one adapter, :class:`_OnlineEngine`: each names its backend class as
``traversal`` and runs that backend's search loop on the prepared
constraint automaton, compiled once per prepared constraint.  Point
queries, prepared queries and batches (one ``prepare_query`` per
distinct constraint) all reach the backend through that one hook.
"""

from __future__ import annotations

from typing import Optional, Type

from repro.baselines import (
    ExtendedTransitiveClosure,
    NfaBfs,
    NfaBiBfs,
    NfaDfs,
)
from repro.baselines import simulated
from repro.baselines.bfs import _NfaTraversal
from repro.core import build_rlc_index
from repro.core.index import RlcIndex
from repro.engine.base import EngineBase, PreparedQuery
from repro.errors import GraphError
from repro.graph.digraph import EdgeLabeledDigraph

__all__ = [
    "BfsEngine",
    "BiBfsEngine",
    "DfsEngine",
    "EtcEngine",
    "RlcIndexEngine",
    "Sys1Engine",
    "Sys2Engine",
    "VirtuosoSimEngine",
]


class RlcIndexEngine(EngineBase):
    """The RLC index (the paper's contribution)."""

    name = "rlc-index"
    display_name = "RLC"

    def __init__(
        self,
        *,
        k: int = 2,
        strategy: str = "eager",
        ordering: str = "in-out",
        use_pr1: bool = True,
        use_pr2: bool = True,
        use_pr3: bool = True,
        seed: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> None:
        super().__init__()
        self._k = k
        self._strategy = strategy
        self._ordering = ordering
        self._use_pr1 = use_pr1
        self._use_pr2 = use_pr2
        self._use_pr3 = use_pr3
        self._seed = seed
        self._time_budget = time_budget

    @classmethod
    def from_index(
        cls, index: RlcIndex, graph: Optional[EdgeLabeledDigraph] = None
    ) -> "RlcIndexEngine":
        """Wrap an already-built (e.g. loaded) index; skips prepare().

        ``graph``, when given, is bound as the graph the index was built
        over, so a session adopting the engine can extract witness
        paths.  An index carries no edges, so only the sizes can be
        checked: a graph whose vertex or label count differs from the
        index's raises :class:`~repro.errors.GraphError`.
        """
        if graph is not None and (
            graph.num_vertices != index.num_vertices
            or graph.num_labels != index.num_labels
        ):
            raise GraphError(
                f"graph {graph!r} has {graph.num_vertices} vertices / "
                f"{graph.num_labels} labels but the index was built over "
                f"{index.num_vertices} vertices / {index.num_labels} labels"
            )
        engine = cls(k=index.k)
        engine._backend = index
        engine._graph = graph
        return engine

    @property
    def k(self) -> int:
        return self._k

    def _prepare(self, graph: EdgeLabeledDigraph) -> RlcIndex:
        return build_rlc_index(
            graph,
            self._k,
            strategy=self._strategy,
            ordering=self._ordering,
            use_pr1=self._use_pr1,
            use_pr2=self._use_pr2,
            use_pr3=self._use_pr3,
            seed=self._seed,
            time_budget=self._time_budget,
        )

    def _evaluate(
        self, index: RlcIndex, prepared: PreparedQuery, source, target
    ) -> bool:
        return index.query_mr(source, target, prepared.labels)


class _OnlineEngine(EngineBase):
    """Base of the six online answerers: one product search per query.

    ``traversal`` names the backend class; its ``evaluate`` runs on the
    :attr:`~repro.engine.base.PreparedQuery.nfa`, compiled once per
    prepared constraint instead of once per query.
    """

    traversal: Type[_NfaTraversal]

    def _prepare(self, graph: EdgeLabeledDigraph) -> _NfaTraversal:
        return self.traversal(graph)

    def _evaluate(
        self, backend: _NfaTraversal, prepared: PreparedQuery, source, target
    ) -> bool:
        return backend.evaluate(source, target, prepared.nfa)


class BfsEngine(_OnlineEngine):
    """Online NFA-guided breadth-first traversal (Section III-B)."""

    name = "bfs"
    display_name = "BFS"
    traversal = NfaBfs


class BiBfsEngine(_OnlineEngine):
    """Bidirectional product BFS, the strongest online baseline."""

    name = "bibfs"
    display_name = "BiBFS"
    traversal = NfaBiBfs


class DfsEngine(_OnlineEngine):
    """Depth-first variant of the online traversal baseline."""

    name = "dfs"
    display_name = "DFS"
    traversal = NfaDfs


class EtcEngine(EngineBase):
    """Extended transitive closure, the materialized extreme (Table IV)."""

    name = "etc"
    display_name = "ETC"

    def __init__(
        self,
        *,
        k: int = 2,
        time_budget: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._k = k
        self._time_budget = time_budget
        self._max_entries = max_entries

    @property
    def k(self) -> int:
        return self._k

    def _prepare(self, graph: EdgeLabeledDigraph) -> ExtendedTransitiveClosure:
        return ExtendedTransitiveClosure.build(
            graph,
            self._k,
            time_budget=self._time_budget,
            max_entries=self._max_entries,
        )

    def _evaluate(
        self,
        backend: ExtendedTransitiveClosure,
        prepared: PreparedQuery,
        source,
        target,
    ) -> bool:
        """Validated closure probe: one hash lookup, no re-validation."""
        return backend.query_mr(source, target, prepared.labels)


class Sys1Engine(_OnlineEngine):
    """Simulated tuple-at-a-time property-graph engine (Table V's Sys1)."""

    name = "sys1"
    display_name = "Sys1"
    traversal = simulated.Sys1PropertyGraphEngine


class Sys2Engine(_OnlineEngine):
    """Simulated set-at-a-time semi-naive RDF engine (Table V's Sys2)."""

    name = "sys2"
    display_name = "Sys2"
    traversal = simulated.Sys2RdfEngine


class VirtuosoSimEngine(_OnlineEngine):
    """Simulated SPARQL-style transitive evaluation (Table V's Virtuoso)."""

    name = "virtuoso-sim"
    display_name = "VirtuosoSim"
    traversal = simulated.VirtuosoSimEngine
