"""Adapters wrapping every RLC answerer in the engine contract.

Eight engines ship with the library, one per answerer the paper
evaluates:

==============  =============  ==============================================
registry key    table label    backend
==============  =============  ==============================================
``rlc-index``   RLC            :class:`repro.core.RlcIndex` (Algorithm 1)
``bfs``         BFS            :class:`repro.baselines.NfaBfs`
``bibfs``       BiBFS          :class:`repro.baselines.NfaBiBfs`
``dfs``         DFS            :class:`repro.baselines.NfaDfs`
``etc``         ETC            :class:`repro.baselines.ExtendedTransitiveClosure`
``sys1``        Sys1           :class:`repro.bench.engines.Sys1PropertyGraphEngine`
``sys2``        Sys2           :class:`repro.bench.engines.Sys2RdfEngine`
``virtuoso-sim``  VirtuosoSim  :class:`repro.bench.engines.VirtuosoSimEngine`
==============  =============  ==============================================

``rlc`` is an alias of ``rlc-index``.

Each adapter defines only the two hooks of
:class:`~repro.engine.base.EngineBase`: ``_prepare`` builds its
backend and ``_evaluate`` answers one already-validated query.  The
RLC index probes its per-``MR`` hub lists (:meth:`RlcIndex.query_mr`),
the traversal baselines run their product search on the prepared
constraint automaton, and ETC's probe is a bare hash lookup.  The
three simulated Table V systems answer through their own revalidating
``query`` — per-query overhead is part of what they simulate.  Point
queries, prepared queries and batches (one ``prepare_query`` per
distinct constraint) all reach the backend through that one hook.
Every engine can extract witness paths — a product BFS over the bound
graph — except one adopted around a loaded index
(``RlcIndexEngine.from_index``), which has no graph to walk, as
:attr:`~repro.engine.base.EngineBase.witness_ready` reports.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines import (
    ExtendedTransitiveClosure,
    NfaBfs,
    NfaBiBfs,
    NfaDfs,
)
from repro.baselines.bfs import evaluate_nfa_bfs
from repro.baselines.bibfs import evaluate_nfa_bibfs
from repro.baselines.dfs import evaluate_nfa_dfs
from repro.core import build_rlc_index
from repro.core.index import RlcIndex
from repro.engine.base import EngineBase, PreparedQuery
from repro.engine.registry import register, register_alias
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


@register
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
    def from_index(cls, index: RlcIndex) -> "RlcIndexEngine":
        """Wrap an already-built (e.g. loaded) index; skips prepare()."""
        engine = cls(k=index.k)
        engine._backend = index
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


class _TraversalEngineAdapter(EngineBase):
    """Base for the online traversal baselines (BFS / DFS / BiBFS).

    Each binds an evaluator function ``(graph, source, target, nfa) ->
    bool`` and runs it on the
    :attr:`~repro.engine.base.PreparedQuery.nfa`, compiled once per
    prepared constraint instead of once per query.
    """

    _evaluator = None

    def _evaluate(self, backend, prepared: PreparedQuery, source, target) -> bool:
        """Product search on the prepared constraint automaton."""
        return type(self)._evaluator(backend.graph, source, target, prepared.nfa)


@register
class BfsEngine(_TraversalEngineAdapter):
    """Online NFA-guided breadth-first traversal (Section III-B)."""

    name = "bfs"
    display_name = "BFS"
    _evaluator = staticmethod(evaluate_nfa_bfs)

    def _prepare(self, graph: EdgeLabeledDigraph) -> NfaBfs:
        return NfaBfs(graph)


@register
class BiBfsEngine(_TraversalEngineAdapter):
    """Bidirectional product BFS, the strongest online baseline."""

    name = "bibfs"
    display_name = "BiBFS"
    _evaluator = staticmethod(evaluate_nfa_bibfs)

    def _prepare(self, graph: EdgeLabeledDigraph) -> NfaBiBfs:
        return NfaBiBfs(graph)


@register
class DfsEngine(_TraversalEngineAdapter):
    """Depth-first variant of the online traversal baseline."""

    name = "dfs"
    display_name = "DFS"
    _evaluator = staticmethod(evaluate_nfa_dfs)

    def _prepare(self, graph: EdgeLabeledDigraph) -> NfaDfs:
        return NfaDfs(graph)


@register
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


class _SimulatedEngineAdapter(EngineBase):
    """Base for the Table V simulated mainstream systems.

    These answer through the backend's own revalidating ``query`` —
    their per-query fixed costs are part of the system behaviour they
    simulate.
    """

    def _evaluate(self, backend, prepared: PreparedQuery, source, target) -> bool:
        return backend.query(source, target, prepared.labels)


@register
class Sys1Engine(_SimulatedEngineAdapter):
    """Simulated tuple-at-a-time property-graph engine (Table V's Sys1)."""

    name = "sys1"
    display_name = "Sys1"

    def _prepare(self, graph: EdgeLabeledDigraph):
        from repro.bench.engines import Sys1PropertyGraphEngine

        return Sys1PropertyGraphEngine(graph)


@register
class Sys2Engine(_SimulatedEngineAdapter):
    """Simulated set-at-a-time semi-naive RDF engine (Table V's Sys2)."""

    name = "sys2"
    display_name = "Sys2"

    def _prepare(self, graph: EdgeLabeledDigraph):
        from repro.bench.engines import Sys2RdfEngine

        return Sys2RdfEngine(graph)


@register
class VirtuosoSimEngine(_SimulatedEngineAdapter):
    """Simulated SPARQL-style transitive evaluation (Table V's Virtuoso)."""

    name = "virtuoso-sim"
    display_name = "VirtuosoSim"

    def _prepare(self, graph: EdgeLabeledDigraph):
        from repro.bench.engines import VirtuosoSimEngine as _Backend

        return _Backend(graph)


register_alias("rlc", "rlc-index")
