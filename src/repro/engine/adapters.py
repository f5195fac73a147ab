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

Every adapter answers through the **prepared-query lifecycle**
(:meth:`~repro.engine.base.EngineBase.prepare_query` /
:meth:`~repro.engine.base.EngineBase.query_prepared`), each with a
validation-free evaluation hook: the RLC index probes its per-``MR``
hub lists (memoized per prepared constraint), the traversal baselines
run their product search on the prepared constraint automaton instead
of recompiling it, and ETC's probe is a bare hash lookup.  The three
simulated Table V systems keep the revalidating fallback — per-query
overhead is part of what they simulate.

Every non-simulated adapter also has a genuinely batched
``query_batch`` (capability ``batch-grouped``):
:class:`RlcIndexEngine` groups queries by constraint, validates each
distinct constraint once, and reuses the index's per-``MR`` hub lists
across queries sharing an ``MR`` (the measured win over
query-at-a-time execution is pinned by
``benchmarks/bench_micro_operations.py``); the traversal baselines
(BFS/DFS/BiBFS) and ETC apply the same grouping — one constraint
validation and one compiled NFA (resp. one validated lookup key) per
distinct constraint, via
:func:`repro.baselines.batch.batched_product_queries` and
:meth:`ExtendedTransitiveClosure.query_batch`.  All eight advertise
``witness`` — witness extraction is a product BFS over the bound
graph, engine-independent — but an engine adopted around a loaded
index (``RlcIndexEngine.from_index``) has no graph to walk, which
:attr:`~repro.engine.base.EngineBase.witness_ready` reports.
"""

from __future__ import annotations

from typing import List, Optional

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
from repro.queries import RlcQuery

#: Per-constraint hub-list memos are cleared wholesale past this many
#: vertices, which bounds their memory at no bookkeeping cost.
_HUB_MEMO_LIMIT = 1 << 16

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
    """The RLC index (the paper's contribution), with batched execution."""

    name = "rlc-index"
    display_name = "RLC"
    capabilities = frozenset({"witness", "batch-grouped"})

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

    def _answer(self, index: RlcIndex, source, target, labels) -> bool:
        return index.query(source, target, labels)

    def _compile_prepared(self, prepared: PreparedQuery) -> None:
        """Seed the per-constraint hub-list memo this adapter fills."""
        self.prepared_state_for(prepared).setdefault("hubs", ({}, {}))

    def _answer_prepared(
        self, index: RlcIndex, source, target, prepared: PreparedQuery
    ) -> bool:
        """Validated hub probe with per-constraint hub-list memoization.

        The same evaluation unit as one :meth:`RlcIndex.query_batch`
        group: this engine's private state for the prepared constraint
        carries the per-vertex hub-list caches, so repeated endpoints
        under one constraint cost two dict probes plus a binary
        search.  The memo is bounded: past ``_HUB_MEMO_LIMIT`` entries
        a cache is cleared wholesale.
        """
        state = self.prepared_state_for(prepared)
        caches = state.get("hubs")
        if caches is None:
            caches = ({}, {})
            state["hubs"] = caches
        out_cache, in_cache = caches
        if len(out_cache) >= _HUB_MEMO_LIMIT:
            out_cache.clear()
        if len(in_cache) >= _HUB_MEMO_LIMIT:
            in_cache.clear()
        return index.query_mr(
            source, target, prepared.labels, out_cache=out_cache, in_cache=in_cache
        )

    def _answer_batch(self, index: RlcIndex, queries: List[RlcQuery]) -> List[bool]:
        """The real batched path: :meth:`RlcIndex.query_batch`.

        The algorithm lives in :mod:`repro.core.index` next to its
        point-query siblings (one validation per distinct constraint,
        hub lists reused across queries sharing an ``MR``); the adapter
        only contributes the engine-contract plumbing.
        """
        return index.query_batch(queries)


class _TraversalEngineAdapter(EngineBase):
    """Base for the online traversal baselines (BFS / DFS / BiBFS).

    Each binds an evaluator function ``(graph, source, target, nfa) ->
    bool``; the prepared path reuses the
    :attr:`~repro.engine.base.PreparedQuery.nfa` compiled once at
    prepare time instead of rebuilding the constraint automaton per
    query.
    """

    capabilities = frozenset({"witness", "batch-grouped"})
    _evaluator = None

    def _answer(self, backend, source, target, labels) -> bool:
        return backend.query(source, target, labels)

    def _answer_prepared(
        self, backend, source, target, prepared: PreparedQuery
    ) -> bool:
        """Product search on the prepared constraint automaton."""
        return type(self)._evaluator(self.graph, source, target, prepared.nfa)

    def _answer_batch(self, backend, queries: List[RlcQuery]) -> List[bool]:
        """Grouped batched path: one NFA per distinct constraint."""
        return backend.query_batch(queries)


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
    capabilities = frozenset({"witness", "batch-grouped"})

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

    def _answer(self, backend: ExtendedTransitiveClosure, source, target, labels) -> bool:
        return backend.query(source, target, labels)

    def _answer_prepared(
        self,
        backend: ExtendedTransitiveClosure,
        source,
        target,
        prepared: PreparedQuery,
    ) -> bool:
        """Validated closure probe: one hash lookup, no re-validation."""
        return backend.query_mr(source, target, prepared.labels)

    def _answer_batch(
        self, backend: ExtendedTransitiveClosure, queries: List[RlcQuery]
    ) -> List[bool]:
        """Grouped batched path: one constraint validation per group."""
        return backend.query_batch(queries)


class _SimulatedEngineAdapter(EngineBase):
    """Base for the Table V simulated mainstream systems.

    These keep the revalidating fallback on the prepared path too —
    their per-query fixed costs are part of the system behaviour they
    simulate — so they advertise ``witness`` (extraction is
    graph-level) but not ``batch-grouped``.
    """

    capabilities = frozenset({"witness"})

    def _answer(self, backend, source, target, labels) -> bool:
        return backend.query(source, target, labels)


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
