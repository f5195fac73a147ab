"""The engine contract every RLC answerer satisfies.

Survey work on reachability indexing describes every index and online
traversal through one lookup interface, whatever the answerer is.
This module defines that contract for the repro library:

- :class:`PreparedQuery` — an RLC constraint validated **once**
  (normalized labels, lazily compiled constraint automaton) and
  reusable across any ``(source, target)`` pair and across engines;
- :class:`EngineBase` — the contract (``name``, ``prepare``,
  ``prepare_query``, ``query_prepared``, ``query_batch``) that callers
  such as :class:`repro.engine.QueryService` and the benchmark harness
  program against, and the scaffolding every adapter inherits.

An engine answers a bool.  The structured
:class:`~repro.queries.QueryOutcome` is built by the service that
calls it.

An engine is read-only after :meth:`~EngineBase.prepare` (which sets
``prepare_seconds``): it keeps no counters and takes no lock, so
threads may share it.  Per-query counters live in its ``QueryService``.

An adapter supplies exactly two hooks: ``_prepare(graph)`` builds its
backend, and ``_evaluate(backend, prepared, source, target) -> bool``
answers one query whose constraint and endpoints are already
validated.  Everything else lives here, once, and applies the rules of
:mod:`repro.queries`, once per query: :meth:`~EngineBase.prepare_query`
validates a constraint against the engine's label universe and
recursive bound, and stamps the :class:`PreparedQuery` it builds with
the engine's backend, so that object later passes through unchecked;
:meth:`~EngineBase.query_prepared` is the one place that checks
endpoints and calls ``_evaluate``, and both
:meth:`~EngineBase.query_batch` and the service answer through it.
A one-off point query is ``engine.query_prepared(labels, source,
target)``: it prepares the constraint on that call, so callers issuing
many queries under few constraints should prepare once and re-use
(``benchmarks/bench_micro_operations.py`` pins prepared re-use and
batching at >= 1.3x over preparing per call on shared-constraint
workloads).  The benchmark harness times ``_evaluate`` alone.

Adapters for the concrete answerers live in
:mod:`repro.engine.adapters`; string-keyed construction in
:mod:`repro.engine.registry`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.automata.compile import constraint_automaton
from repro.automata.nfa import Nfa
from repro.errors import CapabilityError, EngineError, QueryError
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.sequences import format_constraint
from repro.queries import (
    RlcQuery,
    checked_vertex,
    plain_labels,
    validate_constraint_labels,
)

__all__ = [
    "EngineBase",
    "PreparedQuery",
]


#: Anything accepted where a constraint is expected: a prepared query
#: or a label sequence.
ConstraintLike = Union["PreparedQuery", Sequence[int]]


class PreparedQuery:
    """An RLC constraint validated once, reusable across queries and engines.

    Construction validates the labels against a universe of
    ``num_labels`` labels (:func:`repro.queries.validate_constraint_labels`);
    :meth:`EngineBase.prepare_query` also checks the engine's recursive
    bound.  The cyclic constraint automaton is compiled lazily and
    memoized, so engines that never need it (the RLC index answers
    without an NFA) never pay for it.  Prepared queries are equal (and
    hash) by their normalized label tuple, which is also the identity
    the service's result cache keys on.
    """

    __slots__ = (
        "labels",
        "engine",
        "_checked_by",
        "_max_label",
        "_nfa",
    )

    def __init__(
        self,
        labels: Sequence[int],
        *,
        num_labels: int,
        engine: str = "",
    ) -> None:
        self.labels = validate_constraint_labels(num_labels, labels)
        self.engine = engine
        # The backend of the engine that built this; see prepare_query.
        self._checked_by = None
        self._max_label = max(self.labels)
        self._nfa: Optional[Nfa] = None

    # ------------------------------------------------------------------
    # Compiled artifacts (lazy, memoized)
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """The recursive length ``|L|`` of the constraint."""
        return len(self.labels)

    @property
    def max_label(self) -> int:
        """The largest label id the constraint uses."""
        return self._max_label

    @property
    def nfa(self) -> Nfa:
        """The cyclic constraint automaton of ``L+`` (compiled once)."""
        if self._nfa is None:
            self._nfa = constraint_automaton(self.labels)
        return self._nfa

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def constraint_text(self) -> str:
        """The constraint in the paper's notation, e.g. ``(0, 1)+``."""
        return format_constraint(self.labels)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready description (served by the ``/prepare`` endpoint)."""
        return {
            "labels": list(self.labels),
            "constraint": self.constraint_text(),
            "m": self.m,
            "engine": self.engine,
        }

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PreparedQuery):
            return self.labels == other.labels
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return (
            f"PreparedQuery({self.constraint_text()}, engine={self.engine!r})"
        )


class EngineBase:
    """The engine contract and the adapter scaffolding that implements it.

    Subclasses set ``name`` (the registry key) and ``display_name``
    (the label used in paper tables), and implement two hooks:
    ``_prepare(graph)`` returning the backend object, and
    ``_evaluate(backend, prepared, source, target) -> bool``, which
    answers one query whose constraint (a :class:`PreparedQuery`) and
    endpoints are already validated.  Engines with a recursive bound
    store it as ``_k``; :meth:`prepare_query` rejects longer
    constraints.
    """

    name: str = "abstract"
    display_name: str = "Abstract"
    #: The recursive bound ``k`` constraints must respect (None: any).
    _k: Optional[int] = None

    def __init__(self) -> None:
        self._graph: Optional[EdgeLabeledDigraph] = None
        self._backend = None
        #: Wall time of the last :meth:`prepare` (0.0 before it runs).
        self.prepare_seconds = 0.0

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _prepare(self, graph: EdgeLabeledDigraph):
        raise NotImplementedError

    def _evaluate(
        self, backend, prepared: PreparedQuery, source: int, target: int
    ) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def prepare(self, graph: EdgeLabeledDigraph) -> "EngineBase":
        """Build whatever the engine needs over ``graph``; returns self."""
        started = time.perf_counter()
        self._backend = self._prepare(graph)
        self._graph = graph
        self.prepare_seconds = time.perf_counter() - started
        return self

    @property
    def prepared(self) -> bool:
        """True once :meth:`prepare` has bound the engine to a graph."""
        return self._backend is not None

    @property
    def backend(self):
        """The wrapped answerer (index, traversal evaluator, ...)."""
        if self._backend is None:
            raise EngineError(f"engine {self.name!r} used before prepare()")
        return self._backend

    @property
    def graph(self) -> EdgeLabeledDigraph:
        """The bound graph (raises before :meth:`prepare`)."""
        if self._graph is None:
            raise EngineError(f"engine {self.name!r} used before prepare()")
        return self._graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def prepare_query(self, constraint: ConstraintLike) -> PreparedQuery:
        """Validate an RLC constraint into a reusable :class:`PreparedQuery`.

        Pays the per-constraint work — label normalization and
        validation against the engine's label universe, the primitivity
        check, the recursive-bound check — once; the returned object
        answers any ``(source, target)`` pair through
        :meth:`query_prepared` and is reusable across engines serving
        the same graph.  Validation runs against the bound graph or,
        for an engine adopted around a loaded index, the index itself.

        The object built here carries the engine's current backend, and
        passes back through unchanged.  Any other :class:`PreparedQuery`
        (built by another engine, by hand, or before a later
        :meth:`prepare`) passes through after the label-universe and
        recursive-bound checks, and is not stamped.
        """
        backend = self.backend  # raises before prepare()
        surface = self._graph if self._graph is not None else backend
        if isinstance(constraint, PreparedQuery):
            if constraint._checked_by is backend:
                return constraint
            prepared = constraint
            if prepared.max_label >= surface.num_labels:
                raise QueryError(
                    f"prepared constraint {prepared.constraint_text()} uses "
                    f"label id {prepared.max_label} but engine {self.name!r} "
                    f"serves a graph with {surface.num_labels} labels "
                    f"(valid ids 0..{surface.num_labels - 1})"
                )
        else:
            prepared = PreparedQuery(
                constraint, num_labels=surface.num_labels, engine=self.name
            )
            prepared._checked_by = backend
        k = self._k
        if k is not None and len(prepared.labels) > k:
            raise CapabilityError(
                f"constraint {prepared.constraint_text()} has "
                f"{len(prepared.labels)} labels but engine {self.name!r} was "
                f"built with recursive k={k}"
            )
        return prepared

    def query_prepared(
        self, prepared: ConstraintLike, source: int, target: int
    ) -> bool:
        """Answer one query: does a path ``source -> target`` match ``L+``?

        The one place an engine checks endpoints and calls
        ``_evaluate``.  The constraint passes through
        :meth:`prepare_query`: free for one this engine prepared, a
        re-check for any other :class:`PreparedQuery`, full validation
        for raw labels.
        """
        backend = self.backend  # raises before prepare()
        prepared = self.prepare_query(prepared)
        surface = self._graph if self._graph is not None else backend
        source = checked_vertex(surface, source, "source")
        target = checked_vertex(surface, target, "target")
        return bool(self._evaluate(backend, prepared, source, target))

    def query_batch(self, queries: Sequence[RlcQuery]) -> List[bool]:
        """Answer a batch of queries, preserving input order.

        Each distinct constraint is prepared once per batch (the memo
        is consulted only under :func:`repro.queries.plain_labels`); every
        query is then answered by :meth:`query_prepared`.  A malformed
        query raises the error its point query would.
        """
        query_prepared = self.query_prepared
        prepared_for: Dict[Tuple[int, ...], PreparedQuery] = {}
        answers: List[bool] = []
        for query in queries:
            labels = query.labels
            if not plain_labels(labels):
                prepared = self.prepare_query(labels)
            else:
                prepared = prepared_for.get(labels)
                if prepared is None:
                    prepared = prepared_for[labels] = self.prepare_query(labels)
            answers.append(query_prepared(prepared, query.source, query.target))
        return answers

    def __repr__(self) -> str:
        state = "prepared" if self.prepared else "unprepared"
        return f"{type(self).__name__}(name={self.name!r}, {state})"
