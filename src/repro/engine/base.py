"""The engine contract every RLC answerer satisfies.

Survey work on reachability indexing organizes systems around a single
engine interface — prepare once, answer point and batched queries, and
report counters — regardless of whether the answerer is an index, an
online traversal, or a simulated external system.  This module defines
that contract for the repro library:

- :class:`PreparedQuery` — an RLC constraint compiled **once**
  (normalized labels, constraint automaton, stable digest) and
  reusable across any ``(source, target)`` pair and across engines;
- :class:`QueryOutcome` — the structured answer of one query: the
  boolean plus provenance (engine id, cache layer, witness path when
  requested, wall time);
- :class:`ReachabilityEngine` — the structural protocol (``name``,
  ``capabilities``, ``prepare``, ``prepare_query``, ``query``,
  ``query_prepared``, ``query_batch``, ``stats``) that callers such as
  :class:`repro.engine.QueryService` and the benchmark harness program
  against;
- :class:`EngineBase` — the concrete scaffolding adapters inherit:
  option storage, prepare/query timing, the prepared-query lifecycle,
  witness extraction, and a loop-based ``query_batch`` fallback that
  adapters with a real batched path (the RLC index) override.

The query lifecycle is *prepare -> execute -> outcome*:
``engine.prepare(labels)`` (or the explicit ``prepare_query``) pays
constraint validation and compilation once, and every subsequent
``query_prepared(prepared, s, t)`` call skips straight to evaluation.
The legacy ``query(RlcQuery) -> bool`` entry point survives as a thin
shim that prepares per call — identical answers, none of the
amortization (``benchmarks/bench_micro_operations.py`` pins prepared
re-use at >= 1.3x over it on shared-constraint workloads).

Adapters for the concrete answerers live in
:mod:`repro.engine.adapters`; string-keyed construction in
:mod:`repro.engine.registry`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from hashlib import sha256
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.automata.compile import constraint_automaton
from repro.automata.nfa import Nfa
from repro.errors import (
    CapabilityError,
    EngineError,
    NonPrimitiveConstraintError,
    QueryError,
)
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.minimum_repeat import is_primitive
from repro.labels.sequences import format_constraint
from repro.queries import RlcQuery, validate_constraint_labels

__all__ = [
    "KNOWN_CAPABILITIES",
    "EngineStats",
    "EngineBase",
    "PreparedQuery",
    "QueryOutcome",
    "ReachabilityEngine",
]


#: The capability vocabulary engines may advertise.  ``witness`` — the
#: engine can extract a concrete witness path for true answers;
#: ``batch-grouped`` — ``query_batch`` genuinely amortizes work across
#: queries sharing a constraint (not the loop fallback); ``dynamic`` —
#: the engine supports incremental graph updates (reserved for the
#: ``DynamicRlcIndex`` adapter on the roadmap).
KNOWN_CAPABILITIES: FrozenSet[str] = frozenset(
    {"witness", "batch-grouped", "dynamic"}
)

#: A witness path in the paper's split form: ``(vertices, labels)``
#: with ``len(vertices) == len(labels) + 1``.
WitnessPath = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: An engine's per-constraint scratch table is cleared past this many
#: distinct constraints (each entry is itself bounded by its adapter).
_PREPARED_STATE_LIMIT = 1 << 10

#: Anything accepted where a constraint is expected: a prepared query,
#: a label sequence, or an :class:`RlcQuery` (its labels are used).
ConstraintLike = Union["PreparedQuery", Sequence[int], RlcQuery]


class PreparedQuery:
    """An RLC constraint compiled once, reusable across queries and engines.

    Construction normalizes and validates the label sequence (done by
    :meth:`EngineBase.prepare_query`, which checks it against the
    engine's label universe and recursive bound); the derived artifacts
    — the cyclic constraint automaton and the stable cache digest — are
    computed lazily and memoized, so engines that never need one (the
    RLC index answers without an NFA) never pay for it.

    Engine-specific compiled artifacts (the RLC index adapter's
    per-vertex hub lists) live on the **engine**, in a bounded
    per-constraint table (:meth:`EngineBase.prepared_state_for`) — so
    two engines never read each other's memos and re-binding an engine
    to a new graph drops every memo at once.  Prepared queries are
    equal (and hash) by their normalized label tuple.
    """

    __slots__ = (
        "labels",
        "num_labels",
        "engine",
        "_max_label",
        "_nfa",
        "_digest",
    )

    def __init__(
        self,
        labels: Sequence[int],
        *,
        num_labels: int,
        engine: str = "",
    ) -> None:
        self.labels: Tuple[int, ...] = tuple(int(label) for label in labels)
        # The structural half of the constraint contract is enforced
        # here, not just in prepare_query: a hand-built PreparedQuery
        # smuggling a non-primitive sequence would make engines
        # silently disagree (the index probes a key that can never be
        # stored; the traversals would happily run the NFA).  The
        # label-universe half stays with the engines, which know their
        # graphs.
        if not self.labels:
            raise QueryError("RLC constraint must contain at least one label")
        if min(self.labels) < 0:
            raise QueryError(
                f"unknown label id: {min(self.labels)} in constraint "
                f"{format_constraint(self.labels)}; label ids are "
                "non-negative"
            )
        if not is_primitive(self.labels):
            raise NonPrimitiveConstraintError(
                f"constraint {format_constraint(self.labels)} is not a "
                "minimum repeat; RLC queries require L = MR(L)"
            )
        self.num_labels = int(num_labels)
        self.engine = engine
        self._max_label = max(self.labels)
        self._nfa: Optional[Nfa] = None
        self._digest: Optional[str] = None

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

    @property
    def digest(self) -> str:
        """Stable hex digest of the normalized constraint.

        Keys the result caches (service LRU and the persistent store) —
        two spellings of the same constraint (lists, numpy ints) share
        one digest, and the digest never collides across lengths.
        """
        if self._digest is None:
            text = f"{len(self.labels)}:" + ",".join(
                str(label) for label in self.labels
            )
            self._digest = sha256(text.encode("utf-8")).hexdigest()[:16]
        return self._digest

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
            "digest": self.digest,
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
            f"PreparedQuery({self.constraint_text()}, "
            f"digest={self.digest!r}, engine={self.engine!r})"
        )


@dataclass(frozen=True)
class QueryOutcome:
    """The structured result of one prepared query.

    The boolean ``answer`` plus provenance: which engine produced it,
    which cache layer served it (``None`` when freshly evaluated,
    ``"lru"`` / ``"store"`` through a :class:`QueryService`), the
    witness path when one was requested, and the evaluation wall time.
    Outcomes are truthy exactly when the answer is.
    """

    answer: bool
    source: int
    target: int
    labels: Tuple[int, ...]
    engine: str
    cache_layer: Optional[str] = None
    witness: Optional[WitnessPath] = None
    seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.answer

    @property
    def cached(self) -> bool:
        """True when a cache layer (LRU or persistent store) answered."""
        return self.cache_layer is not None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (what the replay server's ``/query`` returns)."""
        payload: Dict[str, object] = {
            "answer": self.answer,
            "source": self.source,
            "target": self.target,
            "labels": list(self.labels),
            "engine": self.engine,
            "cache_layer": self.cache_layer,
            "cached": self.cached,
            "seconds": self.seconds,
        }
        if self.witness is not None:
            vertices, labels = self.witness
            payload["witness"] = {
                "vertices": list(vertices),
                "labels": list(labels),
            }
        return payload


@dataclass
class EngineStats:
    """Counters every engine maintains (mirrors :class:`BuildStats`)."""

    prepare_seconds: float = 0.0
    queries: int = 0
    batches: int = 0
    batched_queries: int = 0
    query_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """Flat dict view (used by the benchmark harness and CLI)."""
        values = {
            "prepare_seconds": self.prepare_seconds,
            "queries": self.queries,
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "query_seconds": self.query_seconds,
        }
        values.update(self.extra)
        return values


@runtime_checkable
class ReachabilityEngine(Protocol):
    """Structural protocol of an RLC query engine.

    ``prepare(graph)`` performs whatever one-time work the engine needs
    (index construction, closure materialization, nothing for online
    traversals) and returns the engine itself so construction chains:
    ``BfsEngine().prepare(graph).query(q)``.  Once bound to a graph,
    ``prepare(constraint)`` instead compiles the constraint into a
    :class:`PreparedQuery`, which ``query_prepared`` evaluates against
    any endpoint pair, returning a :class:`QueryOutcome`.

    ``capabilities`` is a frozenset drawn from
    :data:`KNOWN_CAPABILITIES`; callers and the registry select engines
    by feature (``"witness"``, ``"batch-grouped"``, ``"dynamic"``)
    instead of by name.
    """

    name: str
    capabilities: FrozenSet[str]

    def prepare(
        self, target: Union[EdgeLabeledDigraph, ConstraintLike]
    ) -> Union["ReachabilityEngine", PreparedQuery]:
        """Bind to a graph (returns self) or compile a constraint."""
        ...

    def prepare_query(self, constraint: ConstraintLike) -> PreparedQuery:
        """Compile a constraint once into a reusable prepared query."""
        ...

    def query(self, query: RlcQuery) -> bool:
        """Legacy bool entry point (prepares per call)."""
        ...

    def query_prepared(
        self,
        prepared: ConstraintLike,
        source: int,
        target: int,
        *,
        witness: bool = False,
    ) -> QueryOutcome:
        """Evaluate a prepared constraint for one endpoint pair."""
        ...

    def query_batch(self, queries: Sequence[RlcQuery]) -> List[bool]:
        """Answer a batch of queries, preserving input order."""
        ...

    def stats(self) -> EngineStats:
        """The engine's cumulative counters."""
        ...


class EngineBase:
    """Shared adapter scaffolding implementing :class:`ReachabilityEngine`.

    Subclasses set ``name`` (the registry key), ``display_name`` (the
    label used in paper tables) and ``capabilities`` (a frozenset drawn
    from :data:`KNOWN_CAPABILITIES`; unknown tokens fail at class
    definition), implement ``_prepare(graph)`` returning the backend
    object, and ``_answer(source, target, labels)``.  Engines with a
    validation-free evaluation path additionally override
    ``_answer_prepared`` — the hook :meth:`query_prepared` calls with
    an already-validated :class:`PreparedQuery` — and engines that
    precompile per-constraint artifacts hook ``_compile_prepared``.
    ``query_batch`` defaults to a loop over ``_answer``; adapters with
    a genuinely batched evaluation strategy override ``_answer_batch``.
    """

    name: str = "abstract"
    display_name: str = "Abstract"
    capabilities: FrozenSet[str] = frozenset()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        unknown = frozenset(cls.capabilities) - KNOWN_CAPABILITIES
        if unknown:
            raise EngineError(
                f"engine class {cls.__name__!r} (name={cls.name!r}) declares "
                f"unknown capabilities: {', '.join(sorted(unknown))}; known "
                f"capabilities: {', '.join(sorted(KNOWN_CAPABILITIES))}"
            )

    def __init__(self) -> None:
        self._graph: Optional[EdgeLabeledDigraph] = None
        self._backend = None
        self._stats = EngineStats()
        # Engines are read-only after prepare(), so callers sharing one
        # engine across threads only contend on the counters; this lock
        # keeps their read-modify-write updates exact.
        self._stats_lock = threading.Lock()
        # Engine-held per-constraint scratch keyed by the normalized
        # label tuple (see prepared_state_for).  Owning it here — not
        # on the prepared objects — keeps memos private per engine
        # instance (a prepared query is reusable across engines, and
        # two instances of one class must never read each other's
        # artifacts) and lets a graph re-bind drop every stale memo at
        # once; keying by labels (not object identity) means equal
        # prepared queries share one memo and dropping one of them
        # never destroys state the others still use.
        self._prepared_state: Dict[Tuple[int, ...], Dict] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def prepare(
        self, target: Union[EdgeLabeledDigraph, ConstraintLike]
    ) -> Union["EngineBase", PreparedQuery]:
        """Bind to a graph, or compile a constraint once bound.

        Given an :class:`EdgeLabeledDigraph`, builds whatever the
        engine needs over it and returns the engine (the legacy
        contract).  Given anything else — a label sequence, an
        :class:`RlcQuery`, or an existing :class:`PreparedQuery` —
        delegates to :meth:`prepare_query` and returns the compiled
        constraint.
        """
        if isinstance(target, EdgeLabeledDigraph):
            started = time.perf_counter()
            self._backend = self._prepare(target)
            self._graph = target
            # Memos filled under a previous graph binding (hub lists)
            # describe the old backend and must never be served again.
            self._prepared_state.clear()
            self._stats.prepare_seconds += time.perf_counter() - started
            return self
        return self.prepare_query(target)

    def _prepare(self, graph: EdgeLabeledDigraph):
        raise NotImplementedError

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

    def _validation_surface(self):
        """The graph-like object queries are validated against.

        The bound graph when the engine has one; otherwise a backend
        that itself exposes ``has_vertex`` / ``num_labels`` (a loaded
        :class:`~repro.core.index.RlcIndex` adopted via
        ``RlcIndexEngine.from_index`` qualifies).
        """
        if self._graph is not None:
            return self._graph
        backend = self._backend
        if (
            backend is not None
            and hasattr(backend, "has_vertex")
            and hasattr(backend, "num_labels")
        ):
            return backend
        raise EngineError(f"engine {self.name!r} used before prepare()")

    # ------------------------------------------------------------------
    # Prepared-query lifecycle
    # ------------------------------------------------------------------

    def prepare_query(self, constraint: ConstraintLike) -> PreparedQuery:
        """Compile an RLC constraint into a reusable :class:`PreparedQuery`.

        Pays the per-constraint work — label normalization and
        validation against the engine's label universe, the primitivity
        check, the recursive-bound check — exactly once; the returned
        object answers any ``(source, target)`` pair through
        :meth:`query_prepared` and is reusable across engines serving
        the same graph.  A :class:`PreparedQuery` passes through after
        a compatibility re-check; an :class:`RlcQuery` contributes its
        labels.
        """
        if isinstance(constraint, PreparedQuery):
            return self._check_prepared(constraint)
        if isinstance(constraint, RlcQuery):
            constraint = constraint.labels
        surface = self._validation_surface()
        labels = validate_constraint_labels(surface, constraint)
        self._check_recursive_bound(labels)
        prepared = PreparedQuery(
            labels, num_labels=surface.num_labels, engine=self.name
        )
        self._compile_prepared(prepared)
        return prepared

    def prepared_state_for(self, prepared: PreparedQuery) -> Dict:
        """This engine's private scratch dict for one prepared constraint.

        Keyed by the normalized label tuple, so every equal prepared
        query shares one memo; bounded (the table is cleared wholesale
        past ``_PREPARED_STATE_LIMIT`` distinct constraints) and
        dropped entirely when :meth:`prepare` re-binds the graph.
        Adapters stash per-constraint compiled artifacts here
        (hub-list memos) — never on the shared :class:`PreparedQuery`
        itself, which travels across engines.
        """
        state = self._prepared_state.get(prepared.labels)
        if state is None:
            if len(self._prepared_state) >= _PREPARED_STATE_LIMIT:
                self._prepared_state.clear()
            state = {}
            self._prepared_state[prepared.labels] = state
        return state

    def _compile_prepared(self, prepared: PreparedQuery) -> None:
        """Hook: engine-specific per-constraint compilation (default none)."""

    def _check_recursive_bound(self, labels: Tuple[int, ...]) -> None:
        k = getattr(self, "k", None)
        if k is not None and len(labels) > k:
            raise CapabilityError(
                f"constraint {format_constraint(labels)} has {len(labels)} "
                f"labels but engine {self.name!r} was built with recursive "
                f"k={k}"
            )

    def _check_prepared(self, constraint: ConstraintLike) -> PreparedQuery:
        """Validate a (possibly foreign) prepared constraint for this engine."""
        if not isinstance(constraint, PreparedQuery):
            return self.prepare_query(constraint)
        surface = self._validation_surface()
        if constraint.max_label >= surface.num_labels:
            raise QueryError(
                f"prepared constraint {constraint.constraint_text()} uses "
                f"label id {constraint.max_label} but engine {self.name!r} "
                f"serves a graph with {surface.num_labels} labels "
                f"(valid ids 0..{surface.num_labels - 1})"
            )
        self._check_recursive_bound(constraint.labels)
        return constraint

    def query_prepared(
        self,
        prepared: ConstraintLike,
        source: int,
        target: int,
        *,
        witness: bool = False,
    ) -> QueryOutcome:
        """Evaluate a prepared constraint for one endpoint pair.

        Endpoint validation (cheap) happens here; constraint validation
        was paid once at :meth:`prepare_query`.  With ``witness=True``
        the outcome carries a shortest witness path for true answers —
        engines not advertising the ``witness`` capability raise
        :class:`~repro.errors.CapabilityError` instead of silently
        omitting it.
        """
        backend = self.backend  # raises before the clock starts
        prepared = self._check_prepared(prepared)
        surface = self._validation_surface()
        if not surface.has_vertex(source):
            raise QueryError(f"unknown source vertex: {source}")
        if not surface.has_vertex(target):
            raise QueryError(f"unknown target vertex: {target}")
        started = time.perf_counter()
        answer = bool(self._answer_prepared(backend, source, target, prepared))
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self._stats.query_seconds += elapsed
            self._stats.queries += 1
        path = (
            self.witness_path(prepared, source, target, answer=answer)
            if witness
            else None
        )
        return QueryOutcome(
            answer=answer,
            source=int(source),
            target=int(target),
            labels=prepared.labels,
            engine=self.name,
            witness=path,
            seconds=elapsed,
        )

    def _answer_prepared(
        self, backend, source: int, target: int, prepared: PreparedQuery
    ):
        """Evaluate an already-validated constraint (override to amortize).

        The default falls back to :meth:`_answer` — correct for every
        engine, but it re-validates inside the backend; adapters with a
        validation-free path override this.
        """
        return self._answer(backend, source, target, prepared.labels)

    # ------------------------------------------------------------------
    # Witness extraction
    # ------------------------------------------------------------------

    @property
    def witness_ready(self) -> bool:
        """True when this engine instance can extract witness paths now.

        Requires the ``witness`` capability *and* a bound graph (an
        engine adopted around a loaded index has no edges to walk).
        """
        return "witness" in self.capabilities and self._graph is not None

    def witness_path(
        self,
        constraint: ConstraintLike,
        source: int,
        target: int,
        *,
        answer: bool = True,
    ) -> Optional[WitnessPath]:
        """A shortest witness ``(vertices, labels)`` path, or None.

        Raises :class:`~repro.errors.CapabilityError` when the engine
        does not advertise ``witness``, and
        :class:`~repro.errors.EngineError` when it has no graph to walk
        (e.g. adopted via ``from_index``).  ``answer=False`` short-cuts
        to None without searching.
        """
        if "witness" not in self.capabilities:
            raise CapabilityError(
                f"engine {self.name!r} does not advertise the 'witness' "
                "capability; pick one via "
                "repro.engine.engines_with_capabilities('witness')"
            )
        if self._graph is None:
            raise EngineError(
                f"engine {self.name!r} has no bound graph to extract a "
                "witness from (it was adopted around a prebuilt backend); "
                "re-prepare it over the graph to enable witnesses"
            )
        if not answer:
            return None
        prepared = self._check_prepared(constraint)
        from repro.core.witness import find_witness_path

        return find_witness_path(self._graph, source, target, prepared.labels)

    # ------------------------------------------------------------------
    # Queries (legacy bool surface — thin shims over the prepared path)
    # ------------------------------------------------------------------

    def query(self, query: RlcQuery) -> bool:
        """Answer one RLC query, updating the timing counters.

        Legacy entry point: compiles the constraint per call
        (:meth:`prepare_query`) and evaluates through
        :meth:`query_prepared`, returning only the boolean.  Callers
        issuing many queries under few constraints should prepare once
        and re-use — that is the amortization this API exists for.
        """
        prepared = self.prepare_query(query.labels)
        return self.query_prepared(prepared, query.source, query.target).answer

    def query_batch(self, queries: Sequence[RlcQuery]) -> List[bool]:
        """Answer a batch of queries, preserving input order."""
        backend = self.backend
        batch = list(queries)
        started = time.perf_counter()
        answers = self._answer_batch(backend, batch)
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self._stats.query_seconds += elapsed
            self._stats.batches += 1
            self._stats.batched_queries += len(batch)
        return answers

    def _answer(self, backend, source: int, target: int, labels) -> bool:
        raise NotImplementedError

    def _answer_batch(self, backend, queries: List[RlcQuery]) -> List[bool]:
        """Fallback batched path: a loop over the point query."""
        return [
            self._answer(backend, q.source, q.target, q.labels) for q in queries
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> EngineStats:
        """The engine's cumulative counters (live object, not a copy)."""
        return self._stats

    def __repr__(self) -> str:
        state = "prepared" if self.prepared else "unprepared"
        return f"{type(self).__name__}(name={self.name!r}, {state})"
