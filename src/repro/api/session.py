"""The :class:`Session` facade — one object owning a graph and its engines.

A session is the public entry point of the library: it opens a graph
(path, dataset name, or in-memory
:class:`~repro.graph.digraph.EdgeLabeledDigraph`), lazily prepares
engines by registry spec, and serves queries through one
:class:`~repro.engine.service.QueryService` (and so one in-memory LRU
result cache) per engine::

    from repro.api import Session

    with Session("graph.txt") as session:
        session.query(0, 5, (1, 0))                      # default engine
        session.query(0, 5, (1, 0), engine="bibfs")      # any spec
        report = session.run("workload.txt", engine="rlc?k=3")
        print(session.explain(0, 5, (1, 0)))

Everything a session creates is memoized by *(spec, options)*: asking
for ``session.engine("rlc?k=3")`` twice prepares one engine, and every
``query``/``run`` against the same spec shares one service and one
cache.  Equivalent spellings — ``"rlc"``, ``"rlc-index"``,
``"rlc-index?k=2"`` and ``("rlc-index", k=2)`` — resolve to the same
constructor arguments and so share that one engine too.  Answers are
byte-identical to driving the flat
:class:`QueryService` by hand — the facade adds lifecycle, not
semantics.

Threads may share a session: a new spec's engine is built once, under
the session's lock, and per-query state lives in each service.  A build
ends with one full garbage collection, which untracks the new index for
good (see :meth:`Session.service`).

Each part of an answer has one owner: the engine answers a bool, the
service wraps it in a :class:`~repro.queries.QueryOutcome`, and the
session, which owns the graph, attaches witness paths.
"""

from __future__ import annotations

import gc
import inspect
import os
import threading
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.core.witness import find_witness_path
from repro.engine.base import EngineBase, PreparedQuery
from repro.engine.registry import create_engine, resolve_engine_spec
from repro.engine.service import QueryService, ServiceReport
from repro.errors import EngineError, GraphError
from repro.graph import datasets
from repro.graph.digraph import EdgeLabeledDigraph
from repro.graph.io import load_graph
from repro.queries import QueryOutcome, RlcQuery
from repro.workloads import load_workload

__all__ = ["Session"]

PathLike = Union[str, os.PathLike]
GraphSource = Union[EdgeLabeledDigraph, str, os.PathLike]

DEFAULT_ENGINE = "rlc-index"


def _spec_key(spec: str, options: Dict[str, object]) -> str:
    """String identity of *(spec, explicit options)* in the service memo.

    Values are rendered with ``repr``, so ``k="2"`` and ``k=2`` are
    different keys: the first must reach the constructor's check.
    """
    if not options:
        return spec
    rendered = "&".join(f"{key}={options[key]!r}" for key in sorted(options))
    return f"{spec}#{rendered}"


def _canonical_key(spec: str, options: Dict[str, object]) -> str:
    """The memo key of the engine *(spec, options)* constructs.

    Resolves aliases and spec parameters and binds the constructor's
    defaults, so every spelling of one engine configuration maps to one
    key.  Options the constructor rejects keep the raw key, and
    :func:`~repro.engine.create_engine` then raises its spec-naming
    error.
    """
    cls, merged = resolve_engine_spec(spec, **options)
    try:
        bound = inspect.signature(cls).bind(**merged)
    except TypeError:
        return _spec_key(spec, options)
    bound.apply_defaults()
    return _spec_key(cls.name, bound.arguments)


class Session:
    """Owns one graph plus the engines and services over it.

    Parameters:

    - ``source`` — an :class:`EdgeLabeledDigraph`, a path to a graph
      file (text edge list or ``.npz``), or a dataset name from
      :func:`repro.graph.datasets.dataset_names` (an existing file wins
      over a dataset name of the same spelling);
    - ``engine`` — default engine spec for ``query``/``run``/``explain``
      when the call names none (default ``"rlc-index"``);
    - ``cache_size`` — forwarded to every :class:`QueryService` the
      session creates;
    - ``scale`` — dataset stand-in scale, used only when ``source``
      names a dataset.

    Sessions are context managers; exit closes the session.  They are
    not re-opened after :meth:`close` — build a new one.
    """

    def __init__(
        self,
        source: GraphSource,
        *,
        engine: str = DEFAULT_ENGINE,
        cache_size: int = 4096,
        scale: float = 1.0,
        graph_name: Optional[str] = None,
    ) -> None:
        graph, resolved_name = self._open_graph(source, scale)
        self._setup(graph, graph_name or resolved_name, engine, cache_size)

    def _setup(
        self,
        graph: Optional[EdgeLabeledDigraph],
        name: str,
        default_spec: str,
        cache_size: int,
    ) -> None:
        """Initial state, shared by ``__init__`` and :meth:`from_prepared`."""
        self._graph = graph
        self._name = name
        self._default_spec = default_spec
        self._cache_size = cache_size
        self._graph_digest: Optional[str] = None
        # Raw (spec, options) keys and canonical keys alike map to the
        # service that owns an engine; equivalent spellings share one.
        # Read without the lock; written only under it.
        self._services: Dict[str, QueryService] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Graph resolution
    # ------------------------------------------------------------------

    @staticmethod
    def _open_graph(
        source: GraphSource, scale: float
    ) -> Tuple[EdgeLabeledDigraph, str]:
        if isinstance(source, EdgeLabeledDigraph):
            return source, repr(source)
        if isinstance(source, (str, os.PathLike)):
            text = os.fspath(source)
            if os.path.exists(text):
                return load_graph(text), text
            if text in datasets.dataset_names():
                return datasets.load_dataset(text, scale=scale), text
            raise GraphError(
                f"cannot open graph {text!r}: not a file and not one of "
                f"the datasets {', '.join(datasets.dataset_names())}"
            )
        raise GraphError(
            f"cannot open a session over {type(source).__name__}; expected "
            "a graph, a file path, or a dataset name"
        )

    @classmethod
    def from_prepared(
        cls, engine: EngineBase, *, spec: str, graph_name: str = "", **options
    ) -> "Session":
        """Adopt an already-prepared engine (e.g. a loaded index).

        Used by ``repro run``, which deserializes an
        :class:`~repro.core.index.RlcIndex` rather than building one:
        the adopted engine is registered under ``spec`` and becomes the
        session default.  The session has a graph only if the engine
        carries one.
        """
        if not engine.prepared:
            raise EngineError("from_prepared needs a prepared engine")
        cache_size = options.pop("cache_size", 4096)
        if options:
            raise EngineError(
                f"unknown from_prepared options: {', '.join(sorted(options))}"
            )
        session = cls.__new__(cls)
        # engine._graph may legitimately be None (RlcIndexEngine.from_index).
        session._setup(engine._graph, graph_name or repr(engine), spec, cache_size)
        session._services[spec] = session._new_service(engine)
        return session

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> EdgeLabeledDigraph:
        """The session's graph (raises when it adopted a graphless engine)."""
        if self._graph is None:
            raise EngineError(
                "this session adopted a prepared engine and has no graph"
            )
        return self._graph

    @property
    def name(self) -> str:
        """Human-readable graph identity (path, dataset name, or repr)."""
        return self._name

    @property
    def default_engine_spec(self) -> str:
        """The engine spec a call uses when it names none."""
        return self._default_spec

    @property
    def graph_digest(self) -> Optional[str]:
        """Stable content digest of the graph (None without a graph)."""
        if self._graph_digest is None and self._graph is not None:
            self._graph_digest = self._graph.content_digest()
        return self._graph_digest

    def _named_services(self) -> Dict[str, QueryService]:
        """Each distinct service, under the spec spelling that created it."""
        with self._lock:
            items = list(self._services.items())
        # Reversed, so the first spelling of each service wins.
        return dict({id(s): (key, s) for key, s in reversed(items)}.values())

    def engine_specs(self) -> Tuple[str, ...]:
        """Specs of the engines this session has prepared so far.

        One entry per engine, however many spellings have reached it.
        """
        return tuple(sorted(self._named_services()))

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-engine service counters (engine counters included)."""
        return {
            spec: service.counters()
            for spec, service in sorted(self._named_services().items())
        }

    # ------------------------------------------------------------------
    # Lazily-prepared components
    # ------------------------------------------------------------------

    def engine(self, spec: Optional[str] = None, **options) -> EngineBase:
        """The prepared engine for ``spec``, building it on first use.

        ``options`` are constructor keywords exactly as
        :func:`repro.engine.create_engine` takes them; spec parameters
        win on conflict.  Every spelling of the same engine
        configuration returns the same engine object.
        """
        return self.service(spec, **options).engine

    def service(self, spec: Optional[str] = None, **options) -> QueryService:
        """The query service for ``spec`` (cache + batching).

        A repeated spelling is one dict lookup.  A new spelling is
        resolved to its canonical constructor arguments first and
        becomes an alias of the service already built for them, if any.

        Building an engine ends with one full garbage collection.  An
        index's entry store is tens of thousands of dicts and tuples of
        ints, tracked when created; a full pass is what untracks them,
        once and for good.  Run here, that pass belongs to the build;
        left to the collector, it could fall on a query in flight.
        """
        self._ensure_open()
        spec = spec or self._default_spec
        key = _spec_key(spec, options)
        service = self._services.get(key)
        if service is None:
            with self._lock:
                # Re-checked under the lock: a thread that built this
                # engine meanwhile stored it under the canonical key.
                canonical = _canonical_key(spec, options)
                service = self._services.get(canonical)
                if service is None:
                    service = self._new_service(
                        create_engine(spec, self.graph, **options)
                    )
                    gc.collect()
                # The raw key goes in first, so a new service is listed
                # under the spelling that created it.
                self._services[key] = service
                self._services.setdefault(canonical, service)
        return service

    def _new_service(self, engine: EngineBase) -> QueryService:
        return QueryService(engine, cache_size=self._cache_size)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def prepare(
        self,
        labels: Sequence[int],
        *,
        engine: Optional[str] = None,
        **engine_options,
    ) -> PreparedQuery:
        """Compile a constraint once for the spec's engine (memoized).

        The session face of the prepared lifecycle: the returned
        :class:`~repro.engine.PreparedQuery` is reusable across every
        ``(source, target)`` pair, and its normalized labels are the
        identity the spec's result cache keys answers on.
        """
        return self.service(engine, **engine_options).prepare(labels)

    def query_outcome(
        self,
        source: int,
        target: int,
        labels: Sequence[int],
        *,
        engine: Optional[str] = None,
        witness: bool = False,
        **engine_options,
    ) -> QueryOutcome:
        """Answer one query with full provenance (through the cache).

        The structured face of :meth:`query`: the returned
        :class:`~repro.queries.QueryOutcome` carries the answer, the
        engine id, whether the result cache served it and wall time.
        With ``witness=True`` a true answer, cached or not, also
        carries a shortest witness path found over the session's
        graph; a session without a graph raises
        :class:`~repro.errors.EngineError`.
        """
        outcome = self.service(engine, **engine_options).query_outcome(
            source, target, labels
        )
        if witness:
            self._attach_witness(outcome)
        return outcome

    def _attach_witness(self, outcome: QueryOutcome) -> None:
        """Set ``outcome.witness`` for a true answer (product BFS)."""
        if self._graph is None:
            raise EngineError(
                f"engine {outcome.engine!r} has no bound graph to extract a "
                "witness from (it was adopted around a prebuilt backend); "
                "re-prepare it over the graph to enable witnesses"
            )
        if outcome.answer:
            outcome.witness = find_witness_path(
                self._graph, outcome.source, outcome.target, outcome.labels
            )

    def query(
        self,
        source: int,
        target: int,
        labels: Sequence[int],
        *,
        engine: Optional[str] = None,
        **engine_options,
    ) -> bool:
        """Answer one query through the spec's service (and its cache).

        Bool shim over :meth:`query_outcome`, kept for callers that
        only want the answer.
        """
        return self.query_outcome(
            source, target, labels, engine=engine, **engine_options
        ).answer

    def run(
        self,
        workload: Union[Iterable[RlcQuery], PathLike],
        *,
        engine: Optional[str] = None,
        verify: bool = True,
        **engine_options,
    ) -> ServiceReport:
        """Replay a workload (object, iterable, or file path).

        Equivalent to ``QueryService.run`` on the spec's service.
        ``engine_options`` address the same *(spec, options)* engine an
        earlier :meth:`engine` call with those options prepared.
        """
        if isinstance(workload, (str, os.PathLike)):
            workload = load_workload(workload)
        return self.service(engine, **engine_options).run(workload, verify=verify)

    def explain(
        self,
        source: int,
        target: int,
        labels: Sequence[int],
        *,
        engine: Optional[str] = None,
        witness: bool = True,
        **engine_options,
    ) -> Dict[str, object]:
        """Answer a query and describe *how* it was answered.

        Returns a plain dict (JSON-ready; the replay server exposes it
        verbatim) built from the :class:`~repro.queries.QueryOutcome`:
        the query with its normalized labels, the answer, the engine
        spec and engine id that produced it, whether the result cache
        served it, wall time, and — for true answers when the session
        has a graph — a shortest witness path.
        """
        body = self.query_outcome(
            source,
            target,
            labels,
            engine=engine,
            witness=witness and self._graph is not None,
            **engine_options,
        ).as_dict()
        query = {key: body.pop(key) for key in ("source", "target", "labels")}
        return {
            "query": query,
            "engine": engine or self._default_spec,
            "engine_id": body.pop("engine"),
            **body,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Mark the session closed; later queries raise :class:`EngineError`."""
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise EngineError("session is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Session({self._name!r}, engine={self._default_spec!r}, "
            f"engines={len(self._named_services())}, {state})"
        )

