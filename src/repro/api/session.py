"""The :class:`Session` facade — one object owning a graph and its engines.

A session is the public entry point of the library: it opens a graph
(path, dataset name, or in-memory
:class:`~repro.graph.digraph.EdgeLabeledDigraph`), lazily prepares
engines by registry spec, and serves queries through per-spec
:class:`~repro.engine.service.QueryService` instances that layer a
**persistent on-disk result cache** (warm across processes) under the
in-memory LRU::

    from repro.api import Session

    with Session("graph.txt", cache_dir=".repro-cache") as session:
        session.query(0, 5, (1, 0))                      # default engine
        session.query(0, 5, (1, 0), engine="bibfs")      # any spec
        report = session.run("workload.txt", engine="rlc?k=3")
        print(session.explain(0, 5, (1, 0)))

Everything a session creates is memoized by *(spec, options)*: asking
for ``session.engine("rlc?k=3")`` twice prepares one engine, and every
``query``/``run`` against the same spec shares one service and one
cache.  Answers are byte-identical to driving the flat
:class:`QueryService` by hand — the facade adds lifecycle, not
semantics.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.engine.base import EngineBase, PreparedQuery, QueryOutcome
from repro.engine.registry import create_engine
from repro.engine.service import QueryService, ServiceReport
from repro.errors import EngineError, GraphError
from repro.graph import datasets
from repro.graph.digraph import EdgeLabeledDigraph
from repro.graph.io import load_graph
from repro.queries import RlcQuery
from repro.workloads import load_workload

from repro.api.cache import PersistentResultCache, cache_file_name

__all__ = ["Session", "open_session"]

PathLike = Union[str, os.PathLike]
GraphSource = Union[EdgeLabeledDigraph, str, os.PathLike]

DEFAULT_ENGINE = "rlc-index"


def _spec_key(spec: str, options: Dict[str, object]) -> str:
    """Canonical string identity of *(spec, explicit options)*.

    Keys the session's memo tables **and** the persistent cache files,
    so ``rlc-index`` with ``k=2`` and with ``k=3`` can never share
    answers.
    """
    if not options:
        return spec
    rendered = "&".join(f"{key}={options[key]}" for key in sorted(options))
    return f"{spec}#{rendered}"


class Session:
    """Owns one graph plus the engines, services and caches over it.

    Parameters:

    - ``source`` — an :class:`EdgeLabeledDigraph`, a path to a graph
      file (text edge list or ``.npz``), or a dataset name from
      :func:`repro.graph.datasets.dataset_names` (an existing file wins
      over a dataset name of the same spelling);
    - ``engine`` — default engine spec for ``query``/``run``/``explain``
      when the call names none (default ``"rlc-index"``);
    - ``cache_dir`` — directory for the persistent result cache; None
      (the default) disables persistence and serves from the in-memory
      LRU only;
    - ``cache_size`` / ``batch_size`` — forwarded to every
      :class:`QueryService` the session creates;
    - ``scale`` — dataset stand-in scale, used only when ``source``
      names a dataset.

    Sessions are context managers; exit flushes every persistent cache.
    They are not re-opened after :meth:`close` — build a new one.
    """

    def __init__(
        self,
        source: GraphSource,
        *,
        engine: str = DEFAULT_ENGINE,
        cache_dir: Optional[PathLike] = None,
        cache_size: int = 4096,
        batch_size: int = 256,
        scale: float = 1.0,
        graph_name: Optional[str] = None,
    ) -> None:
        graph, resolved_name = self._open_graph(source, scale)
        self._graph = graph
        self._name = graph_name or resolved_name
        self._default_spec = engine
        self._cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self._cache_size = cache_size
        self._batch_size = batch_size
        self._digest: Optional[str] = None
        self._engines: Dict[str, EngineBase] = {}
        self._services: Dict[str, QueryService] = {}
        self._stores: Dict[str, PersistentResultCache] = {}
        self._async_services: Dict[str, object] = {}
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
        carries one; the persistent cache stays off (there is no graph
        content to digest).
        """
        if not engine.prepared:
            raise EngineError("from_prepared needs a prepared engine")
        graph = engine._graph  # may legitimately be None for from_index
        session = cls.__new__(cls)
        session._graph = graph
        session._name = graph_name or repr(engine)
        session._default_spec = spec
        session._cache_dir = None
        session._cache_size = options.pop("cache_size", 4096)
        session._batch_size = options.pop("batch_size", 256)
        if options:
            raise EngineError(
                f"unknown from_prepared options: {', '.join(sorted(options))}"
            )
        session._digest = None
        session._engines = {spec: engine}
        session._services = {}
        session._stores = {}
        session._async_services = {}
        session._closed = False
        return session

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> EdgeLabeledDigraph:
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
        return self._default_spec

    @property
    def cache_dir(self) -> Optional[str]:
        return self._cache_dir

    @property
    def graph_digest(self) -> Optional[str]:
        """Stable content digest keying the persistent caches."""
        if self._digest is None and self._graph is not None:
            self._digest = self._graph.content_digest()
        return self._digest

    def engine_specs(self) -> Tuple[str, ...]:
        """Specs of the engines this session has prepared so far."""
        return tuple(sorted(self._engines))

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-spec service counters (engine counters included)."""
        return {
            spec: service.counters()
            for spec, service in sorted(self._services.items())
        }

    # ------------------------------------------------------------------
    # Lazily-prepared components
    # ------------------------------------------------------------------

    def engine(self, spec: Optional[str] = None, **options) -> EngineBase:
        """The prepared engine for ``spec``, building it on first use.

        ``options`` are constructor keywords exactly as
        :func:`repro.engine.create_engine` takes them; spec parameters
        win on conflict.  The same *(spec, options)* always returns the
        same engine object.
        """
        self._ensure_open()
        spec = spec or self._default_spec
        key = _spec_key(spec, options)
        engine = self._engines.get(key)
        if engine is None:
            engine = create_engine(spec, self.graph, **options)
            self._engines[key] = engine
        return engine

    def service(self, spec: Optional[str] = None, **options) -> QueryService:
        """The query service for ``spec`` (cache + batching)."""
        self._ensure_open()
        spec = spec or self._default_spec
        key = _spec_key(spec, options)
        service = self._services.get(key)
        if service is None:
            service = QueryService(
                self.engine(spec, **options),
                cache_size=self._cache_size,
                batch_size=self._batch_size,
                store=self._store_for(key),
            )
            self._services[key] = service
        return service

    def async_service(self, spec: Optional[str] = None, **options):
        """An :class:`~repro.api.AsyncQueryService` over :meth:`service`.

        One per spec, sharing that spec's engine and caches; closing
        the session closes it.
        """
        from repro.api.async_service import AsyncQueryService

        self._ensure_open()
        spec = spec or self._default_spec
        key = _spec_key(spec, options)
        wrapper = self._async_services.get(key)
        if wrapper is None:
            wrapper = AsyncQueryService(self.service(spec, **options))
            self._async_services[key] = wrapper
        return wrapper

    def _store_for(self, key: str) -> Optional[PersistentResultCache]:
        if self._cache_dir is None or self.graph_digest is None:
            return None
        store = self._stores.get(key)
        if store is None:
            store = PersistentResultCache(
                os.path.join(
                    self._cache_dir, cache_file_name(self.graph_digest, key)
                ),
                graph_digest=self.graph_digest,
                engine_spec=key,
            )
            self._stores[key] = store
        return store

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
        ``(source, target)`` pair, and its digest is the identity the
        spec's caches (LRU and persistent store) key answers on.
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
        """Answer one query with full provenance (cache layered).

        The structured face of :meth:`query`: the returned
        :class:`~repro.engine.QueryOutcome` carries the answer, the
        engine id, the cache layer that served it (None on a fresh
        evaluation), wall time, and — with ``witness=True`` on a
        witness-capable engine — a concrete witness path.
        """
        return self.service(engine, **engine_options).query_outcome(
            source, target, labels, witness=witness
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
        """Answer one query through the spec's service (cache layered).

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

        Equivalent to ``QueryService.run`` on the spec's service, plus
        persistence: the backing store (when the session has one) is
        flushed after the run, so the next process starts warm.
        ``engine_options`` address the same *(spec, options)* engine an
        earlier :meth:`engine` call with those options prepared.
        """
        if isinstance(workload, (str, os.PathLike)):
            workload = load_workload(workload)
        service = self.service(engine, **engine_options)
        report = service.run(workload, verify=verify)
        if service.store is not None:
            service.store.flush()
        return report

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
        verbatim) built from the :class:`~repro.engine.QueryOutcome`:
        the answer, the engine spec and engine id that produced it,
        the cache layer that served it (``cached`` stays the coarse
        boolean), the prepared constraint's digest,
        wall time, and — for true answers on a witness-ready engine —
        a shortest witness path.
        """
        spec = engine or self._default_spec
        service = self.service(spec, **engine_options)
        engine_obj = service.engine
        want_witness = bool(witness) and getattr(engine_obj, "witness_ready", False)
        outcome = service.query_outcome(
            source, target, labels, witness=want_witness
        )
        explanation: Dict[str, object] = {
            "query": {
                "source": outcome.source,
                "target": outcome.target,
                "labels": list(outcome.labels),
            },
            "engine": spec,
            "engine_id": outcome.engine,
            "answer": outcome.answer,
            "cached": outcome.cached,
            "cache_layer": outcome.cache_layer,
            "seconds": outcome.seconds,
        }
        try:
            explanation["constraint_digest"] = service.prepare(labels).digest
        except EngineError:
            pass  # engines outside the prepared protocol have no digest
        if outcome.witness is not None:
            vertices, path_labels = outcome.witness
            explanation["witness"] = {
                "vertices": list(vertices),
                "labels": list(path_labels),
            }
        return explanation

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Persist every dirty backing store now."""
        for store in self._stores.values():
            store.flush()

    def close(self) -> None:
        """Flush persistent caches and release async executors."""
        if self._closed:
            return
        self.flush()
        for wrapper in self._async_services.values():
            wrapper.close()
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
        cache = self._cache_dir or "off"
        return (
            f"Session({self._name!r}, engine={self._default_spec!r}, "
            f"engines={len(self._engines)}, cache_dir={cache!r}, {state})"
        )


def open_session(source: GraphSource, **options) -> Session:
    """Open a :class:`Session` — spelled as a function for discoverability."""
    return Session(source, **options)
