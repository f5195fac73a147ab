"""A batching, caching query service.

:class:`QueryService` is the serving-layer entry point: it prepares
each distinct constraint of a workload once, answers the distinct
uncached queries through its engine's ``query_prepared``, memoizes
answers in a bounded LRU cache, keeps hit-rate and timing counters,
and verifies answers against the ground truth that workload files
carry in :attr:`RlcQuery.expected`.

    service = QueryService(create_engine("rlc-index", graph, k=2))
    report = service.run(workload)
    assert report.ok and report.hit_rate == 0.0
    report = service.run(workload)     # fully cached now
    assert report.hit_rate == 1.0

The service speaks the **prepared-query protocol** natively: each
distinct constraint is compiled once through the engine's
``prepare_query`` and memoized, and the LRU is keyed on the prepared
constraint's normalized label tuple rather than a raw label spelling,
so equivalent spellings (lists, numpy ints) share one entry.  A miss
is evaluated with that prepared query, which the engine built and so
does not check again.  :meth:`query_outcome` answers one query
with the full :class:`~repro.queries.QueryOutcome`, ``cached`` set when
the LRU served it; it is the one place an outcome is built.

A service is the one object on the query path that changes after its
engine's ``prepare()``: its LRU, prepared memo and counters sit under
one lock, released while the engine evaluates, so threads may share it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.engine.base import EngineBase, PreparedQuery
from repro.errors import EngineError
from repro.queries import QueryOutcome, RlcQuery, plain_labels, vertex_id

__all__ = ["QueryService", "ServiceReport"]

#: Result-cache key: ``(source, target, normalized label tuple)``.
CacheKey = Tuple[int, int, Tuple[int, ...]]

#: Bound on the prepared-constraint memo (distinct constraints are few
#: in practice; this only guards against adversarial workloads).
_PREPARED_MEMO_LIMIT = 4096


@dataclass
class ServiceReport:
    """The outcome of one :meth:`QueryService.run` call."""

    engine_name: str
    answers: List[bool]
    seconds: float
    cache_hits: int
    cache_misses: int
    #: 1 when the run reached the engine, 0 when fully cached.
    batches: int
    mismatches: List[Tuple[RlcQuery, bool]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of queries executed."""
        return len(self.answers)

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered from the result cache.

        0.0 for an empty run — never a ``ZeroDivisionError``.
        """
        served = self.cache_hits + self.cache_misses
        return self.cache_hits / served if served else 0.0

    @property
    def queries_per_second(self) -> float:
        """Service-level throughput of this run.

        Degenerate runs stay well-defined instead of raising
        ``ZeroDivisionError``: an empty workload reports 0.0 whatever
        the clock says, and a run whose elapsed time rounds to zero
        (coarse clocks, fully-cached replays) reports ``inf``.
        """
        if self.total == 0:
            return 0.0
        return self.total / self.seconds if self.seconds > 0 else float("inf")

    @property
    def ok(self) -> bool:
        """True when no answer contradicted a query's expected value."""
        return not self.mismatches

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (``/batch`` and ``repro run --json`` return it)."""
        return {
            "engine": self.engine_name,
            "answers": [bool(answer) for answer in self.answers],
            "total": self.total,
            "seconds": self.seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "batches": self.batches,
            "hit_rate": self.hit_rate,
            "queries_per_second": self.queries_per_second,
            "ok": self.ok,
            "mismatches": len(self.mismatches),
        }

    def summary(self) -> str:
        """One-line human-readable account (used by the CLI)."""
        return (
            f"{self.engine_name}: {self.total} queries in "
            f"{self.seconds * 1e3:.2f} ms ({self.queries_per_second:.0f} q/s), "
            f"{self.batches} batches, cache hit rate {self.hit_rate:.0%}, "
            f"{len(self.mismatches)} wrong answers"
        )


class QueryService:
    """Batched, cached, verified execution of RLC workloads.

    ``cache_size`` bounds the LRU result cache (0 disables caching).
    The cache keys on ``(source, target, prepared.labels)``, with the
    endpoints checked to be integers before any lookup.
    """

    def __init__(self, engine: EngineBase, *, cache_size: int = 4096) -> None:
        if cache_size < 0:
            raise EngineError(f"cache_size must be >= 0, got {cache_size}")
        self._engine = engine
        self._cache_size = cache_size
        self._lock = threading.Lock()
        self._cache: "OrderedDict[CacheKey, bool]" = OrderedDict()
        # Keyed by normalized label tuples only; read without the lock.
        self._prepared: Dict[Tuple[int, ...], PreparedQuery] = {}
        self._hits = 0
        self._misses = 0
        self._engine_queries = 0
        self._engine_query_seconds = 0.0
        self._engine_batches = 0
        self._engine_batched_queries = 0

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    @property
    def engine(self) -> EngineBase:
        """The engine this service sends its uncached queries to."""
        return self._engine

    def prepare(self, labels) -> PreparedQuery:
        """Compile a constraint once through the engine, memoized.

        The service-level face of the prepared lifecycle: repeated
        calls with the same (or equivalently spelled) constraint return
        the same object, whose labels key the result cache.  The memo is
        consulted only under :func:`repro.queries.plain_labels`; the
        engine validates any other spelling, so a malformed label (even
        an unhashable one) raises the engine's :class:`QueryError`.
        """
        key = tuple(labels)
        if plain_labels(key):
            prepared = self._prepared.get(key)
            if prepared is not None:
                return prepared
        prepared = self._engine.prepare_query(key)
        with self._lock:
            if len(self._prepared) >= _PREPARED_MEMO_LIMIT:
                self._prepared.clear()
            return self._prepared.setdefault(prepared.labels, prepared)

    def query_outcome(self, source: int, target: int, labels) -> QueryOutcome:
        """Answer one query through the cache, with full provenance.

        ``cached`` says whether the LRU served the answer; ``seconds``
        times the lookup and, on a miss, the engine's
        ``query_prepared``, and that time is what a miss adds to
        ``engine_query_seconds``.
        """
        prepared = self.prepare(labels)
        if type(source) is not int:
            source = vertex_id(source, "source")
        if type(target) is not int:
            target = vertex_id(target, "target")
        key = (source, target, prepared.labels)
        started = time.perf_counter()
        with self._lock:
            answer = self._cache.get(key)
            if answer is None:
                self._misses += 1
            else:
                self._hits += 1
                self._cache.move_to_end(key)
        cached = answer is not None
        if not cached:
            answer = self._engine.query_prepared(prepared, source, target)
        seconds = time.perf_counter() - started
        if not cached:
            with self._lock:
                self._engine_queries += 1
                self._engine_query_seconds += seconds
                self._cache_put(key, answer)
        return QueryOutcome(
            answer=answer,
            source=source,
            target=target,
            labels=prepared.labels,
            engine=self._engine.name,
            cached=cached,
            seconds=seconds,
        )

    def run(
        self,
        queries: Iterable[RlcQuery],
        *,
        verify: bool = True,
    ) -> ServiceReport:
        """Execute a workload (any iterable of queries).

        Cached queries are answered without touching the engine.  Each
        distinct uncached query goes to the engine's ``query_prepared``
        once, with the :class:`PreparedQuery` this service holds, and
        its answer fans out to every position that asked for it.  With
        ``verify`` set, answers are checked against each query's
        ``expected`` attribute (where present) and disagreements are
        collected on the report — the caller decides whether a mismatch
        is fatal.
        """
        batch = list(queries)
        answers: List[Optional[bool]] = [None] * len(batch)
        started = time.perf_counter()
        keys: List[CacheKey] = []
        prepared_of: List[PreparedQuery] = []
        for query in batch:
            source, target = query.source, query.target
            if type(source) is not int:
                source = vertex_id(source, "source")
            if type(target) is not int:
                target = vertex_id(target, "target")
            prepared = self.prepare(query.labels)
            prepared_of.append(prepared)
            keys.append((source, target, prepared.labels))
        pending: List[Tuple[CacheKey, List[int]]] = []
        group_of: Dict[CacheKey, List[int]] = {}
        cache = self._cache
        with self._lock:
            for position, key in enumerate(keys):
                cached = cache.get(key)
                if cached is not None:
                    cache.move_to_end(key)
                    answers[position] = cached
                    continue
                group = group_of.get(key)
                if group is None:
                    group = group_of[key] = []
                    pending.append((key, group))
                group.append(position)
            misses = sum(len(positions) for _, positions in pending)
            self._hits += len(batch) - misses
            self._misses += misses
        batches = 0
        if pending:
            query_prepared = self._engine.query_prepared
            evaluated = time.perf_counter()
            group_answers = [
                query_prepared(prepared_of[positions[0]], source, target)
                for (source, target, _), positions in pending
            ]
            elapsed = time.perf_counter() - evaluated
            batches = 1
            with self._lock:
                self._engine_batches += 1
                self._engine_batched_queries += len(pending)
                self._engine_query_seconds += elapsed
                for (key, _), answer in zip(pending, group_answers):
                    self._cache_put(key, answer)
            for (_, positions), answer in zip(pending, group_answers):
                for position in positions:
                    answers[position] = answer
        seconds = time.perf_counter() - started
        mismatches: List[Tuple[RlcQuery, bool]] = []
        if verify:
            for query, answer in zip(batch, answers):
                if query.expected is not None and answer != query.expected:
                    mismatches.append((query, bool(answer)))
        return ServiceReport(
            engine_name=self._engine.name,
            answers=[bool(answer) for answer in answers],
            seconds=seconds,
            cache_hits=len(batch) - misses,
            cache_misses=misses,
            batches=batches,
            mismatches=mismatches,
        )

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------

    def _cache_put(self, key: CacheKey, answer: bool) -> None:
        """Cache ``answer``, evicting the oldest; the caller holds the lock."""
        if self._cache_size == 0:
            return
        self._cache[key] = answer
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def clear_cache(self) -> None:
        """Drop all cached answers and the prepared-constraint memo.

        The blunt reset for "something about the engine or its graph
        changed": answers are discarded and every constraint is
        re-prepared (and re-validated against the engine's current
        label universe) on next use.
        """
        with self._lock:
            self._cache.clear()
            self._prepared.clear()

    @property
    def cache_len(self) -> int:
        """Number of answers currently cached."""
        return len(self._cache)

    def counters(self) -> Dict[str, float]:
        """A consistent snapshot of the service's cumulative counters.

        ``engine_*`` counts what this service sent to its engine: point
        misses (``engine_queries``), runs that reached the engine
        (``engine_batches``) and the distinct misses they sent
        (``engine_batched_queries``), evaluation time, plus the engine's
        own ``prepare_seconds``.
        """
        with self._lock:
            served = self._hits + self._misses
            return {
                "cache_hits": self._hits,
                "cache_misses": self._misses,
                "hit_rate": self._hits / served if served else 0.0,
                "cache_len": len(self._cache),
                "prepared_constraints": len(self._prepared),
                "engine_prepare_seconds": self._engine.prepare_seconds,
                "engine_queries": self._engine_queries,
                "engine_batches": self._engine_batches,
                "engine_batched_queries": self._engine_batched_queries,
                "engine_query_seconds": self._engine_query_seconds,
            }

    def __repr__(self) -> str:
        return (
            f"QueryService(engine={self._engine.name!r}, "
            f"cache={len(self._cache)}/{self._cache_size})"
        )
