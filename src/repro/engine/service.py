"""A batching, caching query service.

:class:`QueryService` is the serving-layer entry point the ROADMAP's
scaling work builds on: it executes workloads in fixed-size batches
through an engine's ``query_batch`` (so engines with a real batched
path — the RLC index and the traversal baselines — amortize
validation, NFA compilation and hub lookups), memoizes answers in a
bounded LRU cache, keeps hit-rate and timing counters, and
verifies answers against the ground truth that workload files carry in
:attr:`RlcQuery.expected`.

    service = QueryService(create_engine("rlc-index", graph, k=2))
    report = service.run(workload)
    assert report.ok and report.hit_rate == 0.0
    report = service.run(workload)     # fully cached now
    assert report.hit_rate == 1.0

The service speaks the **prepared-query protocol** natively: each
distinct constraint is compiled once through the engine's
``prepare_query`` and memoized, and every cache layer — the LRU and
the optional persistent ``store`` — is keyed on the prepared
constraint's stable :attr:`~repro.engine.base.PreparedQuery.digest`
rather than a raw label spelling, so equivalent spellings (lists,
numpy ints) share one entry.  :meth:`query_outcome` returns the full
:class:`~repro.engine.base.QueryOutcome` with the serving cache layer
(``"lru"`` / ``"store"``) filled in; the bool-returning :meth:`query`
is a shim over it.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.engine.base import EngineBase, EngineStats, PreparedQuery, QueryOutcome
from repro.errors import CapabilityError, EngineError, ReproError
from repro.queries import RlcQuery

__all__ = ["QueryService", "ServiceReport"]

#: Result-cache key: ``(source, target, prepared-constraint digest)``.
#: Engines outside the prepared protocol fall back to a ``raw:`` key
#: derived from the literal label tuple.
CacheKey = Tuple[int, int, str]

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

    ``cache_size`` bounds the LRU result cache (0 disables caching);
    ``batch_size`` bounds how many uncached queries are handed to the
    engine per ``query_batch`` call.

    ``store``, when given, is a second cache layer **under** the LRU —
    anything with ``get(key) -> Optional[bool]`` / ``put(key, answer)``
    (``flush()`` stays the owner's concern).  Lookups fall through to it
    on LRU miss (a store hit counts as a cache hit and is promoted into
    the LRU); every computed answer is written through.  The shipped
    implementation is the on-disk
    :class:`repro.api.PersistentResultCache`, which is how a
    :class:`~repro.api.Session` keeps answers warm across processes.
    Both layers key on ``(source, target, prepared digest)``.
    """

    def __init__(
        self,
        engine: EngineBase,
        *,
        cache_size: int = 4096,
        batch_size: int = 256,
        store=None,
    ) -> None:
        if batch_size < 1:
            raise EngineError(f"batch_size must be >= 1, got {batch_size}")
        if cache_size < 0:
            raise EngineError(f"cache_size must be >= 0, got {cache_size}")
        self._engine = engine
        self._cache_size = cache_size
        self._batch_size = batch_size
        self._store = store
        self._cache: "OrderedDict[CacheKey, bool]" = OrderedDict()
        self._prepared: Dict[Tuple, PreparedQuery] = {}
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    @property
    def engine(self) -> EngineBase:
        return self._engine

    @property
    def store(self):
        """The persistent backing store, or None."""
        return self._store

    def prepare(self, labels) -> PreparedQuery:
        """Compile a constraint once through the engine, memoized.

        The service-level face of the prepared lifecycle: repeated
        calls with the same (or equivalently spelled) constraint return
        the same object, whose digest keys every cache layer.  Raises
        ``EngineError`` for engines outside the prepared protocol.
        """
        prepared = self._prepared_for(labels)
        if prepared is None:
            raise EngineError(
                f"engine {self._engine.name!r} does not implement "
                "prepare_query(); it predates the prepared-query protocol"
            )
        return prepared

    def _prepared_for(self, labels) -> Optional[PreparedQuery]:
        """The memoized prepared constraint, or None (legacy engines)."""
        key = tuple(labels)
        prepared = self._prepared.get(key)
        if prepared is not None:
            return prepared
        prepare = getattr(self._engine, "prepare_query", None)
        if prepare is None:
            return None
        prepared = prepare(key)
        if len(self._prepared) >= _PREPARED_MEMO_LIMIT:
            self._prepared.clear()
        self._prepared[key] = prepared
        if prepared.labels != key:
            # Alias the normalized spelling (numpy ints, lists) too.
            self._prepared[prepared.labels] = prepared
        return prepared

    def _key_of(
        self, source: int, target: int, labels, prepared: Optional[PreparedQuery]
    ) -> CacheKey:
        if prepared is not None:
            return (int(source), int(target), prepared.digest)
        raw = ",".join(str(int(label)) for label in labels)
        return (int(source), int(target), f"raw:{raw}")

    def peek(self, source: int, target: int, labels) -> Optional[bool]:
        """The cached answer for a query, or None — never runs the engine.

        Consults the LRU and the backing store (promoting a store hit
        into the LRU) without counting a hit or a miss — an external
        read-only probe (``Session.explain`` now reads the cache layer
        off its :class:`~repro.engine.base.QueryOutcome` instead).
        A malformed constraint returns None rather than raising — an
        invalid query is never cached, and a peek is a read-only
        probe, so compiling the key (the only engine-side work peek
        does) must not surface validation errors.
        """
        try:
            prepared = self._prepared_for(labels)
        except ReproError:
            return None
        answer, _ = self._cache_lookup(self._key_of(source, target, labels, prepared))
        return answer

    def query_outcome(
        self, source: int, target: int, labels, *, witness: bool = False
    ) -> QueryOutcome:
        """Answer one query through the cache, with full provenance.

        A fresh evaluation returns the engine's own
        :class:`~repro.engine.base.QueryOutcome`; a cached answer is
        wrapped in an outcome whose ``cache_layer`` names the serving
        layer (``"lru"`` or ``"store"``).  ``witness=True`` attaches a
        witness path either way; engines that cannot produce one —
        no ``witness`` capability, or an engine outside the prepared
        protocol entirely — raise ``CapabilityError`` rather than
        silently omitting it.
        """
        prepared = self._prepared_for(labels)
        if witness and prepared is None:
            raise CapabilityError(
                f"engine {self._engine.name!r} predates the prepared-query "
                "protocol and cannot attach witness paths"
            )
        key = self._key_of(source, target, labels, prepared)
        started = time.perf_counter()
        cached, layer = self._cache_lookup(key)
        if cached is not None:
            self._hits += 1
            path = None
            if witness and prepared is not None:
                path = self._engine.witness_path(
                    prepared, int(source), int(target), answer=cached
                )
            return QueryOutcome(
                answer=cached,
                source=int(source),
                target=int(target),
                labels=prepared.labels if prepared is not None else tuple(labels),
                engine=self._engine.name,
                cache_layer=layer,
                witness=path,
                seconds=time.perf_counter() - started,
            )
        self._misses += 1
        if prepared is not None:
            outcome = self._engine.query_prepared(
                prepared, source, target, witness=witness
            )
        else:
            query = RlcQuery(int(source), int(target), tuple(labels))
            answer = bool(self._engine.query(query))
            outcome = QueryOutcome(
                answer=answer,
                source=query.source,
                target=query.target,
                labels=query.labels,
                engine=self._engine.name,
                seconds=time.perf_counter() - started,
            )
        self._cache_put(key, outcome.answer)
        return outcome

    def query(self, source: int, target: int, labels) -> bool:
        """Answer one query through the cache (bool shim over outcomes)."""
        return self.query_outcome(source, target, labels).answer

    def run(
        self,
        queries: Iterable[RlcQuery],
        *,
        verify: bool = True,
    ) -> ServiceReport:
        """Execute a workload (any iterable of queries) in batches.

        Cached queries are answered without touching the engine; the
        remainder is executed in ``batch_size`` chunks through
        ``query_batch``.  With ``verify`` set, answers are checked
        against each query's ``expected`` attribute (where present) and
        disagreements are collected on the report — the caller decides
        whether a mismatch is fatal.
        """
        batch = list(queries)
        answers: List[Optional[bool]] = [None] * len(batch)
        # With caching on, duplicate uncached queries collapse onto one
        # in-flight group: the engine evaluates each distinct key once
        # and the answer fans out to every position that asked for it.
        # With cache_size=0 the caller asked to measure raw engine
        # execution, so every occurrence runs individually.
        pending_groups: List[List[int]] = []
        group_of: Dict[CacheKey, List[int]] = {}
        key_of: List[Optional[CacheKey]] = [None] * len(batch)
        hits = misses = 0
        started = time.perf_counter()
        for position, query in enumerate(batch):
            key = self._key_of(
                query.source,
                query.target,
                query.labels,
                self._prepared_for(query.labels),
            )
            key_of[position] = key
            cached, _ = self._cache_lookup(key)
            if cached is not None:
                answers[position] = cached
                hits += 1
                continue
            misses += 1
            if self._cache_size == 0:
                pending_groups.append([position])
                continue
            group = group_of.get(key)
            if group is None:
                group = []
                group_of[key] = group
                pending_groups.append(group)
            group.append(position)
        batches = 0
        for start in range(0, len(pending_groups), self._batch_size):
            chunk = pending_groups[start : start + self._batch_size]
            chunk_answers = self._engine.query_batch(
                [batch[positions[0]] for positions in chunk]
            )
            batches += 1
            if len(chunk_answers) != len(chunk):
                raise EngineError(
                    f"engine {self._engine.name!r} returned "
                    f"{len(chunk_answers)} answers for {len(chunk)} queries"
                )
            for positions, answer in zip(chunk, chunk_answers):
                self._cache_put(key_of[positions[0]], answer)
                for position in positions:
                    answers[position] = answer
        seconds = time.perf_counter() - started
        self._hits += hits
        self._misses += misses
        mismatches: List[Tuple[RlcQuery, bool]] = []
        if verify:
            for query, answer in zip(batch, answers):
                if query.expected is not None and answer != query.expected:
                    mismatches.append((query, bool(answer)))
        return ServiceReport(
            engine_name=self._engine.name,
            answers=[bool(answer) for answer in answers],
            seconds=seconds,
            cache_hits=hits,
            cache_misses=misses,
            batches=batches,
            mismatches=mismatches,
        )

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------

    def _cache_lookup(
        self, key: CacheKey
    ) -> Tuple[Optional[bool], Optional[str]]:
        """``(answer, layer)`` — layer is ``"lru"``, ``"store"`` or None."""
        answer = self._cache.get(key)
        if answer is not None:
            self._cache.move_to_end(key)
            return answer, "lru"
        if self._store is not None:
            answer = self._store.get(key)
            if answer is not None:
                # Promote into the LRU so hot persistent entries stop
                # paying the store lookup.
                self._cache_put(key, answer)
                return answer, "store"
        return None, None

    def _cache_put(self, key: CacheKey, answer: bool) -> None:
        if self._store is not None:
            self._store.put(key, answer)
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
        self._cache.clear()
        self._prepared.clear()

    @property
    def cache_len(self) -> int:
        """Number of answers currently cached."""
        return len(self._cache)

    def counters(self) -> Dict[str, float]:
        """Cumulative service counters plus the engine's own stats."""
        stats: EngineStats = self._engine.stats()
        served = self._hits + self._misses
        values: Dict[str, float] = {
            "cache_hits": self._hits,
            "cache_misses": self._misses,
            "hit_rate": self._hits / served if served else 0.0,
            "cache_len": len(self._cache),
            "prepared_constraints": len(
                {prepared.digest for prepared in self._prepared.values()}
            ),
        }
        if self._store is not None:
            values["store_len"] = len(self._store)
        for name, value in stats.as_dict().items():
            values[f"engine_{name}"] = value
        return values

    def __repr__(self) -> str:
        return (
            f"QueryService(engine={self._engine.name!r}, "
            f"cache={len(self._cache)}/{self._cache_size}, "
            f"batch_size={self._batch_size})"
        )
