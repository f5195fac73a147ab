"""Asyncio front-end over the query service.

:class:`AsyncQueryService` lets asyncio applications (the replay
server's future HTTP/2 incarnation, notebooks, any event-loop host)
await RLC queries without blocking the loop.  It is a thin ownership
wrapper: all execution happens on the wrapped
:class:`~repro.engine.service.QueryService`, dispatched through a
**single-worker** executor so concurrent coroutines serialize exactly
like sequential callers — the wrapped service's LRU cache is an
``OrderedDict`` (not thread-safe), and one dispatch thread makes every
``run`` report and every cached answer identical to the synchronous
path::

    service = AsyncQueryService(QueryService(create_engine("rlc", graph)))
    answer = await service.query(0, 5, (1, 0))
    report = await service.run(workload)          # same ServiceReport
    answers = await service.query_many([(0, 5, (1, 0)), (1, 4, (0,))])
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.engine.service import QueryService, ServiceReport
from repro.queries import RlcQuery

__all__ = ["AsyncQueryService"]

QueryTriple = Tuple[int, int, Sequence[int]]


class AsyncQueryService:
    """Awaitable facade over a :class:`QueryService`.

    Pass ``executor`` to share a pool; by default the wrapper owns a
    one-thread executor (see module docstring for why one) and shuts it
    down on :meth:`close` / ``async with``.
    """

    def __init__(
        self,
        service: QueryService,
        *,
        executor: Optional[ThreadPoolExecutor] = None,
    ) -> None:
        self._service = service
        self._owns_executor = executor is None
        self._executor = executor or ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-async"
        )
        self._closed = False

    @property
    def service(self) -> QueryService:
        """The wrapped synchronous service (engine, caches, counters)."""
        return self._service

    async def _dispatch(self, fn, *args, **kwargs):
        if self._closed:
            raise RuntimeError("AsyncQueryService is closed")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, partial(fn, *args, **kwargs)
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    async def prepare(self, labels: Sequence[int]):
        """Await a prepared constraint (memoized like the sync ``prepare``)."""
        return await self._dispatch(self._service.prepare, labels)

    async def query(
        self, source: int, target: int, labels: Sequence[int]
    ) -> bool:
        """Await one query (cached exactly like the sync ``query``)."""
        return await self._dispatch(self._service.query, source, target, labels)

    async def query_outcome(
        self,
        source: int,
        target: int,
        labels: Sequence[int],
        *,
        witness: bool = False,
    ):
        """Await one query's :class:`~repro.engine.QueryOutcome`.

        Identical provenance (cache layer, witness)
        to the sync ``query_outcome`` — one dispatch thread serializes
        with every other call on this wrapper.
        """
        return await self._dispatch(
            self._service.query_outcome, source, target, labels, witness=witness
        )

    async def query_many(
        self, triples: Iterable[QueryTriple]
    ) -> List[bool]:
        """Await many point queries, preserving input order.

        Coroutine-level fan-out (``asyncio.gather``); for throughput
        prefer :meth:`run`, which takes the engines' batched path.
        """
        return list(
            await asyncio.gather(
                *(self.query(source, target, labels)
                  for source, target, labels in triples)
            )
        )

    async def run(
        self,
        queries: Iterable[RlcQuery],
        *,
        verify: bool = True,
    ) -> ServiceReport:
        """Await a workload replay; the report is the sync ``run``'s."""
        # Materialize before crossing threads: the iterable may be lazy
        # and bound to loop-side state.
        batch = list(queries)
        return await self._dispatch(self._service.run, batch, verify=verify)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the owned executor down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_executor:
            self._executor.shutdown(wait=True)

    async def aclose(self) -> None:
        self.close()

    async def __aenter__(self) -> "AsyncQueryService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"AsyncQueryService({self._service!r}, {state})"
