"""Session-oriented public API: open a graph once, serve it many ways.

This package is the front door of the library — the ROADMAP's serving
lifecycle (build-once/query-many, exactly the deployment model the
reachability-indexing literature assumes) captured in four pieces:

- :class:`Session` (:func:`open_session`) — owns a graph, prepares
  engines lazily by registry spec, serves ``query`` / ``run`` /
  ``explain`` through cached, batched services;
- :class:`PersistentResultCache` — the on-disk result cache a session
  layers under each service's LRU, keyed by graph digest + engine
  spec, warm across processes;
- :class:`AsyncQueryService` — awaitable facade over the thread-pool
  service for asyncio hosts;
- :class:`ReplayServer` — the stdlib HTTP JSON endpoint behind
  ``repro serve`` (``/query``, ``/batch``, ``/stats``, ``/healthz``).

Quickstart::

    from repro.api import Session

    with Session("TW", cache_dir=".repro-cache") as session:
        report = session.run(workload, engine="rlc?k=3")
        assert report.ok
"""

from repro.api.async_service import AsyncQueryService
from repro.api.cache import PersistentResultCache, cache_file_name
from repro.api.server import ReplayServer
from repro.api.session import Session, open_session

__all__ = [
    "AsyncQueryService",
    "PersistentResultCache",
    "ReplayServer",
    "Session",
    "cache_file_name",
    "open_session",
]
