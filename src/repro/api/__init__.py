"""Session-oriented public API: open a graph once, serve it many ways.

This package is the front door of the library — the ROADMAP's serving
lifecycle (build-once/query-many, exactly the deployment model the
reachability-indexing literature assumes) captured in two pieces:

- :class:`Session` — owns a graph, prepares
  engines lazily by registry spec, serves ``query`` / ``run`` /
  ``explain`` through one cached, batched service per engine;
- :class:`ReplayServer` — the stdlib HTTP JSON endpoint behind
  ``repro serve`` (``/query``, ``/prepare``, ``/batch``, ``/stats``,
  ``/healthz``).

Quickstart::

    from repro.api import Session

    with Session("TW") as session:
        report = session.run(workload, engine="rlc?k=3")
        assert report.ok
"""

from repro.api.server import ReplayServer
from repro.api.session import Session

__all__ = [
    "ReplayServer",
    "Session",
]
