"""``repro serve`` — a stdlib JSON replay server over a session.

The deployment model for a reachability index is build-once/query-many:
one process owns the prepared engines and answers a stream of queries.
:class:`ReplayServer` is that process, stdlib-only
(:class:`http.server.ThreadingHTTPServer`), serving five endpoints:

- ``GET /healthz`` — liveness plus graph/engine identity;
- ``GET /stats`` — per-spec service counters (cache hits, engine
  timings ...);
- ``POST /prepare`` — compile a constraint once: ``{"labels": [1, 0]}``
  returns the prepared constraint's normalized labels (the identity
  its answers are cached under), its text in the paper's notation and
  the serving engine's id; subsequent ``/query`` calls under the same
  constraint hit the server-side prepared memo;
- ``POST /query`` — one query: ``{"source": 0, "target": 5, "labels":
  [1, 0]}``; the response is the structured
  :class:`~repro.engine.QueryOutcome` JSON (answer, engine id,
  ``cached``, wall time).  Add ``"witness": true`` for a witness path
  on a true answer (the session finds it over its graph, whatever the
  engine), or ``"explain": true`` for the fuller ``Session.explain``
  document;
- ``POST /batch`` — a workload replay: ``{"queries": [{"source": ...,
  "target": ..., "labels": [...], "expected": true}, ...]}``, answered
  through the batched/cached service path and reported with
  :class:`~repro.engine.service.ServiceReport` semantics (``answers``,
  ``hit_rate``, ``mismatches`` against carried expectations).

Every POST may name an ``"engine"`` spec — the server replays against
any registry spec, preparing it lazily through the session on first
use; equivalent spellings (``rlc``, ``rlc-index?k=2``) share one
engine.

The server parses bodies and shapes responses, nothing more.  It checks
only the JSON shape of a body (an object, a ``labels`` list, boolean
flags, a string spec); endpoints and label ids go unchecked to the
session, where :mod:`repro.queries` owns the rules.  Every
:class:`~repro.errors.ReproError` a request raises is an HTTP 400.

The server holds no lock of its own: handler threads call straight
into the shared session.  Engines are read-only after ``prepare()``,
and each spec's :class:`~repro.engine.QueryService` releases its lock
while the engine evaluates, so a ``/batch`` in flight does not hold up
a ``/query``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.queries import RlcQuery

from repro.api.session import Session

__all__ = ["ReplayServer"]

MAX_BODY_BYTES = 64 * 1024 * 1024


#: How often a :meth:`ReplayServer.start` thread checks for ``stop()``.
#: ``serve_forever``'s default of 0.5 s would make every ``stop()`` wait
#: out up to half a second.
_THREAD_POLL_SECONDS = 0.01


class _BadRequest(ReproError):
    """A request body of the wrong JSON shape (mapped to HTTP 400)."""


def _labels(payload: Dict) -> List:
    """The ``labels`` list of a body; :mod:`repro.queries` checks its entries."""
    labels = payload.get("labels")
    if not isinstance(labels, list):
        raise _BadRequest("'labels' must be a list")
    return labels


def _flag(payload: Dict, name: str) -> Optional[bool]:
    """An optional JSON boolean of a body (``None`` when absent)."""
    value = payload.get(name)
    if value is not None and not isinstance(value, bool):
        raise _BadRequest(f"'{name}' must be a boolean")
    return value


def _engine_spec(payload: Dict) -> Optional[str]:
    """The body's optional ``engine`` spec string."""
    spec = payload.get("engine")
    if spec is not None and not isinstance(spec, str):
        raise _BadRequest("'engine' must be a spec string")
    return spec


class _Handler(BaseHTTPRequestHandler):
    server: "_SessionHTTPServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._respond(200, self.server.healthz())
        elif path == "/stats":
            self._respond(200, self.server.stats())
        else:
            self._respond(404, {"error": f"unknown path {path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0]
        if path not in ("/query", "/batch", "/prepare"):
            self._respond(404, {"error": f"unknown path {path!r}"})
            return
        try:
            payload = self._read_json()
            if path == "/query":
                body = self.server.handle_query(payload)
            elif path == "/prepare":
                body = self.server.handle_prepare(payload)
            else:
                body = self.server.handle_batch(payload)
        except ReproError as exc:
            self._respond(400, {"error": str(exc)})
        else:
            self._respond(200, body)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _read_json(self) -> Dict:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError as exc:
            raise _BadRequest("bad Content-Length header") from exc
        if length <= 0:
            raise _BadRequest("request needs a JSON body")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise _BadRequest(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        return payload

    def _respond(self, status: int, body: Dict) -> None:
        if status >= 400:
            # Error paths may not have drained the request body; keeping
            # the HTTP/1.1 connection alive would make the unread bytes
            # parse as the next request line.
            self.close_connection = True
        encoded = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, format: str, *args) -> None:
        if not self.server.quiet:
            super().log_message(format, *args)


class _SessionHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns the session."""

    daemon_threads = True

    def __init__(self, address, session: Session, quiet: bool) -> None:
        super().__init__(address, _Handler)
        self.session = session
        self.quiet = quiet

    def healthz(self) -> Dict:
        session = self.session
        body: Dict = {
            "ok": True,
            "engine": session.default_engine_spec,
            "graph": session.name,
            "digest": session.graph_digest,
        }
        try:
            graph = session.graph
        except ReproError:
            pass
        else:
            body["vertices"] = graph.num_vertices
            body["edges"] = graph.num_edges
            body["labels"] = graph.num_labels
        return body

    def stats(self) -> Dict:
        return {
            "engine": self.session.default_engine_spec,
            "engines": list(self.session.engine_specs()),
            "services": self.session.stats(),
        }

    def handle_query(self, payload: Dict) -> Dict:
        labels = _labels(payload)
        spec = _engine_spec(payload)
        witness = _flag(payload, "witness")
        source, target = payload.get("source"), payload.get("target")
        if _flag(payload, "explain"):
            # explain defaults to attaching a witness (its historical
            # behaviour); an explicit "witness": false declines it.
            return self.session.explain(
                source, target, labels, engine=spec, witness=witness is not False
            )
        outcome = self.session.query_outcome(
            source, target, labels, engine=spec, witness=bool(witness)
        )
        body = outcome.as_dict()
        # 'engine' names the requested spec (what the caller can
        # replay against); the engine's own id is 'engine_id'.
        body["engine_id"] = body["engine"]
        body["engine"] = spec or self.session.default_engine_spec
        return body

    def handle_prepare(self, payload: Dict) -> Dict:
        labels = _labels(payload)
        spec = _engine_spec(payload)
        service = self.session.service(spec)
        body = service.prepare(labels).as_dict()
        body["engine"] = spec or self.session.default_engine_spec
        body["engine_id"] = service.engine.name
        return body

    def handle_batch(self, payload: Dict) -> Dict:
        raw_queries = payload.get("queries")
        if not isinstance(raw_queries, list):
            raise _BadRequest("'queries' must be a list of query objects")
        queries: List[RlcQuery] = []
        for entry in raw_queries:
            if not isinstance(entry, dict):
                raise _BadRequest("each query must be a JSON object")
            queries.append(
                RlcQuery(
                    entry.get("source"),
                    entry.get("target"),
                    _labels(entry),
                    expected=_flag(entry, "expected"),
                )
            )
        spec = _engine_spec(payload)
        verify = _flag(payload, "verify") is not False
        return self.session.run(queries, engine=spec, verify=verify).as_dict()


class ReplayServer:
    """The ``repro serve`` server object (embeddable and CLI-driven).

    ``port=0`` binds an ephemeral port — read :attr:`port`/:attr:`url`
    after construction.  Use :meth:`serve_forever` from a CLI process,
    or :meth:`start`/:meth:`stop` (background thread) from tests and
    embedding applications::

        with ReplayServer(session, port=0) as server:
            urllib.request.urlopen(server.url + "/healthz")
    """

    def __init__(
        self,
        session: Session,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        quiet: bool = True,
    ) -> None:
        self._session = session
        self._http = _SessionHTTPServer((host, port), session, quiet)
        self._thread: Optional[threading.Thread] = None

    @property
    def session(self) -> Session:
        """The session every request is answered through."""
        return self._session

    @property
    def host(self) -> str:
        """The address the server is bound to."""
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the ephemeral one chosen for ``port=0``)."""
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the server, e.g. ``http://127.0.0.1:8080``."""
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self._http.serve_forever()
        finally:
            self._http.server_close()

    def start(self) -> "ReplayServer":
        """Serve on a daemon thread; returns self once accepting."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            kwargs={"poll_interval": _THREAD_POLL_SECONDS},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the :meth:`start` thread, if any, and close the socket."""
        if self._thread is not None:
            # shutdown() waits for a serve loop to end: only call it
            # when a thread runs one, or it would wait forever.
            self._http.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self._http.server_close()

    def __enter__(self) -> "ReplayServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"ReplayServer(url={self.url!r}, session={self._session!r})"
