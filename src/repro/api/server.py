"""``repro serve`` — a stdlib JSON replay server over a session.

The deployment model for a reachability index is build-once/query-many:
one process owns the prepared engines and answers a stream of queries.
:class:`ReplayServer` is that process, stdlib-only
(:class:`http.server.ThreadingHTTPServer`), serving five endpoints:

- ``GET /healthz`` — liveness plus graph/engine identity (including
  the default engine's capability flags);
- ``GET /stats`` — per-spec service counters (cache hits, engine
  timings ...);
- ``POST /prepare`` — compile a constraint once: ``{"labels": [1, 0]}``
  returns the prepared constraint's normalized labels, digest and
  the serving engine's capabilities; subsequent
  ``/query`` calls under the same constraint hit the server-side
  prepared memo;
- ``POST /query`` — one query: ``{"source": 0, "target": 5, "labels":
  [1, 0]}``; the response is the structured
  :class:`~repro.engine.QueryOutcome` JSON (answer, engine id, cache
  layer, wall time).  Add ``"witness": true`` for a
  witness path on a witness-ready engine, or ``"explain": true`` for
  the fuller ``Session.explain`` document;
- ``POST /batch`` — a workload replay: ``{"queries": [{"source": ...,
  "target": ..., "labels": [...], "expected": true}, ...]}``, answered
  through the batched/cached service path and reported with
  :class:`~repro.engine.service.ServiceReport` semantics (``answers``,
  ``hit_rate``, ``mismatches`` against carried expectations).

Every POST may name an ``"engine"`` spec — the server replays against
any registry spec, preparing it lazily through the session on first
use.  Handler threads serialize on one lock (the per-spec LRU caches
are not thread-safe; queries are microseconds, so the lock, not the
engine, is the right concurrency boundary at this scale).  The
session's persistent caches are flushed after every ``/batch`` replay
(``Session.run`` flushes) and on shutdown — never per point query,
where rewriting the whole store under the serving lock would cost
quadratic disk I/O over a replay.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.engine.service import ServiceReport
from repro.errors import ReproError
from repro.queries import RlcQuery

from repro.api.session import Session

__all__ = ["ReplayServer"]

MAX_BODY_BYTES = 64 * 1024 * 1024


class _BadRequest(ValueError):
    """Client-side defect in a request body (mapped to HTTP 400)."""


def _require_labels(payload: Dict) -> Tuple[int, ...]:
    """The shared 'labels' parsing of /query, /batch and /prepare bodies."""
    try:
        raw_labels = payload["labels"]
        if not isinstance(raw_labels, (list, tuple)):
            raise TypeError("labels must be a list")
        labels = tuple(int(label) for label in raw_labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise _BadRequest("'labels' must be a list of integers") from exc
    if not labels:
        raise _BadRequest("'labels' must be a non-empty list")
    return labels


def _require_query(payload: Dict) -> Tuple[int, int, Tuple[int, ...]]:
    labels = _require_labels(payload)
    try:
        source = int(payload["source"])
        target = int(payload["target"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _BadRequest(
            "a query needs integer 'source', 'target' and a 'labels' list"
        ) from exc
    return source, target, labels


def _report_payload(report: ServiceReport) -> Dict:
    return {
        "engine": report.engine_name,
        "answers": [bool(answer) for answer in report.answers],
        "total": report.total,
        "seconds": report.seconds,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "batches": report.batches,
        "hit_rate": report.hit_rate,
        "queries_per_second": report.queries_per_second,
        "ok": report.ok,
        "mismatches": len(report.mismatches),
    }


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
        except _BadRequest as exc:
            self._respond(400, {"error": str(exc)})
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
    """ThreadingHTTPServer that owns the session and the serving lock."""

    daemon_threads = True

    def __init__(self, address, session: Session, quiet: bool) -> None:
        super().__init__(address, _Handler)
        self.session = session
        self.quiet = quiet
        self._lock = threading.Lock()

    # Handlers call in from their own threads; everything touching a
    # QueryService (whose LRU is a plain OrderedDict) takes the lock.

    def healthz(self) -> Dict:
        session = self.session
        body: Dict = {
            "ok": True,
            "engine": session.default_engine_spec,
            "graph": session.name,
            "digest": session.graph_digest,
        }
        try:
            from repro.engine.registry import engine_capabilities

            body["capabilities"] = sorted(
                engine_capabilities(session.default_engine_spec)
            )
        except ReproError:
            pass  # exotic default specs stay healthy without the flags
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
        with self._lock:
            return {
                "engine": self.session.default_engine_spec,
                "engines": list(self.session.engine_specs()),
                "services": self.session.stats(),
            }

    def handle_query(self, payload: Dict) -> Dict:
        source, target, labels = _require_query(payload)
        spec = payload.get("engine")
        if spec is not None and not isinstance(spec, str):
            raise _BadRequest("'engine' must be a spec string")
        witness = payload.get("witness")
        if witness is not None and not isinstance(witness, bool):
            raise _BadRequest("'witness' must be a boolean")
        with self._lock:
            if payload.get("explain"):
                # explain defaults to attaching a witness (its historical
                # behaviour); an explicit "witness": false declines it.
                body = self.session.explain(
                    source,
                    target,
                    labels,
                    engine=spec,
                    witness=witness if witness is not None else True,
                )
            else:
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
        labels = _require_labels(payload)
        spec = payload.get("engine")
        if spec is not None and not isinstance(spec, str):
            raise _BadRequest("'engine' must be a spec string")
        with self._lock:
            prepared = self.session.prepare(labels, engine=spec)
            engine = self.session.service(spec).engine
            body = prepared.as_dict()
            body["engine"] = spec or self.session.default_engine_spec
            body["engine_id"] = engine.name
            body["capabilities"] = sorted(engine.capabilities)
        return body

    def handle_batch(self, payload: Dict) -> Dict:
        raw_queries = payload.get("queries")
        if not isinstance(raw_queries, list):
            raise _BadRequest("'queries' must be a list of query objects")
        queries: List[RlcQuery] = []
        for entry in raw_queries:
            if not isinstance(entry, dict):
                raise _BadRequest("each query must be a JSON object")
            source, target, labels = _require_query(entry)
            expected = entry.get("expected")
            if expected is not None and not isinstance(expected, bool):
                raise _BadRequest("'expected' must be a boolean when present")
            queries.append(RlcQuery(source, target, labels, expected=expected))
        spec = payload.get("engine")
        if spec is not None and not isinstance(spec, str):
            raise _BadRequest("'engine' must be a spec string")
        verify = payload.get("verify", True)
        if not isinstance(verify, bool):
            raise _BadRequest("'verify' must be a boolean")
        with self._lock:
            report = self.session.run(queries, engine=spec, verify=verify)
        return _report_payload(report)


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
        return self._session

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self._http.serve_forever()
        finally:
            self._http.server_close()
            self._session.flush()

    def start(self) -> "ReplayServer":
        """Serve on a daemon thread; returns self once accepting."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, close the socket, flush persistent caches."""
        self._http.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._http.server_close()
        self._session.flush()

    def __enter__(self) -> "ReplayServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"ReplayServer(url={self.url!r}, session={self._session!r})"
