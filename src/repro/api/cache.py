"""Persistent on-disk result cache for the session facade.

Reachability indexes live a build-once/query-many lifecycle: the same
graph is served across many processes, and the same queries recur
across runs.  :class:`PersistentResultCache` captures the query-result
side of that lifecycle as one small JSON file per *(graph digest,
engine spec)* pair — :class:`~repro.engine.service.QueryService` layers
it **under** its in-memory LRU (the LRU absorbs the hot keys; the store
keeps everything and survives the process), so a second process
replaying a workload against the same graph and spec answers entirely
from disk (``report.hit_rate == 1.0``).

Entries are keyed ``(source, target, constraint digest)`` — the stable
:attr:`~repro.engine.base.PreparedQuery.digest` of the prepared
constraint, not a raw label spelling — so every spelling of a
constraint (lists, numpy ints) shares one entry and the on-disk format
never depends on how a workload file happened to render its labels.

Safety properties:

- **Keyed by content.** The file name and an in-file header both carry
  the graph's :meth:`~repro.graph.digraph.EdgeLabeledDigraph.content_digest`
  and the engine spec; a cache written for another graph or another
  engine configuration is never served (it simply loads empty).
  Format 1 files (pre-digest label keys) are likewise loaded empty.
- **Corruption-tolerant.** A truncated, unparsable, or wrong-shape file
  is treated as an empty cache, not an error — the cache is a
  performance artifact, never a correctness dependency.
- **Atomic writes.** :meth:`flush` writes to a sibling temp file and
  ``os.replace``\\ s it in, so readers never observe a half-written
  cache.
"""

from __future__ import annotations

import json
import os
import threading
from hashlib import sha256
from typing import Dict, Optional, Sequence, Tuple, Union

__all__ = ["PersistentResultCache", "cache_file_name"]

PathLike = Union[str, os.PathLike]
#: ``(source, target, prepared-constraint digest)`` — mirrors
#: :data:`repro.engine.service.CacheKey`.
CacheKey = Tuple[int, int, str]

_FORMAT = 2


def cache_file_name(graph_digest: str, engine_spec: str) -> str:
    """Deterministic file name for a *(graph digest, engine spec)* pair.

    The digest prefix keeps the name greppable per graph; the hash
    suffix disambiguates engine specs (which contain characters unfit
    for file names, ``rlc?k=3`` being typical).
    """
    spec_hash = sha256(engine_spec.encode("utf-8")).hexdigest()[:12]
    return f"{graph_digest[:16]}-{spec_hash}.json"


def _encode_key(key: CacheKey) -> str:
    source, target, digest = key
    return f"{source} {target} {digest}"


def _decode_key(text: str) -> Optional[CacheKey]:
    parts = text.split()
    if len(parts) != 3:
        return None
    try:
        return int(parts[0]), int(parts[1]), parts[2]
    except ValueError:
        return None


class PersistentResultCache:
    """A warm-across-processes ``{query key: answer}`` store.

    The mutating API mirrors what the service's cache layer needs —
    :meth:`get`, :meth:`put`, :meth:`flush` — and every method is
    thread-safe (the replay server calls in from handler threads).
    Entries live in memory between flushes; :meth:`flush` persists only
    when something changed.
    """

    def __init__(
        self, path: PathLike, *, graph_digest: str, engine_spec: str
    ) -> None:
        self._path = os.fspath(path)
        self._graph_digest = graph_digest
        self._engine_spec = engine_spec
        self._lock = threading.Lock()
        self._entries: Dict[CacheKey, bool] = {}
        self._dirty = False
        self._load()

    # ------------------------------------------------------------------
    # Store protocol (consumed by QueryService)
    # ------------------------------------------------------------------

    def get(self, key: CacheKey) -> Optional[bool]:
        """The stored answer for ``key``, or None."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: CacheKey, answer: bool) -> None:
        """Record an answer; marks the cache dirty only on change."""
        answer = bool(answer)
        with self._lock:
            if self._entries.get(key) is not answer:
                self._entries[key] = answer
                self._dirty = True

    def flush(self) -> None:
        """Atomically persist to disk, if anything changed since load."""
        with self._lock:
            if not self._dirty:
                return
            payload = {
                "format": _FORMAT,
                "graph_digest": self._graph_digest,
                "engine_spec": self._engine_spec,
                "entries": {
                    _encode_key(key): value
                    for key, value in self._entries.items()
                },
            }
            directory = os.path.dirname(self._path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            temp_path = f"{self._path}.tmp.{os.getpid()}"
            with open(temp_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(temp_path, self._path)
            self._dirty = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def graph_digest(self) -> str:
        return self._graph_digest

    @property
    def engine_spec(self) -> str:
        return self._engine_spec

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> Sequence[CacheKey]:
        with self._lock:
            return tuple(self._entries)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def _load(self) -> None:
        """Read the cache file; any defect degrades to an empty cache."""
        try:
            with open(self._path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        if payload.get("format") != _FORMAT:
            return
        # A file keyed for another graph or engine configuration is
        # stale by definition — load nothing rather than serve answers
        # computed for different content.
        if payload.get("graph_digest") != self._graph_digest:
            return
        if payload.get("engine_spec") != self._engine_spec:
            return
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return
        for text, value in entries.items():
            if not isinstance(value, bool):
                continue
            key = _decode_key(text)
            if key is not None:
                self._entries[key] = value

    def __repr__(self) -> str:
        return (
            f"PersistentResultCache(path={self._path!r}, "
            f"entries={len(self)}, spec={self._engine_spec!r})"
        )
