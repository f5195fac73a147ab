"""Span tracing for the benchmark, installed from outside the program.

:class:`Tracer` wraps public functions of the ``repro`` package (module
functions and class methods) in timing wrappers.  Each call becomes a
span: name, start, end, the span that caused it, and the root span of
the request it belongs to.  A span's *self time* is its duration minus
the durations of its direct child spans, so a layer's self time excludes
the layers it calls into.  Aggregates (count, self time, items) are kept
for every span; the span records themselves are kept in memory up to
``keep`` spans and written out only when the benchmark ends.

Run as a script, this module is the traced ``repro serve`` launcher::

    python3 perfbench/spans.py SUMMARY.json -- serve EP --port 0 --quiet

It installs the same wrappers in the server process, runs the ``repro``
command line, and on SIGTERM writes the span aggregates, the spans and
the build counters of every index the server built to ``SUMMARY.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import sys
import threading
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Spans kept in memory for the trace file; later spans only aggregate.
DEFAULT_KEEP = 100_000

#: Names of the spans this benchmark records, one per wrapped call.
GENERATE = "graph.load_dataset"
BUILD = "core.builder.build_rlc_index"
PROBE = "core.index.query_mr"
INDEX_BATCH = "core.index.query_batch"
PREPARE_QUERY = "engine.prepare_query"
QUERY_PREPARED = "engine.query_prepared"
ENGINE_BATCH = "engine.query_batch"
SERVICE_QUERY = "engine.service.query_outcome"
SERVICE_RUN = "engine.service.run"
SESSION_QUERY = "api.session.query_outcome"


def _length(args: tuple, kwargs: dict) -> int:
    """Item count of a batch call: the length of its query sequence."""
    queries = args[1] if len(args) > 1 else kwargs.get("queries", ())
    try:
        return len(queries)
    except TypeError:
        return 0


class Tracer:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self, keep: int = DEFAULT_KEEP) -> None:
        self._keep = keep
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._installed: List[Tuple[object, str, object]] = []
        #: name -> [count, total duration ns, total self ns, items]
        self.totals: Dict[str, List[int]] = {}
        #: (name, start_ns, end_ns, self_ns, span_id, parent_id, root_id)
        self.spans: List[Tuple[str, int, int, int, int, int, int]] = []
        #: build_stats and size of every index built while installed.
        self.builds: List[Dict[str, float]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        function: Callable,
        *,
        items: Optional[Callable[[tuple, dict], int]] = None,
        skip_under: Sequence[str] = (),
        label: Optional[Callable[[tuple, dict], str]] = None,
        on_result: Optional[Callable[[object, tuple, dict], None]] = None,
    ) -> Callable:
        """A timing wrapper around ``function`` recording ``name`` spans.

        ``skip_under`` names parent spans under which the call is passed
        through unrecorded (the index probe inside a batched index call
        is part of that call, not a point probe).  ``label`` appends a
        suffix to the span name from the call's arguments.
        """
        tracer = self
        skip = frozenset(skip_under)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if skip and stack and stack[-1][1] in skip:
                return function(*args, **kwargs)
            span_name = name + label(args, kwargs) if label else name
            span_id = next(tracer._ids)  # atomic under the interpreter lock
            # frame: [span id, name, accumulated child ns]
            frame = [span_id, span_name, 0]
            stack.append(frame)
            started = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = perf_counter_ns()
                stack.pop()
                duration = ended - started
                if stack:
                    stack[-1][2] += duration
                    parent_id, root_id = stack[-1][0], stack[0][0]
                else:
                    parent_id, root_id = -1, span_id
                tracer._record(
                    span_name,
                    started,
                    ended,
                    duration - frame[2],
                    span_id,
                    parent_id,
                    root_id,
                    items(args, kwargs) if items else 0,
                )
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def _record(self, name, started, ended, self_ns, span_id, parent_id, root_id, items):
        with self._lock:
            totals = self.totals.get(name)
            if totals is None:
                totals = self.totals[name] = [0, 0, 0, 0]
            totals[0] += 1
            totals[1] += ended - started
            totals[2] += self_ns
            totals[3] += items
            if len(self.spans) < self._keep:
                self.spans.append(
                    (name, started, ended, self_ns, span_id, parent_id, root_id)
                )

    # ------------------------------------------------------------------
    # Installing wrappers on the program's public calls
    # ------------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap the public calls of every measured layer."""
        from repro.api.session import Session
        from repro.core.index import RlcIndex
        from repro.engine import adapters
        from repro.engine.base import EngineBase
        from repro.engine.service import QueryService
        from repro.graph import datasets

        def build_label(args, kwargs) -> str:
            k = args[1] if len(args) > 1 else kwargs.get("k")
            return f".k{k}"

        def record_build(index, args, kwargs) -> None:
            stats = dict(index.build_stats.as_dict()) if index.build_stats else {}
            stats["k"] = index.k
            stats["entries"] = index.num_entries
            stats["index_bytes"] = index.estimated_size_bytes()
            with self._lock:
                self.builds.append(stats)

        targets = [
            (datasets, "load_dataset", GENERATE, {}),
            # RlcIndexEngine._prepare calls the name bound in its module.
            (adapters, "build_rlc_index", BUILD,
             {"label": build_label, "on_result": record_build}),
            (RlcIndex, "query_mr", PROBE, {"skip_under": (INDEX_BATCH,)}),
            (RlcIndex, "query_batch", INDEX_BATCH, {"items": _length}),
            (EngineBase, "prepare_query", PREPARE_QUERY, {}),
            (EngineBase, "query_prepared", QUERY_PREPARED, {}),
            (EngineBase, "query_batch", ENGINE_BATCH, {"items": _length}),
            (QueryService, "query_outcome", SERVICE_QUERY, {}),
            (QueryService, "run", SERVICE_RUN, {"items": _length}),
            (Session, "query_outcome", SESSION_QUERY, {}),
        ]
        for owner, attribute, name, options in targets:
            original = owner.__dict__[attribute]
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original, **options))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped call to the original function."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------

    def count(self, prefix: str) -> int:
        return sum(t[0] for name, t in self.totals.items() if name.startswith(prefix))

    def mean_duration_s(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals[1] / totals[0] / 1e9 if totals and totals[0] else 0.0

    def mean_self_us(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals[2] / totals[0] / 1e3 if totals and totals[0] else 0.0

    def self_us_per_item(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals[2] / totals[3] / 1e3 if totals and totals[3] else 0.0

    def summary(self) -> Dict[str, object]:
        return {"totals": self.totals, "builds": self.builds}

    @classmethod
    def from_summary(cls, summary: Dict[str, object]) -> "Tracer":
        tracer = cls(keep=0)
        tracer.totals = {name: list(v) for name, v in summary["totals"].items()}
        tracer.builds = list(summary["builds"])
        return tracer

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (the end-of-run trace file)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        temporary = path + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        os.replace(temporary, path)


def _serve_traced(argv: List[str]) -> int:
    """Run ``repro`` (normally ``serve``) with the tracer installed."""
    if len(argv) < 3 or argv[1] != "--":
        print("usage: spans.py SUMMARY.json -- REPRO-ARGS...", file=sys.stderr)
        return 2
    summary_path, repro_args = argv[0], argv[2:]

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    tracer = Tracer().install()
    from repro.cli import main as repro_main

    try:
        code = repro_main(repro_args)
    finally:
        tracer.uninstall()
        tracer.write_spans(summary_path + ".spans.jsonl")
        temporary = summary_path + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)
        os.replace(temporary, summary_path)
    return code


if __name__ == "__main__":
    sys.exit(_serve_traced(sys.argv[1:]))
