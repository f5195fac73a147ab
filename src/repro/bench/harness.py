"""Shared machinery for the experiment drivers.

Conventions:

- query-set timings are reported in **microseconds for the whole set**
  (matching Fig. 3's y-axis, "execution time of 1000 queries") and
  cover only the engine's evaluation of each query — constraint
  preparation happens once per set, outside the clock;
- a query-set run that exceeds its time cap yields :data:`TIMED_OUT`
  and renders as ``X`` (the paper's timeout mark);
- results are :class:`ResultTable` objects — ordered columns, rows of
  dicts — so benchmark scripts can both print them and assert on them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class _TimedOut:
    """Sentinel for a run that exceeded its time cap (renders as ``X``)."""

    def __repr__(self) -> str:
        return "TIMED_OUT"


TIMED_OUT = _TimedOut()


def time_call(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` once, returning ``(result, wall_seconds)``."""
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


#: Each query-set cell is the best of this many verified passes: a
#: single cold pass right after a build is dominated by cache warm-up
#: and scheduler noise, which can swap the order of close engines.
QUERY_SET_PASSES = 3


def run_query_set(engine, queries: Iterable, *, time_cap: Optional[float] = None):
    """Time a query set through an engine: total microseconds, or TIMED_OUT.

    ``engine`` is a prepared :class:`~repro.engine.EngineBase`;
    ``queries`` yields :class:`~repro.queries.RlcQuery` objects over its
    graph.  Each distinct constraint goes through ``engine.prepare_query``
    once, outside the clock, which then covers only the engine's
    ``_evaluate`` hook, one call per query.  Returns the best of
    :data:`QUERY_SET_PASSES` passes.  A wrong answer for a query that
    carries its expected value raises ``AssertionError`` (benchmarks
    double as correctness checks).  ``time_cap`` is checked between
    queries, mirroring how the paper aborts query-set runs that exceed
    the limit.
    """
    query_list = list(queries)
    prepared_for = {}
    for query in query_list:
        if query.labels not in prepared_for:
            prepared_for[query.labels] = engine.prepare_query(query.labels)
    backend = engine.backend
    evaluate = engine._evaluate
    clock = time.perf_counter
    best = None
    for _ in range(QUERY_SET_PASSES):
        total = 0.0
        for query in query_list:
            prepared = prepared_for[query.labels]
            started = clock()
            answer = evaluate(backend, prepared, query.source, query.target)
            total += clock() - started
            if query.expected is not None and answer != query.expected:
                raise AssertionError(
                    f"engine {engine.name!r} answered {answer} for {query}, "
                    f"expected {query.expected}"
                )
            if time_cap is not None and total > time_cap:
                return TIMED_OUT
        best = total if best is None else min(best, total)
    return best * 1e6


def format_micros(value) -> str:
    """Render a microsecond figure (or TIMED_OUT / None) for tables."""
    if value is TIMED_OUT:
        return "X"
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}s"
    if value >= 1e3:
        return f"{value / 1e3:.1f}ms"
    return f"{value:.0f}us"


def format_seconds(value) -> str:
    """Render a seconds figure (or TIMED_OUT / None) for tables."""
    if value is TIMED_OUT:
        return "X"
    if value is None:
        return "-"
    if value >= 60:
        return f"{value / 60:.1f}min"
    if value >= 0.1:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}us"


def format_bytes(value) -> str:
    """Render a byte count (or None) for tables."""
    if value is None:
        return "-"
    if value >= 1 << 20:
        return f"{value / (1 << 20):.2f}MB"
    if value >= 1 << 10:
        return f"{value / (1 << 10):.1f}KB"
    return f"{value}B"


@dataclass
class ResultTable:
    """An ordered-column table of experiment results.

    ``rows`` are dicts keyed by column name; values may be raw numbers
    (preferred — tests assert on them) with rendering delegated to
    ``formatters``.
    """

    title: str
    columns: Sequence[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    formatters: Dict[str, Callable[[Any], str]] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        """Append a row (missing columns render as ``-``)."""
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        """All raw values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def _render_cell(self, name: str, value: Any) -> str:
        if name in self.formatters:
            return self.formatters[name](value)
        if value is TIMED_OUT:
            return "X"
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    def render(self) -> str:
        """Aligned plain-text rendering (what the bench scripts print)."""
        header = list(self.columns)
        body = [
            [self._render_cell(name, row.get(name)) for name in header]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for line in body:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.render())
        print()
