"""Shared machinery for the experiment drivers.

Conventions:

- query-set timings are reported in **microseconds for the whole set**
  (matching Fig. 3's y-axis, "execution time of 1000 queries");
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


def run_query_set(
    query_fn: Callable[[int, int, Tuple[int, ...]], bool],
    queries: Iterable,
    *,
    time_cap: Optional[float] = None,
    verify: bool = True,
):
    """Execute a query set, returning total microseconds or TIMED_OUT.

    ``queries`` yields :class:`~repro.queries.RlcQuery` objects; when
    ``verify`` is set and a query carries its expected answer, a wrong
    result raises ``AssertionError`` (benchmarks double as correctness
    checks).  The cap is checked between queries, mirroring how the
    paper aborts query-set runs that exceed the limit.
    """
    total = 0.0
    for query in queries:
        started = time.perf_counter()
        answer = query_fn(query.source, query.target, query.labels)
        total += time.perf_counter() - started
        if verify and query.expected is not None and answer != query.expected:
            raise AssertionError(
                f"{query_fn} answered {answer} for {query}, expected {query.expected}"
            )
        if time_cap is not None and total > time_cap:
            return TIMED_OUT
    return total * 1e6


def run_engine_query_set(
    engine,
    queries: Iterable,
    *,
    time_cap: Optional[float] = None,
    verify: bool = True,
    batch_size: Optional[int] = None,
):
    """Execute a query set through an :class:`~repro.engine.EngineBase`.

    The engine-layer counterpart of :func:`run_query_set`: any engine
    satisfying the contract runs here, so experiment drivers need no
    per-engine dispatch.  Without ``batch_size`` each query goes through
    ``engine.query`` (per-query timing, matching the paper's query-set
    figures); with it, queries run in chunks through
    ``engine.query_batch``.  Returns total microseconds or
    :data:`TIMED_OUT`; with ``verify``, a wrong answer for a query that
    carries its expected value raises ``AssertionError``.

    Without ``batch_size`` the timing is of the per-call
    ``engine.query`` shim, which prepares the constraint and builds a
    :class:`~repro.engine.QueryOutcome` on every call.  Every engine
    pays that cost alike; it shows only for answerers in the
    low-microsecond range (the RLC index).
    """
    query_list = list(queries)
    total = 0.0
    if batch_size is None:
        for query in query_list:
            started = time.perf_counter()
            answer = engine.query(query)
            total += time.perf_counter() - started
            if verify and query.expected is not None and answer != query.expected:
                raise AssertionError(
                    f"engine {engine.name!r} answered {answer} for {query}, "
                    f"expected {query.expected}"
                )
            if time_cap is not None and total > time_cap:
                return TIMED_OUT
        return total * 1e6
    for start in range(0, len(query_list), batch_size):
        chunk = query_list[start : start + batch_size]
        started = time.perf_counter()
        answers = engine.query_batch(chunk)
        total += time.perf_counter() - started
        if verify:
            for query, answer in zip(chunk, answers):
                if query.expected is not None and answer != query.expected:
                    raise AssertionError(
                        f"engine {engine.name!r} answered {answer} for {query}, "
                        f"expected {query.expected}"
                    )
        if time_cap is not None and total > time_cap:
            return TIMED_OUT
    return total * 1e6


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
