"""Tests for the benchmark harness utilities."""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import (
    QUERY_SET_PASSES,
    TIMED_OUT,
    ResultTable,
    format_bytes,
    format_micros,
    format_seconds,
    run_query_set,
    time_call,
)
from repro.engine import create_engine
from repro.queries import RlcQuery


class _FakeEngine:
    """Stand-in with the slice of the ``EngineBase`` contract the harness uses."""

    name = "fake"
    backend = None

    def __init__(self, answer_fn, delay: float = 0.0):
        self._answer = answer_fn
        self._delay = delay
        self.prepared = []

    def prepare_query(self, labels):
        self.prepared.append(labels)
        return labels

    def _evaluate(self, backend, prepared, source, target):
        if self._delay:
            time.sleep(self._delay)
        return self._answer(source, target, prepared)


class TestTimeCall:
    def test_returns_result_and_duration(self):
        result, seconds = time_call(lambda: 42)
        assert result == 42
        assert seconds >= 0


class TestRunQuerySet:
    QUERIES = [RlcQuery(0, 1, (0,), expected=True), RlcQuery(1, 0, (0,), expected=False)]

    def test_total_micros(self):
        engine = _FakeEngine(lambda s, t, l: s == 0)
        total = run_query_set(engine, self.QUERIES)
        assert isinstance(total, float) and total >= 0

    def test_prepares_each_constraint_once(self):
        engine = _FakeEngine(lambda s, t, l: s == 0)
        queries = self.QUERIES + [RlcQuery(0, 1, (1, 0)), RlcQuery(1, 1, (0,))]
        run_query_set(engine, queries)
        assert engine.prepared == [(0,), (1, 0)]

    def test_best_of_passes(self):
        calls = []
        engine = _FakeEngine(lambda s, t, l: calls.append(s) or s == 0)
        run_query_set(engine, self.QUERIES)
        assert len(calls) == QUERY_SET_PASSES * len(self.QUERIES)

    def test_verification_failure(self):
        engine = _FakeEngine(lambda s, t, l: True)
        with pytest.raises(AssertionError, match="fake"):
            run_query_set(engine, self.QUERIES)

    def test_time_cap(self):
        engine = _FakeEngine(lambda s, t, l: s == 0, delay=0.02)
        assert run_query_set(engine, self.QUERIES, time_cap=0.001) is TIMED_OUT

    def test_unlabeled_queries_not_verified(self):
        engine = _FakeEngine(lambda s, t, l: True)
        assert run_query_set(engine, [RlcQuery(0, 1, (0,))]) >= 0


class TestRunEngineQuerySet:
    """The same loop over real engines: their ``prepare_query`` and ``_evaluate``."""

    QUERIES = [
        RlcQuery(2, 5, (1, 0), expected=True),
        RlcQuery(0, 2, (0,), expected=False),
    ]

    def test_total_micros_per_query_mode(self, fig2):
        for spec in ("rlc-index", "bibfs"):
            total = run_query_set(create_engine(spec, fig2), self.QUERIES)
            assert isinstance(total, float) and total >= 0

    def test_verification_failure(self, fig2):
        wrong = [
            RlcQuery(q.source, q.target, q.labels, expected=not q.expected)
            for q in self.QUERIES
        ]
        with pytest.raises(AssertionError, match="'bibfs'"):
            run_query_set(create_engine("bibfs", fig2), wrong)

    def test_time_cap(self, fig2):
        engine = create_engine("bibfs", fig2)
        assert run_query_set(engine, self.QUERIES, time_cap=0.0) is TIMED_OUT


class TestFormatters:
    def test_micros(self):
        assert format_micros(500.0) == "500us"
        assert format_micros(2500.0) == "2.5ms"
        assert format_micros(3.2e6) == "3.20s"
        assert format_micros(TIMED_OUT) == "X"
        assert format_micros(None) == "-"

    def test_seconds(self):
        assert format_seconds(90) == "1.5min"
        assert format_seconds(1.5) == "1.50s"
        assert format_seconds(0.02) == "20.00ms"
        assert format_seconds(5e-6) == "5us"
        assert format_seconds(TIMED_OUT) == "X"
        assert format_seconds(None) == "-"

    def test_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(4096) == "4.0KB"
        assert format_bytes(3 << 20) == "3.00MB"
        assert format_bytes(None) == "-"


class TestResultTable:
    def test_add_and_column(self):
        table = ResultTable("t", ["a", "b"])
        table.add_row(a=1, b=2)
        table.add_row(a=3)
        assert table.column("a") == [1, 3]
        assert table.column("b") == [2, None]

    def test_render_contains_everything(self):
        table = ResultTable(
            "demo", ["name", "value"], notes=["hello"],
            formatters={"value": format_seconds},
        )
        table.add_row(name="x", value=2.0)
        table.add_row(name="y", value=TIMED_OUT)
        text = table.render()
        assert "== demo ==" in text
        assert "2.00s" in text
        assert "X" in text
        assert "note: hello" in text

    def test_render_empty(self):
        table = ResultTable("empty", ["a"])
        assert "empty" in table.render()

    def test_default_float_format(self):
        table = ResultTable("t", ["v"])
        table.add_row(v=1.23456)
        assert "1.23" in table.render()
