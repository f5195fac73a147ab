"""Tests for the benchmark harness utilities."""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import (
    TIMED_OUT,
    ResultTable,
    format_bytes,
    format_micros,
    format_seconds,
    run_engine_query_set,
    run_query_set,
    time_call,
)
from repro.queries import RlcQuery


class _FakeEngine:
    """Stand-in with the slice of the ``EngineBase`` contract the harness uses."""

    name = "fake"

    def __init__(self, answer_fn, delay: float = 0.0):
        self._answer = answer_fn
        self._delay = delay

    def query(self, query):
        if self._delay:
            time.sleep(self._delay)
        return self._answer(query)

    def query_batch(self, queries):
        return [self.query(q) for q in queries]

    def stats(self):  # pragma: no cover - contract completeness
        return None


class TestTimeCall:
    def test_returns_result_and_duration(self):
        result, seconds = time_call(lambda: 42)
        assert result == 42
        assert seconds >= 0


class TestRunQuerySet:
    QUERIES = [RlcQuery(0, 1, (0,), expected=True), RlcQuery(1, 0, (0,), expected=False)]

    def test_total_micros(self):
        total = run_query_set(lambda s, t, l: s == 0, self.QUERIES)
        assert isinstance(total, float) and total >= 0

    def test_verification_failure(self):
        with pytest.raises(AssertionError, match="expected"):
            run_query_set(lambda s, t, l: True, self.QUERIES)

    def test_verification_disabled(self):
        total = run_query_set(lambda s, t, l: True, self.QUERIES, verify=False)
        assert total >= 0

    def test_time_cap(self):
        def slow(s, t, l):
            time.sleep(0.02)
            return s == 0

        assert run_query_set(slow, self.QUERIES, time_cap=0.001) is TIMED_OUT

    def test_unlabeled_queries_not_verified(self):
        queries = [RlcQuery(0, 1, (0,))]
        assert run_query_set(lambda s, t, l: True, queries) >= 0


class TestRunEngineQuerySet:
    QUERIES = [RlcQuery(0, 1, (0,), expected=True), RlcQuery(1, 0, (0,), expected=False)]

    def test_total_micros_per_query_mode(self):
        engine = _FakeEngine(lambda q: q.source == 0)
        total = run_engine_query_set(engine, self.QUERIES)
        assert isinstance(total, float) and total >= 0

    def test_batched_mode(self):
        engine = _FakeEngine(lambda q: q.source == 0)
        total = run_engine_query_set(engine, self.QUERIES, batch_size=1)
        assert isinstance(total, float) and total >= 0

    def test_verification_failure(self):
        engine = _FakeEngine(lambda q: True)
        with pytest.raises(AssertionError, match="fake"):
            run_engine_query_set(engine, self.QUERIES)
        with pytest.raises(AssertionError, match="fake"):
            run_engine_query_set(engine, self.QUERIES, batch_size=8)

    def test_time_cap(self):
        engine = _FakeEngine(lambda q: q.source == 0, delay=0.02)
        assert run_engine_query_set(engine, self.QUERIES, time_cap=0.001) is TIMED_OUT
        assert (
            run_engine_query_set(engine, self.QUERIES, time_cap=0.001, batch_size=1)
            is TIMED_OUT
        )


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
