"""Tests for the batching/caching/concurrent :class:`QueryService`."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import QueryService, RlcIndexEngine, ServiceReport, create_engine
from repro.errors import EngineError
from repro.queries import RlcQuery
from repro.workloads import generate_workload


@pytest.fixture
def engine(fig2_index):
    return RlcIndexEngine.from_index(fig2_index)


@pytest.fixture
def workload(fig2):
    return generate_workload(fig2, 2, num_true=8, num_false=8, seed=11)


class TestRun:
    def test_answers_match_expected(self, engine, workload):
        report = QueryService(engine).run(workload)
        assert report.ok
        assert report.total == len(workload)
        assert report.answers == [q.expected for q in workload]

    def test_batches_respect_batch_size(self, engine, workload):
        report = QueryService(engine, batch_size=3, cache_size=0).run(workload)
        expected_batches = -(-len(workload) // 3)  # ceil division
        assert report.batches == expected_batches

    def test_second_run_is_fully_cached(self, engine, workload):
        service = QueryService(engine)
        first = service.run(workload)
        second = service.run(workload)
        assert first.hit_rate == 0.0
        assert second.hit_rate == 1.0
        assert second.batches == 0
        assert second.answers == first.answers

    def test_mismatches_collected_not_raised(self, engine):
        # fig2: Q(2, 5, (l2 l1)+) is true; claim it is false.
        lying = RlcQuery(2, 5, (1, 0), expected=False)
        report = QueryService(engine).run([lying])
        assert not report.ok
        assert report.mismatches == [(lying, True)]
        assert "1 wrong answers" in report.summary()

    def test_verify_can_be_disabled(self, engine):
        lying = RlcQuery(2, 5, (1, 0), expected=False)
        assert QueryService(engine).run([lying], verify=False).ok

    def test_unlabeled_queries_never_mismatch(self, engine):
        report = QueryService(engine).run([RlcQuery(2, 5, (1, 0))])
        assert report.ok and report.answers == [True]

    def test_duplicate_queries_execute_once_per_run(self, engine):
        query = RlcQuery(2, 5, (1, 0), expected=True)
        report = QueryService(engine).run([query] * 6)
        assert report.ok and report.answers == [True] * 6
        # All six count as misses (nothing was cached) but the engine
        # evaluated the distinct key only once.
        assert report.cache_misses == 6
        assert engine.stats().batched_queries == 1

    def test_cache_disabled_runs_every_duplicate(self, engine):
        # cache_size=0 means "measure raw engine execution": in-flight
        # dedup is off too, so all six occurrences reach the engine.
        query = RlcQuery(2, 5, (1, 0), expected=True)
        report = QueryService(engine, cache_size=0).run([query] * 6)
        assert report.ok and report.answers == [True] * 6
        assert engine.stats().batched_queries == 6

    def test_short_batch_answers_rejected(self, engine, workload):
        class LossyEngine:
            name = "lossy"

            def query_batch(self, queries):
                return [True] * (len(queries) - 1)

            def stats(self):  # pragma: no cover - protocol completeness
                return engine.stats()

        with pytest.raises(EngineError, match="answers for"):
            QueryService(LossyEngine()).run(list(workload))


class TestCache:
    def test_point_query_hits_cache(self, engine):
        service = QueryService(engine)
        assert service.query(2, 5, (1, 0)) is True
        assert service.query(2, 5, [1, 0]) is True
        counters = service.counters()
        assert counters["cache_hits"] == 1
        assert counters["cache_misses"] == 1
        assert counters["hit_rate"] == 0.5
        # Only the miss reached the engine.
        assert counters["engine_queries"] == 1

    def test_false_answers_are_cached_too(self, engine):
        service = QueryService(engine)
        assert service.query(0, 2, (0,)) is False
        assert service.query(0, 2, (0,)) is False
        assert service.counters()["cache_hits"] == 1

    def test_lru_eviction(self, engine, workload):
        service = QueryService(engine, cache_size=2)
        service.run(workload)
        assert service.cache_len == 2

    def test_cache_size_zero_disables_caching(self, engine, workload):
        service = QueryService(engine, cache_size=0)
        service.run(workload)
        second = service.run(workload)
        assert service.cache_len == 0
        assert second.hit_rate == 0.0

    def test_clear_cache(self, engine, workload):
        service = QueryService(engine)
        service.run(workload)
        service.clear_cache()
        assert service.cache_len == 0
        assert service.run(workload).hit_rate == 0.0

    def test_invalid_sizes_rejected(self, engine):
        with pytest.raises(EngineError):
            QueryService(engine, batch_size=0)
        with pytest.raises(EngineError):
            QueryService(engine, cache_size=-1)


class TestReportEdgeCases:
    """Degenerate runs must stay well-defined (no ZeroDivisionError)."""

    def _report(self, *, answers, seconds, hits=0, misses=0):
        return ServiceReport(
            engine_name="x",
            answers=answers,
            seconds=seconds,
            cache_hits=hits,
            cache_misses=misses,
            batches=0,
        )

    def test_empty_workload_runs_end_to_end(self, engine):
        report = QueryService(engine).run([])
        assert report.ok
        assert report.total == 0
        assert report.hit_rate == 0.0
        assert report.queries_per_second == 0.0
        assert "0 queries" in report.summary()

    def test_zero_elapsed_time_with_queries_is_inf_not_error(self):
        report = self._report(answers=[True, False], seconds=0.0, misses=2)
        assert report.queries_per_second == float("inf")
        report.summary()  # renders without raising

    def test_zero_elapsed_time_with_empty_workload_is_zero(self):
        report = self._report(answers=[], seconds=0.0)
        assert report.queries_per_second == 0.0
        assert report.hit_rate == 0.0
        report.summary()

    def test_counters_hit_rate_defined_before_any_query(self, engine):
        assert QueryService(engine).counters()["hit_rate"] == 0.0


class TestAcrossEngines:
    @pytest.mark.parametrize("name", ["bfs", "bibfs", "dfs", "sys2"])
    def test_service_is_engine_agnostic(self, name, fig2, workload):
        report = QueryService(create_engine(name, fig2)).run(workload)
        assert report.ok
        assert report.engine_name == name

    def test_report_throughput_positive(self, engine, workload):
        report = QueryService(engine).run(workload)
        assert report.queries_per_second > 0
        assert 0.0 <= report.hit_rate <= 1.0

    def test_workload_batched_helper(self, workload):
        chunks = list(workload.batched(5))
        assert [len(chunk) for chunk in chunks] == [5, 5, 5, 1]
        assert [q for chunk in chunks for q in chunk] == list(workload)
        with pytest.raises(ValueError):
            next(workload.batched(0))


def _run_concurrently(engine, workloads, **service_options):
    """Run one workload per thread, each through its own service.

    The services share ``engine``: engines are read-only after
    ``prepare()``, so only their locked counters see contention.
    Reports come back in workload order.
    """
    with ThreadPoolExecutor(max_workers=len(workloads)) as pool:
        futures = [
            pool.submit(
                QueryService(engine, **service_options).run, workload, verify=False
            )
            for workload in workloads
        ]
        return [future.result() for future in futures]


class TestConcurrency:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_concurrent_run_matches_serial(self, fig2, workload, threads):
        serial = QueryService(
            create_engine("bfs", fig2), batch_size=2, cache_size=0
        ).run(workload)
        reports = _run_concurrently(
            create_engine("bfs", fig2), [workload] * threads,
            batch_size=2, cache_size=0,
        )
        assert serial.ok
        for report in reports:
            assert report.answers == serial.answers
            assert report.batches == serial.batches

    def test_concurrent_run_shares_one_engine_and_counts_exactly(self, fig2):
        engine = create_engine("bfs", fig2)
        queries = [
            RlcQuery(source, target, (1, 0))
            for source in range(fig2.num_vertices)
            for target in range(fig2.num_vertices)
        ]
        reports = _run_concurrently(
            engine, [queries] * 4, batch_size=4, cache_size=0
        )
        assert all(report.total == len(queries) for report in reports)
        # The locked counters lose no updates across threads.
        stats = engine.stats()
        assert stats.batched_queries == 4 * len(queries)
        assert stats.batches == sum(report.batches for report in reports)

    def test_concurrent_duplicates_still_collapse(self, engine):
        query = RlcQuery(2, 5, (1, 0), expected=True)
        reports = _run_concurrently(engine, [[query] * 10] * 4)
        assert all(report.answers == [True] * 10 for report in reports)
        # Each run evaluates its duplicated query once.
        assert engine.stats().batched_queries == 4
