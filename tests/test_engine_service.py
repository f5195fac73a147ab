"""Tests for the batching/caching/concurrent :class:`QueryService`."""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Session
from repro.engine import QueryService, RlcIndexEngine, ServiceReport, create_engine
from repro.graph import generators
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

    def test_second_run_is_fully_cached(self, engine, workload):
        service = QueryService(engine)
        first = service.run(workload)
        second = service.run(workload)
        assert first.hit_rate == 0.0
        assert second.hit_rate == 1.0
        assert (first.batches, second.batches) == (1, 0)
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
        service = QueryService(engine)
        report = service.run([query] * 6)
        assert report.ok and report.answers == [True] * 6
        # All six count as misses (nothing was cached) but the engine
        # evaluated the distinct key only once.
        assert report.cache_misses == 6
        assert service.counters()["engine_batched_queries"] == 1

    def test_cache_disabled_runs_every_duplicate(self, engine):
        # cache_size=0 turns the LRU off, not the in-run collapsing of
        # duplicates: the six occurrences still reach the engine once,
        # and all six count as misses.
        query = RlcQuery(2, 5, (1, 0), expected=True)
        service = QueryService(engine, cache_size=0)
        report = service.run([query] * 6)
        assert report.ok and report.answers == [True] * 6
        assert report.cache_misses == 6
        assert service.counters()["engine_batched_queries"] == 1
        assert service.cache_len == 0


class TestCheckOnce:
    """A cold run validates each distinct constraint exactly once."""

    QUERIES = [
        RlcQuery(2, 5, (1, 0), expected=True),
        RlcQuery(0, 2, (0,)),
        RlcQuery(2, 5, [1, 0], expected=True),
        RlcQuery(1, 3, (0, 1)),
        RlcQuery(0, 2, (0,)),
        RlcQuery(3, 4, (0, 1)),
    ]

    @pytest.fixture
    def validations(self, monkeypatch):
        import repro.engine.base as base

        calls = []
        real = base.validate_constraint_labels

        def counting(num_labels, labels, **kwargs):
            calls.append(tuple(labels))
            return real(num_labels, labels, **kwargs)

        monkeypatch.setattr(base, "validate_constraint_labels", counting)
        return calls

    def test_service_run_validates_each_constraint_once(
        self, engine, validations
    ):
        report = QueryService(engine).run(self.QUERIES)
        assert report.ok and report.batches == 1
        assert sorted(validations) == [(0,), (0, 1), (1, 0)]

    def test_session_run_validates_each_constraint_once(self, fig2, validations):
        session = Session(fig2)
        assert session.run(self.QUERIES).ok
        assert sorted(validations) == [(0,), (0, 1), (1, 0)]


class TestCache:
    def test_point_query_hits_cache(self, engine):
        service = QueryService(engine)
        assert service.query_outcome(2, 5, (1, 0)).answer is True
        assert service.query_outcome(2, 5, [1, 0]).answer is True
        counters = service.counters()
        assert counters["cache_hits"] == 1
        assert counters["cache_misses"] == 1
        assert counters["hit_rate"] == 0.5
        # Only the miss reached the engine.
        assert counters["engine_queries"] == 1

    def test_false_answers_are_cached_too(self, engine):
        service = QueryService(engine)
        assert service.query_outcome(0, 2, (0,)).answer is False
        assert service.query_outcome(0, 2, (0,)).answer is False
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


def _run_concurrently(services, workloads):
    """Run ``workloads[i]`` through ``services[i]``, one thread each.

    Pass one service several times to share it across threads.  Reports
    come back in workload order.
    """
    with ThreadPoolExecutor(max_workers=len(workloads)) as pool:
        futures = [
            pool.submit(service.run, workload, verify=False)
            for service, workload in zip(services, workloads)
        ]
        return [future.result() for future in futures]


class TestConcurrency:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_concurrent_run_matches_serial(self, fig2, workload, threads):
        serial = QueryService(create_engine("bfs", fig2), cache_size=0).run(workload)
        engine = create_engine("bfs", fig2)
        reports = _run_concurrently(
            [QueryService(engine, cache_size=0) for _ in range(threads)],
            [workload] * threads,
        )
        assert serial.ok
        for report in reports:
            assert report.answers == serial.answers
            assert report.batches == serial.batches

    def test_concurrent_run_shares_one_engine_and_counts_exactly(self, fig2):
        service = QueryService(create_engine("bfs", fig2), cache_size=0)
        queries = [
            RlcQuery(source, target, (1, 0))
            for source in range(fig2.num_vertices)
            for target in range(fig2.num_vertices)
        ]
        reports = _run_concurrently([service] * 4, [queries] * 4)
        assert all(report.total == len(queries) for report in reports)
        # The service's locked counters lose no updates across threads.
        counters = service.counters()
        assert counters["engine_batched_queries"] == 4 * len(queries)
        assert counters["engine_batches"] == sum(report.batches for report in reports)
        assert counters["cache_misses"] == 4 * len(queries)

    def test_concurrent_duplicates_still_collapse(self, engine):
        query = RlcQuery(2, 5, (1, 0), expected=True)
        services = [QueryService(engine) for _ in range(4)]
        reports = _run_concurrently(services, [[query] * 10] * 4)
        assert all(report.answers == [True] * 10 for report in reports)
        # Each run evaluates its duplicated query once.
        assert [s.counters()["engine_batched_queries"] for s in services] == [1] * 4


class TestSharedSessionStress:
    """The concurrency contract: threads share one Session, nothing else.

    Eight threads mix point queries with a 20-query ``run`` every 50
    calls against one session, with the interpreter switching threads
    every microsecond.  Every answer must match the ``bfs`` engine and
    the service counters must account for every query exactly.
    """

    THREADS = 8
    CALLS = 400
    RUN_EVERY = 50
    RUN_SIZE = 20

    @pytest.fixture(scope="class")
    def graph_and_pool(self):
        graph = generators.labeled_erdos_renyi(80, 3, 3, seed=5)
        workload = generate_workload(graph, 2, num_true=60, num_false=60, seed=3)
        oracle = create_engine("bfs", graph)
        answers = oracle.query_batch(list(workload))
        pool = [
            RlcQuery(q.source, q.target, q.labels, expected=answer)
            for q, answer in zip(workload, answers)
        ]
        return graph, pool

    def _client(self, session, pool, seed):
        rng = random.Random(seed)
        # Every thread's first call names a spec no thread has built yet.
        first = rng.choice(pool)
        session.query_outcome(
            first.source, first.target, first.labels, engine="bibfs"
        )
        for call in range(1, self.CALLS + 1):
            query = rng.choice(pool)
            outcome = session.query_outcome(query.source, query.target, query.labels)
            assert outcome.answer == query.expected, query
            if call % self.RUN_EVERY == 0:
                report = session.run(rng.sample(pool, self.RUN_SIZE))
                assert report.ok and report.total == self.RUN_SIZE

    @pytest.mark.parametrize("cache_size", [0, 16])
    def test_threads_sharing_a_session_hold_the_contract(
        self, graph_and_pool, cache_size
    ):
        graph, pool = graph_and_pool
        session = Session(graph, cache_size=cache_size)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=self.THREADS) as executor:
                futures = [
                    executor.submit(self._client, session, pool, seed)
                    for seed in range(self.THREADS)
                ]
                for future in futures:
                    future.result()
        finally:
            sys.setswitchinterval(interval)
        points = self.THREADS * self.CALLS
        batched = self.THREADS * (self.CALLS // self.RUN_EVERY) * self.RUN_SIZE
        sent = points + batched
        # One bibfs engine, built once, however many threads asked first.
        assert session.engine_specs() == ("bibfs", "rlc-index")
        stats = session.stats()
        bibfs = stats["bibfs"]
        assert bibfs["cache_hits"] + bibfs["cache_misses"] == self.THREADS
        counters = stats["rlc-index"]
        assert counters["cache_hits"] + counters["cache_misses"] == sent
        assert counters["cache_len"] <= cache_size
        if cache_size == 0:
            assert counters["cache_misses"] == sent
            assert counters["engine_queries"] == points
            assert counters["engine_batched_queries"] == batched
