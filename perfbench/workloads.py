"""The four benchmark workloads: build, point-cold, point-hot, serve-mixed.

Each workload function fills a :class:`Run` with end-to-end metrics
(untraced run) or per-layer metrics (traced run).  Every answer the
program gives is compared with the BiBFS oracle's ``expected`` value; a
wrong answer raises :class:`WrongAnswer` and aborts the run.  Why each
workload exists, and which layer metric should move which end-to-end
metric, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import resource
import select
import statistics
import subprocess
import sys
import threading
from array import array
from dataclasses import dataclass, field, replace
from time import monotonic, perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import Session
from repro.errors import ReproError
from repro.graph import datasets
from repro.graph.io import save_graph_npz
from repro.queries import RlcQuery
from repro.workloads import generate_workload

import speed
from spans import (
    BUILD,
    ENGINE_BATCH,
    GENERATE,
    INDEX_BATCH,
    PREPARE_QUERY,
    PROBE,
    QUERY_PREPARED,
    SERVICE_QUERY,
    SERVICE_RUN,
    SESSION_QUERY,
    Tracer,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")

#: Queries per ``Session.run`` / ``/batch`` call (the service's batch size).
BATCH = 256
#: Length of the pre-drawn key sequence a point loop cycles through.
DRAWS = 1 << 20
#: Zipf(1)-drawn batches the point-hot warm-up sends through Session.run.
HOT_BATCHES = 64
#: Key-to-rank assignments a point-hot run cycles through.
HOT_RANKINGS = 64
#: Point calls between two batch interludes of a point loop.
BATCH_EVERY = 2048
#: Warm, timed passes over the EP verification queries per build.
TIMED_PASSES = 8
#: Warm-up requests on each serve-mixed connection.
WARM_BATCHES = 8
WARM_QUERIES = 16
#: Per-request deadlines (seconds); a request past its deadline fails.
SETUP_DEADLINE_S = 120.0
QUERY_DEADLINE_S = 5.0
BATCH_DEADLINE_S = 10.0

BUILDER_COUNTERS = (
    "insert_attempts",
    "inserted",
    "duplicates",
    "pruned_pr1",
    "pruned_pr2",
    "pr3_stops",
    "phase1_expansions",
    "phase2_expansions",
    "kernel_bfs_runs",
)

#: Engine options per dataset: EP is served at the default k=2 (the
#: default ``rlc-index`` spec), WN at k=3.
ENGINE_OPTIONS = {"EP": {}, "WN": {"k": 3}}
RECURSIVE_K = {"EP": 2, "WN": 3}


@dataclass(frozen=True)
class Config:
    """Input sizes; :data:`TINY` shrinks them for the self-check."""

    scale: float = 1.0
    #: point pools hold this many true and as many false queries
    pool_per_side: int = 25_000
    hot_keys: int = 1_000
    #: build-workload verification pool per graph, per side
    check_per_side: int = 4_096
    setups: int = 3
    #: serve-mixed server starts, and the client-side builds its build_s
    #: comes from
    server_setups: int = 2
    serve_builds: int = 5
    build_reps: int = 3
    #: self-check fault injection
    flip_expected: bool = False
    bad_request: bool = False


TINY = Config(
    scale=0.1,
    pool_per_side=300,
    hot_keys=60,
    check_per_side=128,
    setups=1,
    server_setups=1,
    serve_builds=1,
    build_reps=2,
)


class WrongAnswer(Exception):
    """The program's answer disagreed with the oracle."""


class RequestFailed(Exception):
    """An HTTP request got a non-200 reply."""


@dataclass
class Run:
    """What one benchmark run measured."""

    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def put(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.metrics[name] = (value, unit, samples)
        if note:
            self.notes[name] = note


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def query_pool(graph, dataset: str, per_side: int, seed: int, config: Config) -> List[RlcQuery]:
    """``per_side`` true then ``per_side`` false oracle-verified queries.

    Generated by :func:`repro.workloads.generate_workload` from ``seed``
    and cached under ``perfbench/.cache/pools`` keyed by seed, size and
    graph content.
    """
    k = RECURSIVE_K[dataset]
    name = f"{dataset}-k{k}-{per_side}-seed{seed}-{graph.content_digest()[:16]}.json"
    path = os.path.join(CACHE, "pools", name)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            rows = json.load(handle)
    else:
        workload = generate_workload(
            graph, k, num_true=per_side, num_false=per_side, seed=seed
        )
        rows = [
            [q.source, q.target, list(q.labels), q.expected]
            for q in workload.true_queries + workload.false_queries
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        temporary = f"{path}.{os.getpid()}.tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
        os.replace(temporary, path)
    pool = [RlcQuery(s, t, tuple(labels), expected=e) for s, t, labels, e in rows]
    if config.flip_expected:
        first = pool[0]
        pool[0] = replace(first, expected=not first.expected)
    return pool


def _draws(values: np.ndarray) -> array:
    return array("q", values.astype(np.int64).tobytes())


def _check(queries: Sequence[RlcQuery], answers: Sequence[bool]) -> None:
    for query, answer in zip(queries, answers):
        if answer != query.expected:
            raise WrongAnswer(f"{query} answered {answer}")
    if len(answers) != len(queries):
        raise WrongAnswer(f"{len(answers)} answers for {len(queries)} queries")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# In-process measurement helpers
# ----------------------------------------------------------------------


def _open_session(dataset: str, config: Config, **service_options):
    """Set up one session: generate the graph, build the index.

    Returns ``(session, setup seconds, build seconds)``, both at the
    reference speed of :mod:`speed`.
    """
    with speed.sampled() as generate:
        session = Session(dataset, scale=config.scale, **service_options)
    with speed.sampled() as build:
        session.engine(**ENGINE_OPTIONS[dataset])
    return session, generate.scaled + build.scaled, build.scaled


def _run_batches(run: Run, session, queries: Sequence[RlcQuery], options) -> np.ndarray:
    """Send ``queries`` through ``Session.run`` in 256-query batches.

    Returns the latency of every full-size batch, in ns at reference
    speed, each scaled by the speed kernel samples just before and after it.
    """
    kernels = array("q", [speed.kernel_ns()])
    latencies = array("q")
    for start in range(0, len(queries), BATCH):
        chunk = queries[start : start + BATCH]
        run.attempted += len(chunk)
        began = perf_counter_ns()
        report = session.run(chunk, **options)
        latencies.append(perf_counter_ns() - began)
        kernels.append(speed.kernel_ns())
        _check(chunk, report.answers)
    samples = np.frombuffer(kernels, dtype=np.int64).astype(float)
    scaled = np.frombuffer(latencies, dtype=np.int64) * speed.factor(samples[:-1], samples[1:])
    return scaled[: len(queries) // BATCH]


def _point_pass(run: Run, session, queries: Sequence[RlcQuery], options) -> List[tuple]:
    """One verified ``Session.query_outcome`` call per query.

    Returns ``(latencies ns, query indexes, seconds)`` per segment of
    ``BATCH_EVERY`` calls, each scaled by the speed kernel samples taken
    just before and after it.
    """
    windows = []
    ask = session.query_outcome
    clock = perf_counter_ns
    before = speed.kernel_ns()
    for start in range(0, len(queries), BATCH_EVERY):
        latencies = array("q")
        segment = clock()
        for query in queries[start : start + BATCH_EVERY]:
            run.attempted += 1
            began = clock()
            outcome = ask(query.source, query.target, query.labels, **options)
            latencies.append(clock() - began)
            if outcome.answer != query.expected:
                raise WrongAnswer(f"{query} answered {outcome.answer}")
        wall = clock() - segment
        after = speed.kernel_ns()
        scale = speed.factor(before, after)
        raw = np.frombuffer(latencies, dtype=np.int64)
        keys = np.arange(start, start + len(raw))
        windows.append((raw * scale, keys, wall / 1e9 * scale))
        before = after
    return windows


@dataclass
class _Loop:
    """What one closed point loop measured (raw ns; scaled on read)."""

    segments: List[array]  # ns per point call (-1: failed), one array per segment
    starts: array  # offset into the draws of each segment's first call
    segment_ns: array  # time per segment of point calls
    batch_ns: array  # ns per 256-query batch interlude
    kernels: array  # speed kernel ns before the first segment and after each
    position: int  # next offset into the draws

    @property
    def calls(self) -> int:
        return sum(len(segment) for segment in self.segments)

    @property
    def scales(self) -> np.ndarray:
        """Per-segment scale to reference time, from the samples around it."""
        kernels = np.frombuffer(self.kernels, dtype=np.int64).astype(float)
        return speed.factor(kernels[:-1], kernels[1:])

    @property
    def point_seconds(self) -> float:
        return float(np.dot(np.frombuffer(self.segment_ns, dtype=np.int64), self.scales)) / 1e9

    def scaled_batches(self) -> np.ndarray:
        return np.frombuffer(self.batch_ns, dtype=np.int64) * self.scales

    def answered(self, draws: array) -> Tuple[np.ndarray, np.ndarray, List[float]]:
        """Scaled latency and key of every answered call, and each segment's rate."""
        order = np.frombuffer(draws, dtype=np.int64)
        latencies, keys, rates = [], [], []
        segment_ns = np.frombuffer(self.segment_ns, dtype=np.int64)
        for segment, start, ns, scale in zip(self.segments, self.starts, segment_ns, self.scales):
            raw = np.frombuffer(segment, dtype=np.int64)
            ok = raw >= 0
            latencies.append(raw[ok] * scale)
            keys.append(order[(start + np.arange(len(raw))) % len(order)][ok])
            rates.append(int(ok.sum()) / (ns * scale / 1e9))
        return np.concatenate(latencies), np.concatenate(keys), rates


def _point_loop(
    run: Run, session, keys: Sequence[RlcQuery], draws: array, offset: int, seconds: float
) -> _Loop:
    """One caller in a closed loop for ``seconds``.

    After every ``BATCH_EVERY`` point calls the caller sends one
    256-query ``Session.run`` batch drawn from the same key stream, so
    that batch latency is sampled across the whole run, and runs the
    speed kernel once.  Each segment's times are scaled by the kernel
    samples just before and after it.  Latencies go to one small array per
    segment: one large growing array would be copied as it grows, and
    the copies would show in the run's peak memory.
    """
    segments, starts, batch_ns, segment_ns = [], array("q"), array("q"), array("q")
    kernels = array("q", [speed.kernel_ns()])
    ask = session.query_outcome
    clock = perf_counter_ns
    position, size = offset, len(draws)
    failed = 0
    deadline = clock() + int(seconds * 1e9)
    while True:
        latencies = array("q")
        record = latencies.append
        starts.append(position)
        segment = clock()
        for _ in range(BATCH_EVERY):
            query = keys[draws[position]]
            position += 1
            if position == size:
                position = 0
            began = clock()
            try:
                outcome = ask(query.source, query.target, query.labels)
            except ReproError:
                failed += 1
                record(-1)
                continue
            record(clock() - began)
            if outcome.answer != query.expected:
                raise WrongAnswer(f"{query} answered {outcome.answer}")
        segment_ns.append(clock() - segment)
        segments.append(latencies)
        chunk = [keys[draws[(position + i) % size]] for i in range(BATCH)]
        position = (position + BATCH) % size
        run.attempted += BATCH + BATCH_EVERY
        began = clock()
        report = session.run(chunk)
        batch_ns.append(clock() - began)
        _check(chunk, report.answers)
        kernels.append(speed.kernel_ns())
        if clock() >= deadline:
            break
    run.failed += failed
    return _Loop(segments, starts, segment_ns, batch_ns, kernels, position)


def _key_percentiles(latencies: np.ndarray, keys: np.ndarray, quantiles) -> List[float]:
    """Percentiles over the calls of the median latency of each call's key.

    Each distinct query (key) is asked many times in a run.  Its median
    latency is its cost with stalls that hit single calls filtered out
    (the thread descheduled by a neighbour, an interrupt, a garbage
    collection); the percentiles weight each key by its number of calls.
    """
    order = np.lexsort((latencies, keys))
    keys, latencies = keys[order], latencies[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    ends = np.r_[starts[1:], len(keys)]
    medians = latencies[(starts + ends - 1) // 2]
    order = np.argsort(medians)
    medians, weights = medians[order], np.cumsum((ends - starts)[order])
    return [float(medians[np.searchsorted(weights, q * weights[-1])]) for q in quantiles]


def _put_queries(
    run: Run,
    latencies: np.ndarray,
    keys: np.ndarray,
    rates: Sequence[float],
    batch_ns: np.ndarray,
    batch_keys: np.ndarray,
    note: str = "",
) -> None:
    """The query metrics from scaled latencies (ns) and their keys.

    Latency percentiles are those of :func:`_key_percentiles`: on the
    shared machine the pooled 99th percentile of single calls is set by
    the neighbours' stalls and spreads by 10-20% from run to run.
    ``rates`` holds the point-call rate of each segment of the run.
    """
    p50, p99 = _key_percentiles(latencies, keys, (0.50, 0.99))
    count = len(latencies)
    run.put("query_p50_us", p50 / 1e3, "us", count, note)
    run.put("query_p99_us", p99 / 1e3, "us", count, note)
    run.put("queries_per_s", statistics.median(rates), "1/s", count, note)
    batch_p50 = _key_percentiles(batch_ns, batch_keys, (0.50,))[0]
    run.put("batch_p50_ms", batch_p50 / 1e6, "ms", len(batch_ns), note)


def _put_builder(run: Run, builds: Sequence[Dict[str, float]]) -> None:
    """Builder counters and index entries, summed over ``builds``."""
    for name in BUILDER_COUNTERS:
        run.put(f"core.builder.{name}", sum(b[name] for b in builds), "count", len(builds))
    attempts = sum(b["insert_attempts"] for b in builds)
    inserted = sum(b["inserted"] for b in builds)
    run.put("core.builder.insert_yield", inserted / attempts if attempts else 0.0, "ratio", attempts)
    run.put("core.index.entries", sum(b["entries"] for b in builds), "count", len(builds))


def _build_record(index) -> Dict[str, float]:
    record = dict(index.build_stats.as_dict())
    record["entries"] = index.num_entries
    return record


def _put_layers(run: Run, tracer: Tracer) -> None:
    """Per-layer self times and call counts read from the trace."""
    build_k2 = tracer.totals.get(BUILD + ".k2", [0])[0]
    build_k3 = tracer.totals.get(BUILD + ".k3", [0])[0]
    run.put("graph.generate_s", tracer.mean_duration_s(GENERATE), "s", tracer.count(GENERATE))
    run.put("core.builder.build_s.ep_k2", tracer.mean_duration_s(BUILD + ".k2"), "s", build_k2)
    run.put("core.builder.build_s.wn_k3", tracer.mean_duration_s(BUILD + ".k3"), "s", build_k3)
    probes = tracer.count(PROBE)
    run.put("core.index.probe_us", tracer.mean_self_us(PROBE), "us", probes)
    run.put("core.index.probe_calls", probes, "count", probes)
    prepared = tracer.count(QUERY_PREPARED)
    run.put("engine.query_prepared_self_us", tracer.mean_self_us(QUERY_PREPARED), "us", prepared)
    calls = tracer.count(PREPARE_QUERY)
    run.put("engine.prepare_query_calls", calls, "count", calls)
    for metric, name in (
        ("core.index.batch_us_per_query", INDEX_BATCH),
        ("engine.query_batch_self_us_per_query", ENGINE_BATCH),
        ("engine.service.run_self_us_per_query", SERVICE_RUN),
    ):
        items = tracer.totals.get(name, [0, 0, 0, 0])[3]
        run.put(metric, tracer.self_us_per_item(name), "us", items)
    for metric, name in (
        ("engine.service.query_outcome_self_us", SERVICE_QUERY),
        ("api.session.query_outcome_self_us", SESSION_QUERY),
    ):
        run.put(metric, tracer.mean_self_us(name), "us", tracer.count(name))


def _put_service(run: Run, before: Dict[str, float], after: Dict[str, float]) -> None:
    """LRU efficiency over the measured phase, evictions since creation."""
    hits = after["cache_hits"] - before["cache_hits"]
    lookups = hits + after["cache_misses"] - before["cache_misses"]
    run.put("engine.service.hit_ratio", hits / lookups if lookups else 0.0, "ratio", lookups)
    run.put(
        "engine.service.evictions",
        after["cache_misses"] - after["cache_len"],
        "count",
        int(after["cache_misses"]),
    )


def _put_no_server(run: Run) -> None:
    """The api.server layer is not on this workload's path."""
    run.put("api.server.query_overhead_us", 0.0, "us", 0)
    run.put("api.server.query_solo_p50_us", 0.0, "us", 0)
    run.put("api.server.engine_share", 0.0, "ratio", 0)


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------


def build(run: Run, seed: int, seconds: float, trace: bool, config: Config) -> None:
    """Fresh EP k=2 and WN k=3 indexes, repeated; each build is verified.

    Repeats until ``seconds`` have passed and at least
    ``config.build_reps`` builds of each graph are done.  A traced run
    makes one untraced repetition, then ``build_reps - 1`` traced ones.
    """
    pools = {
        dataset: query_pool(
            datasets.load_dataset(dataset, scale=config.scale),
            dataset,
            config.check_per_side,
            seed,
            config,
        )
        for dataset in ENGINE_OPTIONS
    }
    tracer = Tracer() if trace else None
    setups, builds, walls, windows, batches = [], [], [], [], []
    index_bytes = 0
    records: List[Dict[str, float]] = []
    started = perf_counter()
    while len(builds) < config.build_reps or (
        not trace and perf_counter() - started < seconds
    ):
        if tracer is not None and len(builds) == 1:
            tracer.install()
        rep_started = perf_counter()
        setup_s = build_s = 0.0
        sessions = []
        index_bytes, records = 0, []
        for dataset, options in ENGINE_OPTIONS.items():
            gc.collect()
            # cache_size=0: every verification query reaches the index.
            session, setup, built = _open_session(dataset, config, cache_size=0)
            sessions.append(session)
            setup_s += setup
            build_s += built
            index = session.engine(**options).backend
            index_bytes += index.estimated_size_bytes()
            records.append(_build_record(index))
            run.attempted += 1
            # Both indexes are verified.  The query metrics time further,
            # warm EP passes only, so that every window holds one latency
            # distribution rather than a mix of first-use and memo hits.
            _point_pass(run, session, pools[dataset], options)
            _run_batches(run, session, pools[dataset], options)
            for _ in range(TIMED_PASSES if dataset == "EP" else 0):
                windows += _point_pass(run, session, pools[dataset], options)
                batches.append(_run_batches(run, session, pools[dataset], options))
        walls.append(perf_counter() - rep_started)
        setups.append(setup_s)
        builds.append(build_s)
        del sessions
    if tracer is not None:
        tracer.uninstall()
        _put_layers(run, tracer)
        _put_builder(run, records)
        # The build sessions run with the LRU off: every lookup misses.
        run.put("engine.service.hit_ratio", 0.0, "ratio", 0)
        run.put("engine.service.evictions", 0, "count", 0)
        _put_no_server(run)
        ratio = statistics.fmean(walls[1:]) / walls[0]
        run.put("trace.overhead_ratio", ratio, "ratio", len(walls))
        tracer.write_spans(_trace_path("build", seed))
        return
    run.put("setup_s", statistics.median(setups), "s", len(setups))
    run.put("build_s", statistics.median(builds), "s", len(builds))
    run.put("index_bytes", index_bytes, "bytes", len(records))
    latencies = np.concatenate([w[0] for w in windows])
    keys = np.concatenate([w[1] for w in windows])
    rates = [len(w[0]) / w[2] for w in windows]
    # Every pass sends the same batches: batch i of one pass is batch i of all.
    batch_keys = np.concatenate([np.arange(len(b)) for b in batches])
    _put_queries(run, latencies, keys, rates, np.concatenate(batches), batch_keys)
    run.put("peak_rss_mb", _peak_rss_mb(), "MB", 1)


# ----------------------------------------------------------------------
# point-cold / point-hot
# ----------------------------------------------------------------------


def _point(run: Run, seed: int, seconds: float, trace: bool, config: Config, hot: bool) -> None:
    # Inputs first, so that their temporaries are freed before the
    # program's memory peaks.
    graph = datasets.load_dataset("EP", scale=config.scale)
    pool = query_pool(graph, "EP", config.pool_per_side, seed, config)
    rng = np.random.default_rng(seed)
    if hot:
        half = config.hot_keys // 2
        per_side = config.pool_per_side
        keys = pool[:half] + pool[per_side : per_side + half]
        weights = 1.0 / np.arange(1, len(keys) + 1)
        ranks = rng.choice(len(keys), size=DRAWS, p=weights / weights.sum())
        # The top rank alone takes 13% of the calls, so one slow key would
        # set a run's tail.  Which key holds which rank changes every
        # 1/HOT_RANKINGS of the draws.
        rankings = np.array([rng.permutation(len(keys)) for _ in range(HOT_RANKINGS)])
        draws = _draws(rankings[np.arange(DRAWS) * HOT_RANKINGS // DRAWS, ranks])
        batched = [keys[draws[i]] for i in range(HOT_BATCHES * BATCH)]
    else:
        keys = pool
        draws = _draws(rng.integers(0, len(keys), size=DRAWS))
        batched = keys
    del graph
    tracer = Tracer().install() if trace else None
    setups, builds = [], []
    session = None
    for _ in range(config.setups):
        session = None
        gc.collect()
        session, setup, built = _open_session("EP", config)
        setups.append(setup)
        builds.append(built)
    # Warm-up, verified: the batched path over the inputs, then one point
    # query per key (fills the prepared memo, the per-constraint hub memos
    # and, for point-hot, the LRU).
    _run_batches(run, session, batched, {})
    _point_pass(run, session, keys, {})
    service = session.service()
    before = service.counters()
    if tracer is not None:
        tracer.uninstall()
    gc.collect()
    loop = _point_loop(run, session, keys, draws, 0, seconds / 2 if trace else seconds)
    if tracer is None:
        run.put("peak_rss_mb", _peak_rss_mb(), "MB", 1)
        index = session.engine().backend
        run.put("setup_s", statistics.median(setups), "s", len(setups))
        run.put("build_s", statistics.median(builds), "s", len(builds))
        run.put("index_bytes", index.estimated_size_bytes(), "bytes", 1)
        note = f"speed factor {float(np.median(loop.scales)):.3f}"
        latencies, answered_keys, rates = loop.answered(draws)
        batches = loop.scaled_batches()
        # Each interlude batch is drawn afresh: every batch is its own key.
        batch_keys = np.arange(len(batches))
        _put_queries(run, latencies, answered_keys, rates, batches, batch_keys, note)
        return
    tracer.install()
    traced = _point_loop(run, session, keys, draws, loop.position, seconds / 2)
    tracer.uninstall()
    after = service.counters()
    _put_layers(run, tracer)
    _put_builder(run, [_build_record(session.engine().backend)])
    _put_service(run, before, after)
    _put_no_server(run)
    ratio = (traced.point_seconds / traced.calls) / (loop.point_seconds / loop.calls)
    run.put("trace.overhead_ratio", ratio, "ratio", traced.calls)
    tracer.write_spans(_trace_path("point-hot" if hot else "point-cold", seed))


def point_cold(run: Run, seed: int, seconds: float, trace: bool, config: Config) -> None:
    """One caller, uniform draws from a pool about 12x the LRU."""
    _point(run, seed, seconds, trace, config, hot=False)


def point_hot(run: Run, seed: int, seconds: float, trace: bool, config: Config) -> None:
    """One caller, Zipf(1) draws from 1,000 keys that fit the LRU."""
    _point(run, seed, seconds, trace, config, hot=True)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


class _Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, graph_arg: str, summary: Optional[str] = None) -> None:
        command = [sys.executable, "-u"]
        if summary is None:
            command += ["-m", "repro"]
        else:
            command += [os.path.join(HERE, "spans.py"), summary, "--"]
        command += ["serve", graph_arg, "--port", "0", "--quiet"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (SRC, env.get("PYTHONPATH")) if path
        )
        os.makedirs(CACHE, exist_ok=True)
        self._log = open(os.path.join(CACHE, "serve.log"), "ab")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        try:
            self.host, self.port = self._address(SETUP_DEADLINE_S)
        except BaseException:
            self.stop()
            raise

    def _address(self, timeout: float) -> Tuple[str, int]:
        deadline = monotonic() + timeout
        stdout = self.process.stdout
        while monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if not line:
                    break
                match = re.search(rb"http://([0-9.]+):([0-9]+)", line)
                if match:
                    return match.group(1).decode(), int(match.group(2))
            elif self.process.poll() is not None:
                break
        raise RuntimeError("repro serve did not start; see perfbench/.cache/serve.log")

    def peak_rss_mb(self) -> float:
        """The server's resident high-water mark (VmHWM)."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM, then wait; kill if it does not end."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class _Client:
    """One persistent HTTP/1.1 connection with a per-request deadline."""

    def __init__(self, server: _Server, deadline: float) -> None:
        self._connection = http.client.HTTPConnection(
            server.host, server.port, timeout=deadline
        )

    def call(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self._connection.close()  # the next request reconnects
            raise
        if response.status != 200:
            self._connection.close()  # the server closes after an error
            raise RequestFailed(f"{method} {path}: HTTP {response.status}")
        return json.loads(data)

    def close(self) -> None:
        self._connection.close()


_FAILURES = (OSError, http.client.HTTPException, RequestFailed, ValueError)


def _payload(query: RlcQuery) -> Dict:
    return {"source": query.source, "target": query.target, "labels": list(query.labels)}


def _batch_payload(queries: Sequence[RlcQuery]) -> Dict:
    return {
        "queries": [dict(_payload(q), expected=q.expected) for q in queries],
    }


def _engine_counters(client: _Client) -> Dict[str, float]:
    stats = client.call("GET", "/stats")
    return stats["services"][stats["engine"]]


def _start_server(graph_arg: str, first: RlcQuery, summary: Optional[str] = None):
    """Spawn a server and time it until the first correct ``/query`` answer.

    The wall time is scaled by speed samples the waiting client takes.
    Returns ``(server, set-up seconds at reference speed, wall seconds,
    build seconds from /stats)``.
    """
    server = client = None
    try:
        with speed.sampled(wall=True) as window:
            server = _Server(graph_arg, summary)
            client = _Client(server, SETUP_DEADLINE_S)
            answer = client.call("POST", "/query", _payload(first))["answer"]
        if answer != first.expected:
            raise WrongAnswer(f"{first} answered {answer}")
        build_s = _engine_counters(client)["engine_prepare_seconds"]
    except BaseException:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()
        raise
    client.close()
    return server, window.scaled, window.seconds, build_s


def _warm(run: Run, server: _Server, pool: Sequence[RlcQuery]) -> None:
    """Verified warm-up on both connection kinds (prepared memo, hub memos)."""
    batch = _Client(server, BATCH_DEADLINE_S)
    query = _Client(server, QUERY_DEADLINE_S)
    try:
        for start in range(0, WARM_BATCHES * BATCH, BATCH):
            chunk = pool[start : start + BATCH]
            run.attempted += 1
            _check(chunk, batch.call("POST", "/batch", _batch_payload(chunk))["answers"])
        for q in pool[:WARM_QUERIES]:
            run.attempted += 1
            _check([q], [query.call("POST", "/query", _payload(q))["answer"]])
    finally:
        batch.close()
        query.close()


@dataclass
class _Traffic:
    """What the HTTP client loops saw."""

    query_ns: List[int] = field(default_factory=list)
    batch_ns: List[int] = field(default_factory=list)
    answered: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    wall: float = 0.0


def _drive(
    server: _Server,
    pool: Sequence[RlcQuery],
    seed: int,
    seconds: float,
    with_batches: bool,
    bad_request: bool = False,
) -> _Traffic:
    """Closed-loop traffic: ``/query`` on one connection, ``/batch`` on another.

    Both loops stop sending at the deadline and finish the request in
    flight.  Failed requests (non-200, past the deadline, broken
    connection) are counted; wrong answers are collected.
    """
    traffic = _Traffic()
    lock = threading.Lock()
    rng = np.random.default_rng(seed)
    query_draws = _draws(rng.integers(0, len(pool), size=1 << 16))
    batch_order = _draws(rng.permutation(len(pool)))
    deadline = perf_counter() + seconds

    def query_loop() -> None:
        client = _Client(server, QUERY_DEADLINE_S)
        latencies, attempted, failed, wrong = [], 0, 0, []
        position = 0
        try:
            while perf_counter() < deadline:
                q = pool[query_draws[position % len(query_draws)]]
                position += 1
                payload = _payload(q)
                if bad_request and attempted == 0:
                    payload["source"] = -1
                attempted += 1
                began = perf_counter_ns()
                try:
                    answer = client.call("POST", "/query", payload)["answer"]
                except _FAILURES:
                    failed += 1
                    continue
                latencies.append(perf_counter_ns() - began)
                if answer != q.expected:
                    wrong.append(f"{q} answered {answer}")
        finally:
            client.close()
        with lock:
            traffic.query_ns = latencies
            traffic.answered += len(latencies)
            traffic.attempted += attempted
            traffic.failed += failed
            traffic.wrong += wrong

    def batch_loop() -> None:
        client = _Client(server, BATCH_DEADLINE_S)
        latencies, attempted, failed, wrong, answered = [], 0, 0, [], 0
        position = 0
        try:
            while perf_counter() < deadline:
                if position + BATCH > len(batch_order):
                    position = 0
                chunk = [pool[batch_order[i]] for i in range(position, position + BATCH)]
                position += BATCH
                attempted += 1
                began = perf_counter_ns()
                try:
                    answers = client.call("POST", "/batch", _batch_payload(chunk))["answers"]
                except _FAILURES:
                    failed += 1
                    continue
                latencies.append(perf_counter_ns() - began)
                answered += len(answers)
                try:
                    _check(chunk, answers)
                except WrongAnswer as exc:
                    wrong.append(str(exc))
        finally:
            client.close()
        with lock:
            traffic.batch_ns = latencies
            traffic.answered += answered
            traffic.attempted += attempted
            traffic.failed += failed
            traffic.wrong += wrong

    threads = [threading.Thread(target=query_loop, name="perfbench-query")]
    if with_batches:
        threads.append(threading.Thread(target=batch_loop, name="perfbench-batch"))
    started = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * BATCH_DEADLINE_S)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    traffic.wall = perf_counter() - started
    if traffic.wrong:
        raise WrongAnswer(traffic.wrong[0])
    return traffic


def _count(run: Run, traffic: _Traffic) -> None:
    run.attempted += traffic.attempted
    run.failed += traffic.failed


def _serve_graph(config: Config, graph) -> str:
    """``EP`` itself, or a file holding the scaled-down stand-in."""
    if config.scale == 1.0:
        return "EP"
    path = os.path.join(CACHE, f"EP-{config.scale}.npz")
    if not os.path.exists(path):
        os.makedirs(CACHE, exist_ok=True)
        save_graph_npz(graph, path)
    return path


def serve_mixed(run: Run, seed: int, seconds: float, trace: bool, config: Config) -> None:
    """``repro serve EP`` with a /query and a /batch connection in parallel."""
    graph = datasets.load_dataset("EP", scale=config.scale)
    pool = query_pool(graph, "EP", config.pool_per_side, seed, config)
    graph_arg = _serve_graph(config, graph)
    if trace:
        _serve_traced(run, seed, seconds, config, pool, graph_arg)
        return
    setups, walls, builds = [], [], []
    server = None
    try:
        for _ in range(config.server_setups):
            if server is not None:
                server.stop()
                server = None
            server, setup, wall, build_s = _start_server(graph_arg, pool[0])
            run.attempted += 1
            setups.append(setup)
            walls.append(wall)
            builds.append(build_s)
        _warm(run, server, pool)
        traffic = _drive(server, pool, seed, seconds, True, config.bad_request)
        _count(run, traffic)
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    # /stats reports no index size, and the server's own build time cannot
    # be scaled by the speed kernel: build the same index here instead.
    scaled_builds = []
    for _ in range(config.serve_builds):
        index = None
        gc.collect()
        with speed.sampled() as window:
            index = Session(graph).engine().backend
        scaled_builds.append(window.scaled)
    query_ns = np.array(traffic.query_ns, dtype=np.int64)
    wall = f"wall time median {statistics.median(walls):.4f}"
    run.put("setup_s", statistics.median(setups), "s", len(setups), wall)
    server_build = f"server engine_prepare_seconds median {statistics.median(builds):.4f}"
    run.put("build_s", statistics.median(scaled_builds), "s", len(scaled_builds), server_build)
    run.put("index_bytes", index.estimated_size_bytes(), "bytes", 1)
    run.put("query_p50_us", float(np.percentile(query_ns, 50)) / 1e3, "us", len(query_ns))
    run.put("query_p99_us", float(np.percentile(query_ns, 99)) / 1e3, "us", len(query_ns))
    run.put("queries_per_s", traffic.answered / traffic.wall, "1/s", traffic.answered)
    batches = len(traffic.batch_ns)
    run.put("batch_p50_ms", statistics.median(traffic.batch_ns) / 1e6, "ms", batches)
    run.put("peak_rss_mb", peak, "MB", 1)


def _serve_traced(run, seed, seconds, config, pool, graph_arg) -> None:
    """Untraced server for the overhead base, then a traced server.

    The traced server runs the ``/query`` loop alone first (solo p50
    and the engine's own time per query from ``/stats`` deltas), then
    the mixed traffic.
    """
    half = seconds / 2
    server = _start_server(graph_arg, pool[0])[0]
    try:
        _warm(run, server, pool)
        base = _drive(server, pool, seed, half, True)
        _count(run, base)
    finally:
        server.stop()
    summary = os.path.join(CACHE, "traces", f"serve-mixed-seed{seed}.server.json")
    os.makedirs(os.path.dirname(summary), exist_ok=True)
    if os.path.exists(summary):
        os.remove(summary)
    server = _start_server(graph_arg, pool[0], summary)[0]
    try:
        _warm(run, server, pool)
        client = _Client(server, QUERY_DEADLINE_S)
        try:
            before = _engine_counters(client)
            solo = _drive(server, pool, seed + 1, seconds / 4, False)
            after = _engine_counters(client)
            mixed = _drive(server, pool, seed + 2, half, True)
            end = _engine_counters(client)
        finally:
            client.close()
        _count(run, solo)
        _count(run, mixed)
    finally:
        server.stop()
    with open(summary, encoding="utf-8") as handle:
        tracer = Tracer.from_summary(json.load(handle))
    _put_layers(run, tracer)
    _put_builder(run, tracer.builds)
    _put_service(run, after, end)
    engine_us = (
        (after["engine_query_seconds"] - before["engine_query_seconds"])
        / max(after["engine_queries"] - before["engine_queries"], 1)
        * 1e6
    )
    mixed_p50 = float(np.percentile(mixed.query_ns, 50)) / 1e3
    run.put("api.server.query_overhead_us", mixed_p50 - engine_us, "us", len(mixed.query_ns))
    run.put(
        "api.server.query_solo_p50_us",
        float(np.percentile(solo.query_ns, 50)) / 1e3,
        "us",
        len(solo.query_ns),
    )
    run.put("api.server.engine_share", engine_us / mixed_p50, "ratio", len(mixed.query_ns))
    ratio = (mixed.wall / mixed.answered) / (base.wall / base.answered)
    run.put("trace.overhead_ratio", ratio, "ratio", mixed.answered)


def _trace_path(workload: str, seed: int) -> str:
    return os.path.join(CACHE, "traces", f"{workload}-seed{seed}.spans.jsonl")


WORKLOADS = {
    "build": build,
    "point-cold": point_cold,
    "point-hot": point_hot,
    "serve-mixed": serve_mixed,
}
