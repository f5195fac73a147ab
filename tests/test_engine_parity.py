"""The differential harness: every engine and entry point against one oracle.

The reproduction follows the paper's prose rather than its printed
Algorithm 2 (see :mod:`repro.core.builder`), so its correctness rests on
brute-force checks, and they live here.  For each graph and engine spec
every entry point of :func:`entry_points` answers the exhaustive
workload (every ``(s, t, L)`` with ``|L| <= 2``, labelled by
:func:`tests.helpers.brute_force_rlc`, which shares no code with the
engines), and all answers are collected before the one assertion, so a
failure names every entry point that disagrees.  The graphs are the
fixed :data:`FAMILIES`, seeded random graphs, and hypothesis-drawn
graphs, derandomized so a failure reproduces.  Every entry point must
also reject each query of :data:`MALFORMED` with the error it pins.
This is the one place to add an engine (:data:`SPECS`), an entry
point or a graph family.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
from typing import Dict, List

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import ReplayServer, Session
from repro.core.index import RlcIndex
from repro.engine import RlcIndexEngine, create_engine, engine_names
from repro.errors import CapabilityError, NonPrimitiveConstraintError, QueryError
from repro.graph.digraph import EdgeLabeledDigraph as Graph
from repro.queries import RlcQuery

from tests.helpers import (
    ADVERSARIAL_TOPOLOGIES as TOPOLOGIES,
    all_primitive_constraints,
    assert_witness_valid,
    brute_force_rlc,
    graphs,
    random_graph,
    stack_graphs,
)

#: Every registry engine (``k`` defaults to 2), then RLC build variants.
SPECS = (*engine_names(), "rlc-index?strategy=lazy", "rlc-index?use_pr1=false",
         "rlc-index?use_pr2=false", "rlc-index?use_pr3=false",
         "rlc-index?use_pr1=false&use_pr2=false&use_pr3=false")  # fmt: skip
K_BOUNDED = ("rlc-index", "etc")
#: Random blocks, a single vertex and a self-loop, stacked side by side.
BLOCKS = {
    f"blocks-{seed}": [
        *(random_graph(seed * 3 + i, max_vertices=5, min_labels=2, max_labels=2) for i in range(3)),
        Graph(1, [], num_labels=2), Graph(1, [(0, 0, 0)], num_labels=2),
    ]
    for seed in range(4)
}  # fmt: skip
FAMILIES: Dict[str, Graph] = {
    # Two interleaved labelled cycles sharing vertices, plus chords.
    "cyclic": Graph(6, [(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0), (2, 0, 4), (4, 1, 2),
                        (0, 1, 5), (5, 0, 0), (1, 0, 4)], num_labels=2),  # fmt: skip
    # Self-loops on both labels; the paper notes loops may be re-traversed.
    "self-loops": Graph(4, [(0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 2), (2, 1, 0), (2, 0, 3),
                            (3, 1, 3)], num_labels=2),  # fmt: skip
    # Two components, one label-disjoint from the other, and a pendant.
    "disconnected": Graph(7, [(0, 0, 1), (1, 1, 0), (3, 0, 4), (4, 0, 5), (5, 1, 3), (5, 0, 6)],
                          num_labels=2),  # fmt: skip
    # Three labels, so a primitive constraint of length 3 exists.
    "three-labels": Graph(4, [(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0), (1, 2, 1)], num_labels=3),
    **{name: stack_graphs(blocks)[0] for name, blocks in BLOCKS.items()},
    **{
        name: TOPOLOGIES[name]
        for name in ("complete-2", "alternating-cycle", "coprime-cycle", "scc-bridge",
                     "isolated-vertices", "star", "unused-labels", "unique-labels")
    },  # fmt: skip
    # Where every query is true, an isolated vertex makes some false.
    **{
        f"{name}+isolated": stack_graphs([TOPOLOGIES[name], Graph(1, [], num_labels=1)])[0]
        for name in ("complete-1", "cycle-5", "cycle-7", "cycle-9", "parallel-multigraph",
                     "self-loop-alphabet")
    },  # fmt: skip
}
RANDOM = {f"random-{seed}": random_graph(seed, max_vertices=8) for seed in range(100, 105)}
GRAPHS = {**FAMILIES, **RANDOM}


@functools.lru_cache(maxsize=None)
def exhaustive_workload(graph: Graph) -> List[RlcQuery]:
    """Every ``(s, t, L)`` with ``|L| <= 2`` and the oracle's answer;
    constraints vary fastest, so memos see them interleaved."""
    constraints = all_primitive_constraints(graph.num_labels, 2)
    return [
        RlcQuery(s, t, labels, expected=brute_force_rlc(graph, s, t, labels))
        for s in range(graph.num_vertices)
        for t in range(graph.num_vertices)
        for labels in constraints
    ]


def _each(answer):
    """An entry point answering one query per call, over a list."""
    return lambda queries: [answer(q.source, q.target, q.labels) for q in queries]


def _engine_points(prefix, engine):
    backend = engine.backend

    def reused(queries):  # keyed by repr: a malformed label may be unhashable
        memo = {repr(q.labels): q.labels for q in queries}
        memo = {key: engine.prepare_query(labels) for key, labels in memo.items()}
        return [engine.query_prepared(memo[repr(q.labels)], q.source, q.target) for q in queries]

    points = {
        "query_prepared": _each(lambda s, t, labels: engine.query_prepared(labels, s, t)),
        "query_prepared(prepare_query)": reused,
        "query_batch": engine.query_batch,
        "backend.query": _each(backend.query),
    }
    if isinstance(backend, RlcIndex):
        points["RlcIndex.query_mr"] = _each(backend.query_mr)
        points["RlcIndex.query_batch"] = backend.query_batch
    return {prefix + name: answer for name, answer in points.items()}


def _run(session):
    """``Session.run`` from an empty cache; its answers if it reports ok."""

    def run(queries):
        session.service().clear_cache()
        report = session.run(queries)
        return report.answers if report.ok else None

    return run


def _session_points(session, http):
    """``Session.query_outcome`` from an empty cache, then warm with
    witnesses; ``Session.run``; the ``/query`` and ``/batch`` handlers of
    a :class:`ReplayServer` that binds but never serves.  The handlers
    come last and answer from the cache ``Session.run`` filled."""

    def cold(queries):
        session.service().clear_cache()
        outcomes = [session.query_outcome(q.source, q.target, q.labels) for q in queries]
        return [None if outcome.cached else outcome.answer for outcome in outcomes]

    def warm(s, t, labels):
        outcome = session.query_outcome(s, t, labels, witness=True)
        if outcome.answer:
            assert_witness_valid(session.graph, s, t, labels, outcome.witness)
        elif outcome.witness is not None:
            return None
        return outcome.answer if outcome.cached else None

    def body(q):
        return dict(source=q.source, target=q.target, labels=list(q.labels), expected=q.expected)

    def batch(queries):
        report = http.handle_batch({"queries": [body(q) for q in queries]})
        return report["answers"] if report["ok"] else None

    return {
        "Session.query_outcome (cold)": cold,
        "Session.query_outcome (warm)": _each(warm),
        "Session.run": _run(session),
        "/query": lambda queries: [http.handle_query(body(q))["answer"] for q in queries],
        "/batch": batch,
    }


@contextlib.contextmanager
def entry_points(spec, graph, blocks=None):
    """``{name: answer(queries)}`` for every entry point of ``spec`` over
    ``graph``: the engine's, the session's and, for ``rlc-index``, a saved
    and reloaded index's; over stacked blocks, also each block's engine."""
    engine = create_engine(spec, graph)
    session = Session.from_prepared(engine, spec=spec)
    server = ReplayServer(session, port=0)
    points = {**_engine_points("", engine), **_session_points(session, server._http)}
    if spec == "rlc-index":  # the build variants share its save and load
        archive = io.BytesIO()
        engine.backend.save(archive)
        loaded = RlcIndexEngine.from_index(RlcIndex.load(io.BytesIO(archive.getvalue())))
        points.update(_engine_points("loaded ", loaded))
        points["loaded Session.run"] = _run(Session.from_prepared(loaded, spec="rlc-index"))
    if blocks is not None:
        _, block_of = stack_graphs(blocks)
        alone = [create_engine(spec, block) for block in blocks]

        def on_its_block(s, t, labels):
            (block, s), (other, t) = block_of[s], block_of[t]
            return block == other and alone[block].query_prepared(labels, s, t)

        points["query_prepared on the block alone"] = _each(on_its_block)
    try:
        yield points
    finally:
        server.stop()


@pytest.fixture(scope="module", autouse=True)
def frozen_heap():
    """Freeze the heap earlier modules left while this one runs: it is
    long-lived, and the collections this module's many short-lived
    objects set off would otherwise scan it again and again."""
    gc.freeze()
    yield
    gc.unfreeze()
    exhaustive_workload.cache_clear()


def disagreements(spec, graph, blocks=None) -> Dict[str, object]:
    """``{entry point: the first queries it got wrong, or its error}``."""
    queries = exhaustive_workload(graph)
    expected = [q.expected for q in queries]
    wrong = {}
    with entry_points(spec, graph, blocks) as points:
        for name, answer in points.items():
            try:
                answers = answer(queries)
            except Exception as exc:  # reported with the other disagreements
                answers = exc
            if answers != expected:
                wrong[name] = answers if not isinstance(answers, list) else [
                    q for q, a in zip(queries, answers) if a != q.expected
                ][:3]
    return wrong


@pytest.mark.parametrize("family", GRAPHS)
@pytest.mark.parametrize("spec", SPECS)
def test_every_entry_point_matches_the_oracle(spec, family):
    assert not disagreements(spec, GRAPHS[family], BLOCKS.get(family))


@settings(max_examples=15, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])  # fmt: skip
@given(graph=graphs())
def test_generated_graphs_match_the_oracle(graph):
    assert not {
        f"{spec}: {point}": got for spec in SPECS for point, got in disagreements(spec, graph).items()
    }


#: ``(malformed query, its error's class, what it says)`` over ``three-labels``.
MALFORMED = [
    (RlcQuery(4, 0, (0,)), QueryError, "unknown source"),
    (RlcQuery(0, 4, (0,)), QueryError, "unknown target"),
    (RlcQuery(2.5, 0, (0,)), QueryError, "not an integer"),
    (RlcQuery(True, 0, (0,)), QueryError, "not an integer"),
    (RlcQuery("2", 0, (0,)), QueryError, "not an integer"),
    (RlcQuery(0, 1, (0, 0)), NonPrimitiveConstraintError, "not a minimum repeat"),
    (RlcQuery(0, 1, (3,)), QueryError, "unknown label"),
    (RlcQuery(0, 1, (1.0,)), QueryError, "not an integer"),
    (RlcQuery(0, 1, ()), QueryError, "at least one label"),
    (RlcQuery(0, 1, ([1],)), QueryError, "not an integer"),
]
OVER_K = RlcQuery(0, 1, (0, 1, 2))


def _raised(answer, queries):
    try:
        answer(queries)
    except Exception as exc:  # compared by type below
        return exc


@pytest.mark.parametrize("spec", SPECS)
def test_malformed_queries_raise_alike(spec):
    """A malformed query, second in its batch, raises the error :data:`MALFORMED`
    pins at every entry point, the ``/query`` and ``/batch`` handlers
    included.  ``query_mr`` trusts its caller and sits this out.  An empty
    batch answers ``[]`` everywhere."""
    graph = FAMILIES["three-labels"]
    name = spec.split("?", 1)[0]
    cases = MALFORMED + [(OVER_K, CapabilityError, "recursive k=2")] * (name in K_BOUNDED)
    wrong = {}
    with entry_points(spec, graph) as points:
        for bad, error, message in cases:
            batch = [RlcQuery(0, 0, (0,)), bad]
            expected = _raised(points["query_prepared"], batch)
            assert type(expected) is error and message in str(expected), (bad, expected)
            for point, answer in points.items():
                got = _raised(answer, batch)
                if not (
                    point.endswith("query_mr")
                    or type(got) is error and message in str(got)
                ):
                    wrong[f"{point} on {bad!r}"] = got
        if name in K_BOUNDED:
            got = _raised(points["query_batch"], [OVER_K])
            assert type(got) is CapabilityError and f"engine {name!r}" in str(got)
        else:  # a long constraint is an ordinary query
            truth = [brute_force_rlc(graph, 0, 1, OVER_K.labels)]
            wrong.update({p: a([OVER_K]) for p, a in points.items() if a([OVER_K]) != truth})
        wrong.update({p: a([]) for p, a in points.items() if a([]) != []})
    assert not wrong


@pytest.mark.parametrize("family", FAMILIES)
def test_family_has_both_answers_and_no_cross_component_path(family):
    from scipy.sparse.csgraph import connected_components  # imported late: a large heap

    graph = FAMILIES[family]
    queries = exhaustive_workload(graph)
    assert {q.expected for q in queries} == {True, False}
    _, component = connected_components(graph.adjacency_matrix(), connection="weak")
    crossing = [q for q in queries if component[q.source] != component[q.target]]
    assert not any(q.expected for q in crossing)
    if family in BLOCKS:
        assert len(BLOCKS[family]) >= 3 and crossing
        assert any(block.num_vertices == 1 for block in BLOCKS[family])
        assert graph.num_edges == sum(block.num_edges for block in BLOCKS[family])


def test_random_graphs_give_enough_true_answers():
    assert sum(q.expected for g in RANDOM.values() for q in exhaustive_workload(g)) > 50
