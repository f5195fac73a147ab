"""repro — a reproduction of the RLC index (ICDE 2023).

"A Reachability Index for Recursive Label-Concatenated Graph Queries"
(Zhang, Bonifati, Kapp, Haprian, Lozi): RLC queries ``(s, t, L+)`` ask
whether a path from ``s`` to ``t`` carries a label sequence that is a
power of the primitive sequence ``L`` (``|L| <= k``), and the RLC index
answers them with a 2-hop-style labeling built by kernel-based search.

The front door is the :mod:`repro.api` session facade — one object
owning a graph, its prepared engines, and its caches::

    from repro import GraphBuilder, Session

    b = GraphBuilder()
    b.add_edge("a14", "debits", "e15")
    b.add_edge("e15", "credits", "a17")
    b.add_edge("a17", "debits", "e18")
    b.add_edge("e18", "credits", "a19")
    graph = b.build()

    with Session(graph) as session:
        constraint = graph.encode_sequence(("debits", "credits"))
        assert session.query(b.vertex_id("a14"), b.vertex_id("a19"), constraint)

Lower layers are imported from their homes — ``repro.core`` for the
index algorithms, ``repro.engine`` for the registry and service,
``repro.graph`` for graphs.

``docs/ARCHITECTURE.md`` maps the subsystems, and
``benchmarks/run_all_experiments.py`` regenerates every table and
figure the paper reports.
"""

from repro.errors import (
    BudgetExceededError,
    CapabilityError,
    EngineError,
    EngineOptionError,
    GraphError,
    NonPrimitiveConstraintError,
    QueryError,
    ReproError,
    SerializationError,
)
from repro.graph import EdgeLabeledDigraph, GraphBuilder, compute_stats
from repro.labels import (
    LabelDictionary,
    is_primitive,
    kernel_decomposition,
    minimum_repeat,
)
from repro.queries import RlcQuery, validate_rlc_query
from repro.automata import Nfa, compile_regex, constraint_automaton, parse_regex
from repro.baselines import ExtendedTransitiveClosure, NfaBfs, NfaBiBfs, NfaDfs
from repro.core import (
    BuildStats,
    DynamicRlcIndex,
    ExtendedQueryEvaluator,
    RlcIndex,
    RlcIndexBuilder,
    build_rlc_index,
    find_witness_path,
)
from repro.engine.base import PreparedQuery, QueryOutcome
from repro.api import (
    AsyncQueryService,
    PersistentResultCache,
    ReplayServer,
    Session,
    open_session,
)

__version__ = "1.4.0"

__all__ = [
    "AsyncQueryService",
    "BudgetExceededError",
    "BuildStats",
    "CapabilityError",
    "DynamicRlcIndex",
    "EdgeLabeledDigraph",
    "EngineError",
    "EngineOptionError",
    "find_witness_path",
    "ExtendedQueryEvaluator",
    "ExtendedTransitiveClosure",
    "GraphBuilder",
    "GraphError",
    "LabelDictionary",
    "Nfa",
    "PersistentResultCache",
    "ReplayServer",
    "Session",
    "NfaBfs",
    "NfaBiBfs",
    "NfaDfs",
    "NonPrimitiveConstraintError",
    "PreparedQuery",
    "QueryError",
    "QueryOutcome",
    "ReproError",
    "RlcIndex",
    "RlcIndexBuilder",
    "RlcQuery",
    "SerializationError",
    "build_rlc_index",
    "compile_regex",
    "compute_stats",
    "constraint_automaton",
    "is_primitive",
    "kernel_decomposition",
    "minimum_repeat",
    "open_session",
    "parse_regex",
    "validate_rlc_query",
    "__version__",
]
