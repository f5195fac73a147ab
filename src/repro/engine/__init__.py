"""Unified engine layer: one contract for every RLC answerer.

Everything that can answer an RLC query — the RLC index, the four
online/materialized baselines and the three simulated Table V systems
— is wrapped in the :class:`EngineBase` contract (``prepare`` /
``prepare_query`` / ``query_prepared`` / ``query_batch``, all reaching
the backend through one ``_evaluate`` hook), constructed by name (or
parameterized spec) through the registry, and served through the
batching/caching :class:`QueryService`::

    from repro.engine import QueryService, create_engine

    engine = create_engine("rlc?k=2", graph)
    report = QueryService(engine).run(workload)
    assert report.ok

- :mod:`repro.engine.base` — the contract and adapter scaffolding;
- :mod:`repro.engine.adapters` — the eight engines;
- :mod:`repro.engine.registry` — the fixed table of engines,
  string-keyed construction and the ``name[?key=value&...]`` spec
  grammar;
- :mod:`repro.engine.service` — batched, cached, verified serving.

Engines are read-only after ``prepare()``; a :class:`QueryService` keeps
all per-query state under its own lock, so threads may share either.
"""

from repro.engine.base import EngineBase, PreparedQuery
from repro.queries import QueryOutcome
from repro.engine.registry import (
    available_engines,
    create_engine,
    engine_names,
    filter_engine_options,
    get_engine_class,
    parse_engine_spec,
    resolve_engine_spec,
)
from repro.engine.adapters import (
    BfsEngine,
    BiBfsEngine,
    DfsEngine,
    EtcEngine,
    RlcIndexEngine,
    Sys1Engine,
    Sys2Engine,
    VirtuosoSimEngine,
)
from repro.engine.service import QueryService, ServiceReport

__all__ = [
    "BfsEngine",
    "BiBfsEngine",
    "DfsEngine",
    "EngineBase",
    "EtcEngine",
    "PreparedQuery",
    "QueryOutcome",
    "QueryService",
    "RlcIndexEngine",
    "ServiceReport",
    "Sys1Engine",
    "Sys2Engine",
    "VirtuosoSimEngine",
    "available_engines",
    "create_engine",
    "engine_names",
    "filter_engine_options",
    "get_engine_class",
    "parse_engine_spec",
    "resolve_engine_spec",
]
