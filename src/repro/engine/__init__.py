"""Unified engine layer: one contract for every RLC answerer.

Everything that can answer an RLC query — the RLC index, the four
online/materialized baselines and the three simulated Table V systems
— is wrapped in the :class:`ReachabilityEngine` contract (``prepare`` /
``query`` / ``query_batch`` / ``stats``), constructed by name (or
parameterized spec) through the registry, and served through the
batching/caching :class:`QueryService`::

    from repro.engine import QueryService, create_engine

    engine = create_engine("rlc?k=2", graph)
    report = QueryService(engine).run(workload)
    assert report.ok

- :mod:`repro.engine.base` — the protocol and adapter scaffolding;
- :mod:`repro.engine.adapters` — the eight engines;
- :mod:`repro.engine.registry` — string-keyed construction and the
  ``name[?key=value&...]`` spec grammar;
- :mod:`repro.engine.service` — batched, cached, verified serving.
"""

from repro.engine.base import (
    KNOWN_CAPABILITIES,
    EngineBase,
    EngineStats,
    PreparedQuery,
    QueryOutcome,
    ReachabilityEngine,
)
from repro.engine.registry import (
    available_engines,
    create_engine,
    engine_capabilities,
    engine_names,
    engines_with_capabilities,
    filter_engine_options,
    get_engine_class,
    instantiate_engine,
    parse_engine_spec,
    register,
    register_alias,
    resolve_engine_spec,
    spec_parameter_names,
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
    "KNOWN_CAPABILITIES",
    "BfsEngine",
    "BiBfsEngine",
    "DfsEngine",
    "EngineBase",
    "EngineStats",
    "EtcEngine",
    "PreparedQuery",
    "QueryOutcome",
    "QueryService",
    "ReachabilityEngine",
    "RlcIndexEngine",
    "ServiceReport",
    "Sys1Engine",
    "Sys2Engine",
    "VirtuosoSimEngine",
    "available_engines",
    "create_engine",
    "engine_capabilities",
    "engine_names",
    "engines_with_capabilities",
    "filter_engine_options",
    "get_engine_class",
    "instantiate_engine",
    "parse_engine_spec",
    "register",
    "register_alias",
    "resolve_engine_spec",
    "spec_parameter_names",
]
