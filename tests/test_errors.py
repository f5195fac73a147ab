"""Tests for the exception hierarchy and the public API surface."""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    BudgetExceededError,
    CapabilityError,
    GraphError,
    NonPrimitiveConstraintError,
    QueryError,
    ReproError,
    SerializationError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GraphError,
            QueryError,
            SerializationError,
            BudgetExceededError,
        ],
    )
    def test_direct_subclasses(self, exc):
        assert issubclass(exc, ReproError)

    def test_query_error_subclasses(self):
        assert issubclass(NonPrimitiveConstraintError, QueryError)
        assert issubclass(CapabilityError, QueryError)

    def test_catch_all(self):
        with pytest.raises(ReproError):
            raise CapabilityError("x")


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.19.0"

    def test_all_symbols_resolvable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_quickstart_from_module_docstring(self):
        """The __init__ docstring example must actually work."""
        from repro import GraphBuilder, build_rlc_index

        b = GraphBuilder()
        b.add_edge("a14", "debits", "e15")
        b.add_edge("e15", "credits", "a17")
        b.add_edge("a17", "debits", "e18")
        b.add_edge("e18", "credits", "a19")
        graph = b.build()
        index = build_rlc_index(graph, k=2)
        constraint = graph.encode_sequence(("debits", "credits"))
        assert index.query(b.vertex_id("a14"), b.vertex_id("a19"), constraint)
