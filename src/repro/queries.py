"""The RLC query model shared by the index, the baselines and workloads.

Definition 1 of the paper: an RLC query is a triple ``(s, t, L+)`` over
an edge-labeled digraph where ``L`` is a *primitive* label sequence
(``L = MR(L)``) of length at most the recursive bound ``k``; the answer
is true iff some path from ``s`` to ``t`` has label sequence ``L^z``
for some ``z >= 1``.

:class:`RlcQuery` is the value object used across the library;
:func:`validate_rlc_query` centralizes the error taxonomy (unknown
vertices, empty constraints, non-primitive constraints, constraints
longer than an index's ``k``); :func:`group_queries_by_constraint` is
the shared scaffold of every grouped batched path (validate each
distinct constraint once, check the remaining endpoints per query).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CapabilityError, NonPrimitiveConstraintError, QueryError
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.minimum_repeat import is_primitive
from repro.labels.sequences import format_constraint

__all__ = [
    "RlcQuery",
    "group_queries_by_constraint",
    "validate_constraint_labels",
    "validate_rlc_query",
]


@dataclass(frozen=True)
class RlcQuery:
    """An RLC query ``(source, target, labels+)`` with integer label ids.

    ``expected`` optionally carries the ground-truth answer (workload
    files store it so benchmarks can verify every engine's output).
    """

    source: int
    target: int
    labels: Tuple[int, ...]
    expected: Optional[bool] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def recursive_length(self) -> int:
        """Number of concatenated labels ``|L|`` under the Kleene plus."""
        return len(self.labels)

    def constraint_text(self) -> str:
        """The constraint in the paper's notation, e.g. ``(0, 1)+``."""
        return format_constraint(self.labels)

    def __str__(self) -> str:
        return f"Q({self.source}, {self.target}, {self.constraint_text()})"


def _describe_raw_constraint(raw_labels: Tuple) -> str:
    """Best-effort rendering of a possibly-malformed constraint."""
    return "(" + ", ".join(repr(label) for label in raw_labels) + ")+"


def validate_constraint_labels(
    graph: EdgeLabeledDigraph,
    labels: Sequence[int],
    *,
    k: Optional[int] = None,
) -> Tuple[int, ...]:
    """Validate a constraint's labels alone, returning the label tuple.

    The constraint half of :func:`validate_rlc_query` — everything that
    depends only on the label sequence and the graph's label universe,
    nothing on the endpoints.  This is what
    :meth:`repro.engine.EngineBase.prepare_query` pays **once** per
    prepared constraint; error messages name the offending label and
    the constraint so a malformed workload entry is identifiable from
    the message alone.

    Raises:
        QueryError: empty constraint, unknown labels.
        NonPrimitiveConstraintError: ``L != MR(L)`` (out of scope per
            Section III-B — it adds an even-path-style length constraint).
        CapabilityError: ``|L| > k`` for the supplied index bound.
    """
    raw_labels = tuple(labels)
    if not raw_labels:
        raise QueryError("RLC constraint must contain at least one label")
    normalized = []
    for label in raw_labels:
        # Accept any integral type (numpy-loaded workloads carry
        # np.int64 labels) but reject bools, which are Integral too.
        if isinstance(label, bool) or not isinstance(label, numbers.Integral):
            raise QueryError(
                f"unknown label id: {label!r} in constraint "
                f"{_describe_raw_constraint(raw_labels)} is not an integer"
            )
        value = int(label)
        if not 0 <= value < graph.num_labels:
            raise QueryError(
                f"unknown label id: {label!r} in constraint "
                f"{_describe_raw_constraint(raw_labels)}; the graph has "
                f"{graph.num_labels} labels (valid ids 0.."
                f"{graph.num_labels - 1})"
            )
        normalized.append(value)
    label_tuple = tuple(normalized)
    if not is_primitive(label_tuple):
        raise NonPrimitiveConstraintError(
            f"constraint {format_constraint(label_tuple)} is not a minimum repeat; "
            "RLC queries require L = MR(L)"
        )
    if k is not None and len(label_tuple) > k:
        raise CapabilityError(
            f"constraint {format_constraint(label_tuple)} has "
            f"{len(label_tuple)} labels but the index was built with "
            f"recursive k={k}"
        )
    return label_tuple


def validate_rlc_query(
    graph: EdgeLabeledDigraph,
    source: int,
    target: int,
    labels: Sequence[int],
    *,
    k: Optional[int] = None,
) -> Tuple[int, ...]:
    """Validate an RLC query, returning the label tuple.

    Raises:
        QueryError: unknown vertices, empty constraint, unknown labels.
        NonPrimitiveConstraintError: ``L != MR(L)`` (out of scope per
            Section III-B — it adds an even-path-style length constraint).
        CapabilityError: ``|L| > k`` for the supplied index bound.
    """
    if not graph.has_vertex(source):
        raise QueryError(f"unknown source vertex: {source}")
    if not graph.has_vertex(target):
        raise QueryError(f"unknown target vertex: {target}")
    return validate_constraint_labels(graph, labels, k=k)


def group_queries_by_constraint(
    graph: EdgeLabeledDigraph,
    queries: Sequence[RlcQuery],
    *,
    k: Optional[int] = None,
) -> List[Tuple[Tuple[int, ...], List[int]]]:
    """Group query positions by distinct constraint, validating once each.

    The common scaffold of the grouped batched paths (the traversal
    baselines and ETC): per distinct constraint the
    full :func:`validate_rlc_query` runs once — through the group's
    first query — and the remaining queries only pay endpoint checks,
    so a malformed batch raises exactly the errors its point queries
    would.  Returns ``(validated label tuple, positions)`` pairs; the
    positions of all pairs partition ``range(len(queries))``.
    """
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for position, query in enumerate(queries):
        groups.setdefault(tuple(query.labels), []).append(position)
    validated: List[Tuple[Tuple[int, ...], List[int]]] = []
    for labels, positions in groups.items():
        first = queries[positions[0]]
        label_tuple = validate_rlc_query(graph, first.source, first.target, labels, k=k)
        for position in positions[1:]:
            query = queries[position]
            if not graph.has_vertex(query.source):
                raise QueryError(f"unknown source vertex: {query.source}")
            if not graph.has_vertex(query.target):
                raise QueryError(f"unknown target vertex: {query.target}")
        validated.append((label_tuple, positions))
    return validated
