"""The RLC query model shared by the index, the baselines and workloads.

Definition 1 of the paper: an RLC query is a triple ``(s, t, L+)`` over
an edge-labeled digraph where ``L`` is a *primitive* label sequence
(``L = MR(L)``) of length at most the recursive bound ``k``; the answer
is true iff some path from ``s`` to ``t`` has label sequence ``L^z``
for some ``z >= 1``.

:class:`RlcQuery` is the value object used across the library.  This
module is the one owner of the query rules; every index, traversal,
engine and service calls it rather than re-deriving them:

- :func:`validate_constraint_labels` — a constraint's labels (integer
  ids of the label universe, non-empty, primitive, ``|L| <= k``);
- :func:`checked_vertex` — one endpoint (an integer vertex of the graph);
- :func:`validate_rlc_query` — both, for a whole query;
- :func:`plain_labels` — whether a memo keyed on a label tuple may
  reuse an earlier validation for a new spelling of it.

:class:`QueryOutcome` is the structured answer of one query, built by
:meth:`repro.engine.QueryService.query_outcome`.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import CapabilityError, NonPrimitiveConstraintError, QueryError
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.minimum_repeat import is_primitive
from repro.labels.sequences import format_constraint

__all__ = [
    "QueryOutcome",
    "RlcQuery",
    "checked_vertex",
    "plain_labels",
    "validate_build_options",
    "validate_constraint_labels",
    "validate_rlc_query",
    "vertex_id",
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


#: A witness path in the paper's split form: ``(vertices, labels)``
#: with ``len(vertices) == len(labels) + 1``.
WitnessPath = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(slots=True)
class QueryOutcome:
    """The structured result of one query.

    The boolean ``answer`` plus provenance: which engine produced it,
    whether a :class:`~repro.engine.QueryService` answered it from its
    result cache (``cached``), the service's wall time for the lookup
    and any evaluation (``seconds``), and the witness path a
    :class:`~repro.api.Session` attaches when asked.
    Outcomes are truthy exactly when the answer is.  Each is built for
    one caller, so it is a slotted record, neither frozen nor hashable.
    """

    answer: bool
    source: int
    target: int
    labels: Tuple[int, ...]
    engine: str
    cached: bool = False
    witness: Optional[WitnessPath] = None
    seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.answer

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (what the replay server's ``/query`` returns)."""
        payload: Dict[str, object] = {
            "answer": self.answer,
            "source": self.source,
            "target": self.target,
            "labels": list(self.labels),
            "engine": self.engine,
            "cached": self.cached,
            "seconds": self.seconds,
        }
        if self.witness is not None:
            vertices, labels = self.witness
            payload["witness"] = {
                "vertices": list(vertices),
                "labels": list(labels),
            }
        return payload


def _describe_raw_constraint(raw_labels: Tuple) -> str:
    """Best-effort rendering of a possibly-malformed constraint."""
    return "(" + ", ".join(repr(label) for label in raw_labels) + ")+"


def vertex_id(vertex, role: str) -> int:
    """A query endpoint as a plain ``int``; ``role`` names it in errors.

    The label rule of :func:`validate_constraint_labels` applied to
    vertex ids: integral types (``np.int64``) become ``int``; bools and
    non-integral values (``2.5``, ``"2"``) raise :class:`QueryError`.
    """
    if type(vertex) is int:
        return vertex
    if isinstance(vertex, bool) or not isinstance(vertex, numbers.Integral):
        raise QueryError(f"unknown {role} vertex: {vertex!r} is not an integer")
    return int(vertex)


def checked_vertex(graph, vertex, role: str) -> int:
    """An endpoint as a plain ``int`` vertex of ``graph``; ``role`` names it.

    Runs :func:`vertex_id`, then ``graph.has_vertex`` (a graph or an
    :class:`~repro.core.index.RlcIndex`); a vertex outside it raises
    :class:`QueryError`.
    """
    if type(vertex) is not int:
        vertex = vertex_id(vertex, role)
    if not graph.has_vertex(vertex):
        raise QueryError(f"unknown {role} vertex: {vertex}")
    return vertex


def plain_labels(labels: Sequence) -> bool:
    """Whether every label is a plain ``int``: the memo rule.

    ``1.0``, ``True`` and ``np.int64(1)`` hash and compare equal to
    ``1``, so a memo keyed on label tuples would hand a validation of
    ``(1, 0)`` to ``(1.0, 0)``, which the rules reject.  A memo hit
    counts only when this holds; other spellings are validated afresh.
    """
    for label in labels:
        if type(label) is not int:
            return False
    return True


def validate_constraint_labels(
    num_labels: int,
    labels: Sequence[int],
    *,
    k: Optional[int] = None,
) -> Tuple[int, ...]:
    """Validate a constraint's labels alone, returning the label tuple.

    The constraint half of :func:`validate_rlc_query`: everything that
    depends only on the label sequence and the size ``num_labels`` of
    the label universe (valid ids ``0..num_labels - 1``), nothing on
    the endpoints.  Building a
    :class:`~repro.engine.PreparedQuery` pays this **once** per
    constraint; error messages name the offending label and the
    constraint so a malformed workload entry is identifiable from the
    message alone.

    Raises:
        QueryError: empty constraint, unknown or non-integer labels.
        NonPrimitiveConstraintError: ``L != MR(L)`` (out of scope per
            Section III-B — it adds an even-path-style length constraint).
        CapabilityError: ``|L| > k`` for the supplied index bound.
    """
    raw_labels = tuple(labels)
    if not raw_labels:
        raise QueryError("RLC constraint must contain at least one label")
    for label in raw_labels:
        # Accept any integral type (numpy-loaded workloads carry
        # np.int64 labels) but reject bools, which are Integral too.
        if type(label) is not int and (
            isinstance(label, bool) or not isinstance(label, numbers.Integral)
        ):
            raise QueryError(
                f"unknown label id: {label!r} in constraint "
                f"{_describe_raw_constraint(raw_labels)} is not an integer"
            )
        if not 0 <= label < num_labels:
            raise QueryError(
                f"unknown label id: {label!r} in constraint "
                f"{_describe_raw_constraint(raw_labels)}; the graph has "
                f"{num_labels} labels (valid ids 0..{num_labels - 1})"
            )
    label_tuple = tuple(map(int, raw_labels))
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

    :func:`checked_vertex` on both endpoints, then
    :func:`validate_constraint_labels` against ``graph.num_labels``.

    Raises:
        QueryError: unknown or non-integer vertices, empty constraint,
            unknown labels.
        NonPrimitiveConstraintError: ``L != MR(L)`` (out of scope per
            Section III-B — it adds an even-path-style length constraint).
        CapabilityError: ``|L| > k`` for the supplied index bound.
    """
    checked_vertex(graph, source, "source")
    checked_vertex(graph, target, "target")
    return validate_constraint_labels(graph.num_labels, labels, k=k)


def _is_integer(value) -> bool:
    """Whether ``operator.index`` takes ``value`` (``np.int64`` yes, bool no)."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def validate_build_options(
    k, *, time_budget=None, max_entries=None, seed=None, **toggles
) -> None:
    """Reject an index build's ``k``, budgets, seed and toggles of the wrong type.

    Engine-spec values arrive from text (``"rlc?k=x"``), so a wrong type
    must fail here as a :class:`QueryError`, not as a ``TypeError``
    inside the build or as a silently different build.  ``k`` is an
    integer >= 1, ``time_budget`` a real number of seconds >= 0 (not
    NaN) or ``None``, ``max_entries`` an integer >= 0 or ``None`` and
    ``seed`` an integer or ``None``; bools are refused for all four.  A
    negative budget would only let the build run one step and then fail
    as "exceeded".  Each of
    ``toggles`` (``use_pr1`` ...) is a bool or the integer 0 or 1.
    """
    if not _is_integer(k) or k < 1:
        raise QueryError(f"recursive k must be an integer >= 1, got {k!r}")
    if time_budget is not None and (
        isinstance(time_budget, bool)
        or not isinstance(time_budget, numbers.Real)
        or time_budget != time_budget
        or time_budget < 0
    ):
        raise QueryError(
            f"time_budget must be a number of seconds >= 0 or None, got {time_budget!r}"
        )
    for name, value in toggles.items():
        if not isinstance(value, int) or value not in (0, 1):
            raise QueryError(f"{name} must be a bool (or 0/1), got {value!r}")
    if max_entries is not None and (not _is_integer(max_entries) or max_entries < 0):
        raise QueryError(
            f"max_entries must be an integer >= 0 or None, got {max_entries!r}"
        )
    if seed is not None and not _is_integer(seed):
        raise QueryError(f"seed must be an integer or None, got {seed!r}")
