"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  More specific subclasses signal
distinct failure modes (malformed graphs, invalid queries, index
capability violations, serialization problems).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed graph inputs (bad vertex ids, labels, edges)."""


class QueryError(ReproError):
    """Raised for malformed queries (bad vertices, empty constraints)."""


class NonPrimitiveConstraintError(QueryError):
    """Raised when an RLC constraint ``L+`` has ``L != MR(L)``.

    The paper (Section III-B) restricts RLC queries to primitive label
    sequences: constraints such as ``(knows, knows)+`` would additionally
    constrain path length, which is the NP-complete even-path problem and
    out of scope.  Use :func:`repro.labels.minimum_repeat` to normalize a
    sequence before querying, when that is semantically acceptable.
    """


class CapabilityError(QueryError):
    """Raised when a query exceeds what an index was built for.

    The RLC index built with recursive bound ``k`` answers constraints
    with ``|L| <= k`` only (Definition 1 in the paper).
    """


class EngineError(ReproError):
    """Raised for engine-layer misuse (unknown registry names, duplicate
    registrations, querying an engine before :meth:`prepare`)."""


class EngineOptionError(EngineError, TypeError):
    """Raised when an engine spec's options don't fit its constructor.

    Subclasses :class:`TypeError` because that is what a misspelled
    keyword raises on a direct constructor call — ``except TypeError``
    sites keep working — while the message names the offending **spec
    string** (``bibfs?bogus=1`` rather than a bare ``__init__()
    got an unexpected keyword argument``), so a bad spec is
    identifiable in a service log without a traceback.
    """


class SerializationError(ReproError):
    """Raised when loading a persisted graph or index fails."""


class BudgetExceededError(ReproError):
    """Raised when a build exceeds a user-supplied time or entry budget.

    Used by the benchmark harness to emulate the paper's 24-hour/OOM
    cut-offs (the ``-`` cells of Table IV) at reproduction scale.
    """
