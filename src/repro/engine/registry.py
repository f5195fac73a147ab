"""String-keyed registry of reachability engines, with parameterized specs.

Replaces the hand-rolled per-engine dispatch that used to live in
``cli.py`` and the experiment drivers: callers name an engine
(``"rlc-index"``, ``"bibfs"``, ``"sys2"`` ...) and get a prepared
:class:`~repro.engine.base.ReachabilityEngine` back::

    from repro.engine import create_engine

    engine = create_engine("rlc-index", graph, k=2)
    engine.query(RlcQuery(0, 5, (1, 0)))

Beyond bare names, the registry parses **engine specs**::

    spec    := name ["?" params]
    params  := key "=" value ("&" key "=" value)*

- ``name`` is a registry key or alias (``rlc`` aliases ``rlc-index``);
- ``?key=value`` pairs become constructor options with values coerced
  to int/float/bool where they parse as one.

So ``create_engine("rlc?k=3", graph)`` builds an RLC index with
``k=3``.

All engines shipped with the library register themselves when
:mod:`repro.engine.adapters` is imported (which the package
``__init__`` always does); external code can add its own with
:func:`register`.
"""

from __future__ import annotations

import inspect
from typing import Dict, FrozenSet, List, Tuple, Type

from repro.errors import EngineError, EngineOptionError
from repro.graph.digraph import EdgeLabeledDigraph
from repro.engine.base import EngineBase

__all__ = [
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

_REGISTRY: Dict[str, Type[EngineBase]] = {}
_ALIASES: Dict[str, str] = {}


def register(cls: Type[EngineBase]) -> Type[EngineBase]:
    """Class decorator adding an engine under its ``name`` key."""
    key = cls.name.lower()
    if key in _ALIASES:
        raise EngineError(f"engine name {key!r} is already an alias")
    if key in _REGISTRY and _REGISTRY[key] is not cls:
        raise EngineError(f"engine name {key!r} is already registered")
    _REGISTRY[key] = cls
    return cls


def register_alias(alias: str, name: str) -> None:
    """Register ``alias`` as an alternate key for engine ``name``.

    Aliases resolve everywhere a name does (specs included) but are not
    listed by :func:`engine_names` / :func:`available_engines`.
    """
    key = alias.lower()
    target = name.lower()
    if target not in _REGISTRY:
        raise EngineError(f"cannot alias unknown engine {name!r}")
    if key in _REGISTRY:
        raise EngineError(f"alias {alias!r} shadows a registered engine")
    existing = _ALIASES.get(key)
    if existing is not None and existing != target:
        raise EngineError(f"alias {alias!r} is already bound to {existing!r}")
    _ALIASES[key] = target


def _coerce(value: str):
    """Parse a spec parameter value: int, float, bool, else string."""
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            continue
    return value


def parse_engine_spec(spec: str) -> Tuple[str, Dict[str, object]]:
    """Split an engine spec into ``(base_name, options)``.

    Grammar (module docstring): ``name[?key=value[&...]]``.
    """
    text = spec.strip()
    options: Dict[str, object] = {}
    if "?" in text:
        text, _, params = text.partition("?")
        for pair in params.split("&"):
            if not pair:
                continue
            key, separator, value = pair.partition("=")
            if not separator or not key:
                raise EngineError(
                    f"malformed engine spec parameter {pair!r} in {spec!r} "
                    "(expected key=value)"
                )
            options[key.strip()] = _coerce(value.strip())
    name = text.strip().lower()
    if not name:
        raise EngineError(f"engine spec {spec!r} has an empty engine name")
    return name, options


def get_engine_class(name: str) -> Type[EngineBase]:
    """Resolve a registry key, alias, or spec to its engine class."""
    key, _ = parse_engine_spec(name)
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise EngineError(f"unknown engine {name!r}; known engines: {known}") from None


def resolve_engine_spec(
    spec: str, **options
) -> Tuple[Type[EngineBase], Dict[str, object]]:
    """Resolve a spec to ``(engine class, merged constructor options)``.

    Spec parameters win over the keyword ``options`` (the spec is the
    more explicit request); the merged dict is what
    :func:`create_engine` passes to the constructor.
    """
    _, spec_options = parse_engine_spec(spec)
    cls = get_engine_class(spec)
    merged = dict(options)
    merged.update(spec_options)
    return cls, merged


def spec_parameter_names(spec: str) -> set:
    """Keyword parameters the constructor of a spec's engine accepts."""
    parameters = inspect.signature(get_engine_class(spec).__init__).parameters
    return {
        name
        for name, parameter in parameters.items()
        if name != "self"
        and parameter.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }


def filter_engine_options(spec: str, offered: Dict) -> Dict:
    """Drop offered options the spec's engine constructor does not accept.

    Lets callers (the CLI) offer one option set to every spec: ``None``
    values and keywords the constructor does not name are discarded, so
    ``k`` reaches ``rlc`` but is dropped for ``bfs``.  This filtering is
    for *generic* offers only — options passed explicitly (in a spec or
    as keyword arguments) are forwarded verbatim and raise ``TypeError``
    when misspelled.
    """
    accepted = spec_parameter_names(spec)
    return {
        key: value
        for key, value in offered.items()
        if value is not None and key in accepted
    }


def instantiate_engine(spec: str, **options) -> EngineBase:
    """Construct (without preparing) the engine a spec names.

    A constructor keyword the engine does not accept raises
    :class:`~repro.errors.EngineOptionError` — still a ``TypeError``,
    but the message names the offending spec string instead of a bare
    ``__init__`` signature complaint, so a bad spec is identifiable in a
    service log without a traceback.
    """
    cls, merged = resolve_engine_spec(spec, **options)
    try:
        return cls(**merged)
    except TypeError as exc:
        raise EngineOptionError(
            f"engine spec {spec!r} with options "
            f"{sorted(merged)} does not fit {cls.__name__}: {exc}"
        ) from exc


def create_engine(name: str, graph: EdgeLabeledDigraph, **options) -> EngineBase:
    """Construct and prepare the engine named by a key, alias, or spec.

    ``options`` are forwarded to the engine's constructor (e.g. ``k``
    for the RLC index and ETC, ``time_budget`` for ETC); an option the
    engine does not accept raises
    :class:`~repro.errors.EngineOptionError` (a ``TypeError`` subclass
    that names the spec).  Spec parameters (``"rlc?k=3"``) override
    ``options``.
    """
    engine = instantiate_engine(name, **options)
    engine.prepare(graph)
    return engine


def engine_names() -> Tuple[str, ...]:
    """All registered engine keys, sorted (aliases excluded)."""
    return tuple(sorted(_REGISTRY))


def engine_capabilities(name: str) -> FrozenSet[str]:
    """The capability flags the named engine class advertises.

    Accepts a key, alias, or spec.
    """
    return frozenset(get_engine_class(name).capabilities)


def engines_with_capabilities(*capabilities: str) -> Tuple[str, ...]:
    """Registry keys of the engines advertising every given capability.

    The feature-based selection path: callers ask for what they need
    (``engines_with_capabilities("witness", "batch-grouped")``) instead
    of hard-coding names, so adding an engine never adds a branch.
    Unknown capability tokens raise ``EngineError`` rather than
    silently matching nothing.
    """
    from repro.engine.base import KNOWN_CAPABILITIES

    wanted = frozenset(capabilities)
    unknown = wanted - KNOWN_CAPABILITIES
    if unknown:
        raise EngineError(
            f"unknown capabilities: {', '.join(sorted(unknown))}; known "
            f"capabilities: {', '.join(sorted(KNOWN_CAPABILITIES))}"
        )
    return tuple(
        key
        for key in engine_names()
        if wanted <= frozenset(_REGISTRY[key].capabilities)
    )


def available_engines() -> List[Tuple[str, str, str]]:
    """``(key, display name, one-line description)`` rows for docs/CLI."""
    rows = []
    for key in engine_names():
        cls = _REGISTRY[key]
        doc = (cls.__doc__ or "").strip().splitlines()
        rows.append((key, cls.display_name, doc[0] if doc else ""))
    return rows
