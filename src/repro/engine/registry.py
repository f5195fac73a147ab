"""String-keyed registry of reachability engines, with parameterized specs.

Replaces the hand-rolled per-engine dispatch that used to live in
``cli.py`` and the experiment drivers: callers name an engine
(``"rlc-index"``, ``"bibfs"``, ``"sys2"`` ...) and get a prepared
:class:`~repro.engine.base.EngineBase` back::

    from repro.engine import create_engine

    engine = create_engine("rlc-index", graph, k=2)
    engine.query_prepared((1, 0), 0, 5)   # -> bool

Beyond bare names, the registry parses **engine specs**::

    spec    := name ["?" params]
    params  := key "=" value ("&" key "=" value)*

- ``name`` is a registry key or alias (``rlc`` aliases ``rlc-index``);
- ``?key=value`` pairs become constructor options with values coerced
  to int/float/bool where they parse as one.

So ``create_engine("rlc?k=3", graph)`` builds an RLC index with
``k=3``.

The registry is a fixed table of the eight engines in
:mod:`repro.engine.adapters` plus the one alias ``rlc``.  An engine
configuration is named by a spec, not registered: ``"rlc?k=3"`` rather
than a new key.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Tuple, Type

from repro.engine import adapters
from repro.engine.base import EngineBase
from repro.errors import EngineError, EngineOptionError
from repro.graph.digraph import EdgeLabeledDigraph

__all__ = [
    "available_engines",
    "create_engine",
    "engine_names",
    "filter_engine_options",
    "get_engine_class",
    "parse_engine_spec",
    "resolve_engine_spec",
]

_REGISTRY: Dict[str, Type[EngineBase]] = {
    cls.name: cls
    for cls in (
        adapters.BfsEngine,
        adapters.BiBfsEngine,
        adapters.DfsEngine,
        adapters.EtcEngine,
        adapters.RlcIndexEngine,
        adapters.Sys1Engine,
        adapters.Sys2Engine,
        adapters.VirtuosoSimEngine,
    )
}
#: Alternate keys; they resolve everywhere a name does (specs included)
#: but are not listed by :func:`engine_names` / :func:`available_engines`.
_ALIASES: Dict[str, str] = {"rlc": "rlc-index"}


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
        known = ", ".join(sorted(_REGISTRY))
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


def filter_engine_options(spec: str, offered: Dict) -> Dict:
    """Drop offered options the spec's engine constructor does not accept.

    Lets callers (the CLI) offer one option set to every spec: ``None``
    values and keywords the constructor does not name are discarded, so
    ``k`` reaches ``rlc`` but is dropped for ``bfs``.  This filtering is
    for *generic* offers only — options passed explicitly (in a spec or
    as keyword arguments) are forwarded verbatim and raise ``TypeError``
    when misspelled.
    """
    parameters = inspect.signature(get_engine_class(spec).__init__).parameters
    keyword_kinds = (
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
        inspect.Parameter.KEYWORD_ONLY,
    )
    return {
        key: value
        for key, value in offered.items()
        if value is not None
        and key != "self"
        and key in parameters
        and parameters[key].kind in keyword_kinds
    }


def create_engine(name: str, graph: EdgeLabeledDigraph, **options) -> EngineBase:
    """Construct and prepare the engine named by a key, alias, or spec.

    ``options`` are forwarded to the engine's constructor (e.g. ``k``
    for the RLC index and ETC, ``time_budget`` for ETC); an option the
    engine does not accept raises
    :class:`~repro.errors.EngineOptionError` (a ``TypeError`` subclass)
    whose message names the spec string rather than a bare ``__init__``
    signature, so a bad spec is identifiable in a service log without a
    traceback.  Spec parameters (``"rlc?k=3"``) override ``options``.
    """
    cls, merged = resolve_engine_spec(name, **options)
    try:
        engine = cls(**merged)
    except TypeError as exc:
        raise EngineOptionError(
            f"engine spec {name!r} with options "
            f"{sorted(merged)} does not fit {cls.__name__}: {exc}"
        ) from exc
    engine.prepare(graph)
    return engine


def engine_names() -> Tuple[str, ...]:
    """All registered engine keys, sorted (aliases excluded)."""
    return tuple(sorted(_REGISTRY))


def available_engines() -> List[Tuple[str, str, str]]:
    """``(key, display name, one-line description)`` rows for docs/CLI."""
    rows = []
    for key in engine_names():
        cls = _REGISTRY[key]
        doc = (cls.__doc__ or "").strip().splitlines()
        rows.append((key, cls.display_name, doc[0] if doc else ""))
    return rows
