"""The top-level package exposes its facade only, with no import shims.

The engine layer is imported from :mod:`repro.engine`; ``repro`` itself
no longer resolves engine-layer names through a deprecation hook.
"""

from __future__ import annotations

import warnings

import pytest

import repro


RETIRED = (
    "EngineStats",
    "QueryService",
    "ReachabilityEngine",
    "ServiceReport",
    "available_engines",
    "create_engine",
    "engine_names",
)


class TestShimsWarn:
    def test_canonical_engine_imports_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.engine import QueryService, create_engine  # noqa: F401

    def test_facade_imports_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro import Session, open_session  # noqa: F401

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        for name in RETIRED:
            assert name not in dir(repro)
            with pytest.raises(AttributeError, match=name):
                getattr(repro, name)

    def test_all_names_resolve(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in repro.__all__:
                assert getattr(repro, name) is not None, name
