"""Every third-party import in the repo is a declared CI dependency.

CI installs ``requirements-ci.txt`` and nothing else, so a module that
imports an undeclared package (even one a developer happens to have
installed) breaks collection on a clean install.  This walks every
``.py`` under ``src/``, ``tests/``, ``benchmarks/`` and ``tools/`` and
checks the top-level package of each absolute import.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "tools")


def _declared_packages() -> set:
    """Import names of the distributions in ``requirements-ci.txt``."""
    names = set()
    for line in (REPO_ROOT / "requirements-ci.txt").read_text().splitlines():
        requirement = line.split("#", 1)[0].strip()
        if requirement:
            distribution = re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0]
            names.add(distribution.lower().replace("-", "_"))
    return names


def _repo_local_modules() -> set:
    """``repro``, ``tests``, ``benchmarks`` and the scripts' own modules."""
    local = {"repro", "tests", "benchmarks"}
    for directory in ("tools", "benchmarks"):
        local.update(path.stem for path in (REPO_ROOT / directory).glob("*.py"))
    return local


def undeclared_imports() -> list:
    """``(path, top-level package)`` for every import nothing declares."""
    allowed = set(sys.stdlib_module_names)
    allowed |= _repo_local_modules() | _declared_packages()
    offenders = []
    for directory in SCANNED:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.split(".", 1)[0]
                    if top not in allowed:
                        offenders.append((str(path.relative_to(REPO_ROOT)), top))
    return offenders


def test_every_import_is_declared():
    assert undeclared_imports() == []
