"""Generate docs/API.md from the package docstrings.

Walks the :mod:`repro` package, collecting module, class and function
docstrings into a single markdown reference.  Run from the repository
root::

    python tools/gen_api_docs.py            # regenerate docs/API.md
    python tools/gen_api_docs.py --check    # CI: fail if stale, write nothing

The committed ``docs/API.md`` is the output of this script; regenerate
it after changing public signatures or docstrings.

Two guards make the script a CI gate (the ``docs-check`` job):

- the public facade packages must never drop out of the reference
  silently (e.g. a skipped package or a swallowed import error);
- every public symbol — and every public method/property of a public
  class — in the *documentation-guarded* module (the engine contract
  every answerer implements) must carry a docstring, or the script
  exits non-zero listing the offenders.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import sys

import repro

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"

SKIP_MODULES = {"repro.__main__"}

# Modules whose public surface must be fully docstring-covered; missing
# docstrings fail CI rather than silently producing empty doc entries.
DOCSTRING_GUARDED = ("repro.engine.base",)


def first_paragraph(doc: str) -> str:
    lines = []
    for line in (doc or "").strip().splitlines():
        if not line.strip() and lines:
            break
        if line.strip():
            lines.append(line.strip())
    return " ".join(lines)


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        yield importlib.import_module(info.name)


def public_members(module):
    for name in sorted(vars(module)):
        if name.startswith("_"):
            continue
        obj = vars(module)[name]
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", None) == module.__name__:
                yield name, obj


def iter_class_members(cls):
    """Yield ``(name, member)`` for a class's public methods/properties."""
    for method_name in sorted(vars(cls)):
        if method_name.startswith("_"):
            continue
        member = inspect.getattr_static(cls, method_name)
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if inspect.isfunction(member) or isinstance(member, property):
            yield method_name, member


def missing_docstrings(module_names=DOCSTRING_GUARDED):
    """Public symbols in the guarded modules with no docstring."""
    missing = []
    for module_name in module_names:
        module = importlib.import_module(module_name)
        if not (module.__doc__ or "").strip():
            missing.append(module_name)
        for name, obj in public_members(module):
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module_name}.{name}")
            if inspect.isclass(obj):
                for member_name, member in iter_class_members(obj):
                    doc = (
                        member.fget.__doc__
                        if isinstance(member, property) and member.fget
                        else member.__doc__
                    )
                    if not (doc or "").strip():
                        missing.append(f"{module_name}.{name}.{member_name}")
    return missing


def render_signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def render_class(name, cls) -> str:
    parts = [f"### class `{name}`\n"]
    summary = first_paragraph(cls.__doc__ or "")
    if summary:
        parts.append(summary + "\n")
    methods = []
    for method_name, member in iter_class_members(cls):
        if inspect.isfunction(member):
            doc = first_paragraph(member.__doc__ or "")
            methods.append(
                f"- `{method_name}{render_signature(member)}` — {doc}"
                if doc
                else f"- `{method_name}{render_signature(member)}`"
            )
        elif isinstance(member, property):
            doc = first_paragraph(member.fget.__doc__ or "") if member.fget else ""
            methods.append(f"- `{method_name}` (property) — {doc}".rstrip(" —"))
    if methods:
        parts.append("\n".join(methods) + "\n")
    return "\n".join(parts)


def render_function(name, fn) -> str:
    doc = first_paragraph(fn.__doc__ or "")
    text = f"### `{name}{render_signature(fn)}`\n"
    if doc:
        text += "\n" + doc + "\n"
    return text


def generate() -> str:
    """Render the full reference, running both content guards."""
    sections = [
        "# repro API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "",
        "Prose companion: [ARCHITECTURE.md](ARCHITECTURE.md) (layer map and",
        "query lifecycle).",
        "",
    ]
    for module in iter_modules():
        members = list(public_members(module))
        summary = first_paragraph(module.__doc__ or "")
        if not members and not summary:
            continue
        sections.append(f"## module `{module.__name__}`")
        sections.append("")
        if summary:
            sections.append(summary)
            sections.append("")
        for name, obj in members:
            if inspect.isclass(obj):
                sections.append(render_class(name, obj))
            else:
                sections.append(render_function(name, obj))
    text = "\n".join(sections) + "\n"
    # The public facade must never drop out of the reference silently
    # (e.g. a skipped package or an import error swallowed upstream).
    for required in ("repro.api", "repro.engine", "repro.core"):
        if f"## module `{required}`" not in text:
            raise SystemExit(f"API docs lost required package {required!r}")
    undocumented = missing_docstrings()
    if undocumented:
        listing = "\n".join(f"  - {symbol}" for symbol in undocumented)
        raise SystemExit(
            "public symbols missing docstrings in documentation-guarded "
            f"modules:\n{listing}"
        )
    return text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/API.md is up to date without writing it",
    )
    args = parser.parse_args()
    text = generate()
    if args.check:
        committed = OUT_PATH.read_text(encoding="utf-8") if OUT_PATH.exists() else ""
        if committed != text:
            raise SystemExit(
                "docs/API.md is stale; regenerate it with "
                "`python tools/gen_api_docs.py`"
            )
        print(f"{OUT_PATH} is up to date ({len(text)} chars)")
        return
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {OUT_PATH} ({OUT_PATH.stat().st_size} bytes)")


if __name__ == "__main__":
    sys.exit(main())
