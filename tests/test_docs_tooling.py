"""The docs toolchain: docstring guard and offline link checker.

These are the scripts CI's ``docs-check`` job runs; testing them in
tier-1 means a missing docstring or a rotted markdown link fails the
ordinary test run too, not just the dedicated job.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_links  # noqa: E402
import gen_api_docs  # noqa: E402


class TestDocstringGuard:
    def test_guarded_modules_are_fully_documented(self):
        assert gen_api_docs.missing_docstrings() == []

    def test_guard_reports_undocumented_symbols(self):
        # Synthesize a module with undocumented public surface to prove
        # the guard actually fires (rather than vacuously passing).
        import types

        module = types.ModuleType("repro._guard_probe")

        def naked():
            pass

        naked.__module__ = module.__name__

        class Naked:
            def method(self):
                pass

        Naked.__module__ = module.__name__
        Naked.method.__module__ = module.__name__
        module.naked = naked
        module.Naked = Naked
        sys.modules[module.__name__] = module
        try:
            missing = gen_api_docs.missing_docstrings([module.__name__])
        finally:
            del sys.modules[module.__name__]
        assert "repro._guard_probe" in missing  # module docstring
        assert "repro._guard_probe.naked" in missing
        assert "repro._guard_probe.Naked" in missing
        assert "repro._guard_probe.Naked.method" in missing


class TestLinkChecker:
    def test_repo_docs_have_no_broken_links(self):
        targets = check_links.expand(
            [str(REPO_ROOT / "README.md"), str(REPO_ROOT / "docs")]
        )
        problems = []
        for path in targets:
            problems.extend(check_links.check_file(path))
        assert problems == []

    def test_broken_relative_link_is_flagged(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [gone](missing.md) and [ok](other.md)\n")
        (tmp_path / "other.md").write_text("# Other\n")
        problems = check_links.check_file(page)
        assert len(problems) == 1 and "missing.md" in problems[0]

    def test_missing_anchor_is_flagged(self, tmp_path):
        target = tmp_path / "target.md"
        target.write_text("# Real Heading\n\n## Spec grammar\n")
        page = tmp_path / "page.md"
        page.write_text(
            "[good](target.md#spec-grammar) [bad](target.md#no-such)\n"
        )
        problems = check_links.check_file(page)
        assert len(problems) == 1 and "#no-such" in problems[0]

    def test_code_fences_are_ignored(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```\n[not a link](nowhere.md)\n```\n")
        assert check_links.check_file(page) == []

    def test_github_slugs(self):
        assert check_links.github_slug("Spec grammar") == "spec-grammar"
        assert check_links.github_slug("`query-batch` — grouped") == (
            "query-batch--grouped"
        )
        assert check_links.github_slug("What it costs, what it buys") == (
            "what-it-costs-what-it-buys"
        )
