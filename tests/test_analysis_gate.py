"""Source rules and diagnostics vocabulary: seeded violations are caught by
the source rules of ``tests/test_architecture.py``, and the analyzers' rule
catalog matches the docs.

When ruff/mypy are installed (as in the CI ``lint`` job) the full external
gate runs too; otherwise those tests skip.
"""

import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, Diagnostic, DiagnosticReport
from repro.analysis.diagnostics import SEVERITIES
from tests.test_architecture import RULES as SOURCE_RULES
from tests.test_architecture import (
    ROOT,
    SRC,
    Source,
    _mutable_defaults,
    _strict_packages,
    _unannotated,
    _unused_imports,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


#: The source rules' checks over ``src/repro``, to be re-rooted at a seeded tree.
CHECKS = [
    check for rule in SOURCE_RULES for check in rule.checks
    if isinstance(check, Source) and check.root == SRC
]


class TestRepoIsClean:
    """The repo itself under the same checks, with the scopes they have
    always had."""

    def test_strict_packages_pass_the_gate(self):
        finds = (_unused_imports, _unannotated, _mutable_defaults)
        problems = [p for f in finds for p in Source(_strict_packages(), f).problems()]
        assert problems == [], "\n".join(problems)

    def test_whole_tree_has_no_unused_imports(self):
        problems = Source(("",), _unused_imports).problems()
        assert problems == [], "\n".join(problems)

    def test_tests_and_benchmarks_have_no_unused_imports(self):
        problems = Source(("tests", "benchmarks"), _unused_imports, root=ROOT).problems()
        assert problems == [], "\n".join(problems)


class TestSeededViolations:
    """The source rules of ``tests/test_architecture.py`` on a seeded tree."""

    def problems(self, tmp_path, body, rel="core/bad.py"):
        for check in CHECKS:
            for package in check.paths:
                (tmp_path / package).mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(textwrap.dedent(body))
        return [p for check in CHECKS for p in check._replace(root=tmp_path).problems()]

    def test_unused_import_fires_gate201(self, tmp_path):
        problems = self.problems(tmp_path, '"""doc."""\nimport os\n\nX = 1\n')
        assert problems == ["core/bad.py:2: import 'os' is never used"]

    def test_dunder_all_counts_as_use(self, tmp_path):
        body = '"""doc."""\nfrom os import sep\n\n__all__ = ["sep"]\n'
        assert self.problems(tmp_path, body) == []

    def test_reexport_idiom_is_exempt(self, tmp_path):
        assert self.problems(tmp_path, '"""doc."""\nfrom os import sep as sep\n') == []

    def test_future_and_star_imports_are_exempt(self, tmp_path):
        body = '"""doc."""\nfrom __future__ import annotations\n\nfrom os import *\n'
        assert self.problems(tmp_path, body) == []

    def test_missing_annotations_fire_gate202_in_strict_packages(self, tmp_path):
        body = '"""doc."""\ndef f(x):\n    return x\n'
        problems = self.problems(tmp_path, body)
        assert len(problems) == 2, problems  # parameter and return

    def test_annotations_not_required_outside_strict_packages(self, tmp_path):
        body = '"""doc."""\ndef f(x):\n    return x\n'
        assert self.problems(tmp_path, body, "viz/loose.py") == []

    def test_self_and_cls_are_exempt(self, tmp_path):
        body = '"""doc."""\nclass C:\n    def m(self) -> int:\n        return 1\n'
        assert self.problems(tmp_path, body) == []

    def test_mutable_default_fires_gate203(self, tmp_path):
        body = '"""doc."""\ndef f(x: list = []) -> list:\n    return x\n'
        assert self.problems(tmp_path, body) == ["core/bad.py:2: 'f' has a mutable default value"]

    def test_mutable_default_call_fires_gate203(self, tmp_path):
        body = '"""doc."""\ndef f(x: dict = dict()) -> dict:\n    return x\n'
        assert self.problems(tmp_path, body) == ["core/bad.py:2: 'f' has a mutable default value"]

    def test_clean_strict_file_yields_nothing(self, tmp_path):
        body = '"""doc."""\nimport os\n\n\ndef f(x: int) -> str:\n    return os.sep * x\n'
        assert self.problems(tmp_path, body) == []


class TestDiagnosticsVocabulary:
    def test_unknown_rule_is_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            Diagnostic("NOPE999", "nope")

    def test_severity_defaults_from_catalog(self):
        d = Diagnostic("SPMD001", "msg")
        assert d.severity == "error"
        assert d.is_error
        assert Diagnostic("TRACE105", "msg").severity == "info"

    def test_format_includes_rule_location_and_hint(self):
        d = Diagnostic("SPMD004", "bad route", rank=3, edge=(0, 1), hint="fix it")
        text = d.format()
        assert "SPMD004 error" in text
        assert "rank 3" in text
        assert "edge (0, 1)" in text
        assert "(hint: fix it)" in text

    def test_report_sorts_errors_first_and_tallies(self):
        report = DiagnosticReport()
        report.add(Diagnostic("TRACE105", "skew"))
        report.add(Diagnostic("SPMD001", "lost send"))
        assert not report.ok
        assert [d.rule for d in report.sorted()] == ["SPMD001", "TRACE105"]
        assert "1 error(s), 0 warning(s), 1 info" in report.format()

    def test_empty_report_is_ok(self):
        report = DiagnosticReport()
        assert report.ok
        assert "no diagnostics" in report.format()

    def test_catalog_ids_are_namespaced_and_severities_valid(self):
        for rule_id, rule in RULES.items():
            assert rule.id == rule_id
            assert rule_id[:-3] in ("SPMD", "TRACE", "MC")
            assert rule.severity in SEVERITIES
            assert rule.title and rule.summary


class TestDocsStayConsistent:
    def test_every_rule_is_documented(self):
        doc = (REPO_ROOT / "docs" / "ANALYSIS.md").read_text()
        for rule_id, rule in RULES.items():
            assert rule_id in doc, f"docs/ANALYSIS.md must document {rule_id}"
            assert rule.title in doc, f"docs/ANALYSIS.md must name {rule.title}"

    def test_readme_mentions_check_verb(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "repro-cube check" in readme
        assert "repro.analysis" in readme


needs_ruff = pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
needs_mypy = pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")


class TestExternalGate:
    @needs_ruff
    def test_ruff_check_passes(self):
        proc = subprocess.run(
            ["ruff", "check", "src", "tests", "benchmarks"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @needs_ruff
    def test_ruff_format_passes_on_analysis(self):
        proc = subprocess.run(
            ["ruff", "format", "--check", "src/repro/analysis"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @needs_mypy
    def test_mypy_strict_packages_pass(self):
        proc = subprocess.run(
            ["mypy"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
