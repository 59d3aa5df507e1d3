"""Fixture-corpus tests: every rule fires on its bad snippet, stays quiet
on its good one."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.lint import FileContext, ImportMap, LintRunner, ProjectIndex
from repro.lint.base import all_rules

FIXTURE_DIR = Path(__file__).parent / "lint_fixtures"

#: Synthetic lint paths placing each fixture inside its rule's scope.
SYNTHETIC_PATHS = {
    "RL503": "src/repro/serve/app.py",
}
DEFAULT_PATH = "src/repro/core/fixture_under_test.py"


def fixture_cases():
    for path in sorted(FIXTURE_DIR.glob("rl*_*.py")):
        code = path.name.split("_")[0].upper()
        expect_findings = path.name.split("_")[1] == "bad"
        yield pytest.param(path, code, expect_findings, id=path.stem)
    # Whole-program rules need more than one file; their fixtures are
    # directory trees under flow/ whose layout *is* the synthetic path.
    for path in sorted((FIXTURE_DIR / "flow").glob("rl*_*")):
        if path.is_dir():
            code = path.name.split("_")[0].upper()
            expect_findings = path.name.split("_")[1] == "bad"
            yield pytest.param(path, code, expect_findings, id=path.name)


def lint_fixture(path: Path, code: str):
    if path.is_dir():
        return lint_fixture_tree(path)
    lint_path = SYNTHETIC_PATHS.get(code, DEFAULT_PATH)
    return LintRunner().run_source(path.read_text(), lint_path)


def lint_fixture_tree(root: Path):
    """Lint a directory fixture; file paths inside it are the lint paths."""
    contexts = {}
    for file in sorted(root.rglob("*.py")):
        lint_path = file.relative_to(root).as_posix()
        contexts[lint_path] = FileContext.parse(lint_path, file.read_text())
    return LintRunner().run_contexts(contexts)


class TestFixtureCorpus:
    @pytest.mark.parametrize("path, code, expect_findings", list(fixture_cases()))
    def test_fixture(self, path, code, expect_findings):
        codes = [finding.code for finding in lint_fixture(path, code)]
        assert "RL000" not in codes, "fixture must parse"
        if expect_findings:
            assert code in codes, f"{path.name} should trigger {code}, got {codes}"
        else:
            assert code not in codes, f"{path.name} should not trigger {code}: {codes}"

    def test_every_rule_has_a_failing_fixture(self):
        """Each shipped rule's code is proven to fire by >= 1 bad fixture."""
        covered = {
            path.name.split("_")[0].upper()
            for path in FIXTURE_DIR.glob("rl*_bad_*.py")
        } | {
            path.name.split("_")[0].upper()
            for path in (FIXTURE_DIR / "flow").glob("rl*_bad_*")
        }
        for rule in all_rules():
            assert rule.code in covered, f"no failing fixture for {rule.code}"

    def test_every_rule_has_a_good_fixture(self):
        covered = {
            path.name.split("_")[0].upper()
            for path in FIXTURE_DIR.glob("rl*_good_*.py")
        } | {
            path.name.split("_")[0].upper()
            for path in (FIXTURE_DIR / "flow").glob("rl*_good_*")
        }
        for rule in all_rules():
            assert rule.code in covered, f"no passing fixture for {rule.code}"


class TestRuleDetails:
    def test_wall_clock_reports_each_call(self):
        findings = lint_fixture(FIXTURE_DIR / "rl101_bad_wall_clock.py", "RL101")
        assert len([f for f in findings if f.code == "RL101"]) == 3

    def test_wall_clock_out_of_scope_paths_ignored(self):
        source = "from time import time\nNOW = time()\n"
        findings = LintRunner().run_source(source, "src/repro/obs/clock.py")
        assert not [f for f in findings if f.code == "RL101"]
        findings = LintRunner().run_source(source, "tests/test_something.py")
        assert not [f for f in findings if f.code == "RL101"]

    def test_global_random_flags_aliased_import(self):
        source = "import random as rnd\n\ndef f():\n    return rnd.random()\n"
        findings = LintRunner().run_source(source, DEFAULT_PATH)
        assert [f.code for f in findings] == ["RL102"]

    def test_seeded_random_instance_allowed(self):
        source = "import random\nR = random.Random(7)\n"
        findings = LintRunner().run_source(source, DEFAULT_PATH)
        assert not [f for f in findings if f.code == "RL102"]

    def test_set_to_sequence_conversions_are_flagged(self):
        source = (
            "def f(a, b, owner):\n"
            "    x = list(set(a) | {owner})\n"
            "    y = tuple({a, b})\n"
            "    z = ''.join(frozenset(a))\n"
            "    w = list(a | {owner})\n"
            "    return list(a), tuple(sorted({a, b})), x, y, z, w\n"
        )
        findings = [
            f for f in LintRunner().run_source(source, DEFAULT_PATH)
            if f.code == "RL103"
        ]
        assert [f.line for f in findings] == [2, 3, 4, 5]

    def test_swallow_rule_reports_both_handlers(self):
        findings = lint_fixture(FIXTURE_DIR / "rl502_bad_swallow.py", "RL502")
        assert len([f for f in findings if f.code == "RL502"]) == 2

    def test_serve_error_model_reports_each_swallow(self):
        findings = lint_fixture(
            FIXTURE_DIR / "rl503_bad_swallowed_serve_error.py", "RL503"
        )
        assert len([f for f in findings if f.code == "RL503"]) == 2

    def test_serve_error_model_scope(self):
        """RL503 binds serve code only, and not the host loop."""
        source = "try:\n    x = 1\nexcept ValueError:\n    x = 2\n"
        in_scope = LintRunner().run_source(source, "src/repro/serve/app.py")
        assert [f.code for f in in_scope if f.code == "RL503"] == ["RL503"]
        for path in ("src/repro/core/pipeline.py", "src/repro/serve/server.py"):
            findings = LintRunner().run_source(source, path)
            assert not [f for f in findings if f.code == "RL503"]


class TestImportMap:
    def test_alias_resolution(self):
        import ast

        imports = ImportMap(
            ast.parse(
                "import datetime as _dt\n"
                "from time import time as now\n"
                "from repro.obs import names\n"
            )
        )
        assert imports.resolve("_dt.datetime.now") == "datetime.datetime.now"
        assert imports.resolve("now") == "time.time"
        assert imports.resolve("names") == "repro.obs.names"
