"""Engine semantics: suppressions, JSON schema, file collection, parse
errors, deterministic ordering."""

from __future__ import annotations

import json

import pytest

from repro.lint import (
    LintRunner,
    collect_files,
    parse_suppressions,
    render_json,
    render_text,
)
from repro.lint.suppress import is_suppressed

BAD_EXCEPT = "def f():\n    try:\n        return 1\n    except:\n        return 0\n"
PATH = "src/repro/core/sample.py"


class TestSuppressions:
    def test_inline_disable_silences_the_code(self):
        source = BAD_EXCEPT.replace(
            "    except:", "    except:  # repro-lint: disable=RL501"
        )
        assert LintRunner().run_source(source, PATH) == []

    def test_disable_all(self):
        source = BAD_EXCEPT.replace(
            "    except:", "    except:  # repro-lint: disable=all"
        )
        assert LintRunner().run_source(source, PATH) == []

    def test_wrong_code_does_not_suppress(self):
        source = BAD_EXCEPT.replace(
            "    except:", "    except:  # repro-lint: disable=RL103"
        )
        findings = LintRunner().run_source(source, PATH)
        assert [f.code for f in findings] == ["RL501"]

    def test_multiple_codes_comma_separated(self):
        source = BAD_EXCEPT.replace(
            "    except:", "    except:  # repro-lint: disable=RL103, RL501"
        )
        assert LintRunner().run_source(source, PATH) == []

    def test_suppression_is_line_scoped(self):
        source = (
            "# repro-lint: disable=RL501\n" + BAD_EXCEPT
        )  # directive on line 1, violation on line 5
        findings = LintRunner().run_source(source, PATH)
        assert [f.code for f in findings] == ["RL501"]

    def test_parse_helpers(self):
        suppressions = parse_suppressions(
            ["x = 1  # repro-lint: disable=RL101,RL102", "y = 2"]
        )
        assert is_suppressed(suppressions, 1, "rl101")
        assert is_suppressed(suppressions, 1, "RL102")
        assert not is_suppressed(suppressions, 1, "RL103")
        assert not is_suppressed(suppressions, 2, "RL101")


class TestEngine:
    def test_collect_skips_fixture_corpus_and_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "lint_fixtures").mkdir()
        (tmp_path / "pkg" / "lint_fixtures" / "bad.py").write_text("import random\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
        files = collect_files([str(tmp_path / "pkg")])
        assert [f.rsplit("/", 1)[1] for f in files] == ["ok.py"]

    def test_syntax_error_becomes_rl000(self):
        findings = LintRunner().run_source("def broken(:\n", PATH)
        assert [f.code for f in findings] == ["RL000"]
        assert "does not parse" in findings[0].message

    def test_findings_are_deterministically_ordered(self):
        source = (
            "import random\n"
            "def f(items):\n"
            "    try:\n"
            "        return random.choice(items)\n"
            "    except:\n"
            "        return None\n"
        )
        runner = LintRunner()
        first = runner.run_source(source, PATH)
        second = LintRunner().run_source(source, PATH)
        assert [f.sort_key() for f in first] == [f.sort_key() for f in second]
        assert [f.sort_key() for f in first] == sorted(f.sort_key() for f in first)

    def test_report_counts_by_code(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "src" / "repro" / "core" / "a.py"
        target.parent.mkdir(parents=True)
        target.write_text(BAD_EXCEPT + "\n\n" + BAD_EXCEPT.replace("f()", "g()"))
        report = LintRunner().run(["src"])
        assert report.counts_by_code() == {"RL501": 2}


class TestJsonOutput:
    def test_schema(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "src" / "repro" / "core" / "a.py"
        target.parent.mkdir(parents=True)
        target.write_text(BAD_EXCEPT)
        report = LintRunner().run(["src"])
        payload = json.loads(render_json(report))

        assert payload["version"] == 1
        assert payload["clean"] is False
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {"RL501": 1}
        assert set(payload) == {
            "version", "files_scanned", "clean", "findings", "counts",
        }
        (finding,) = payload["findings"]
        assert set(finding) == {
            "path", "line", "col", "code", "rule", "message",
        }
        assert finding["path"] == "src/repro/core/a.py"
        assert finding["code"] == "RL501"

    def test_clean_tree_renders_clean(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "src" / "ok.py"
        target.parent.mkdir()
        target.write_text("x = 1\n")
        report = LintRunner().run(["src"])
        assert json.loads(render_json(report))["clean"] is True
        assert "clean" in render_text(report)
