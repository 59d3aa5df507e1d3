"""CLI-level lint tests: exit codes, output formats, acceptance gates."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.lint.base import all_rules

REPO_ROOT = Path(__file__).parent.parent

BAD_DETECTOR = (
    "from datetime import datetime\n"
    "\n"
    "class SneakyDetector:\n"
    "    def detect(self, inputs, findings=None):\n"
    "        stamp = datetime.now()\n"
    "        return findings\n"
)


class TestParser:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []
        assert args.format == "text"
        assert not args.list_rules

    def test_lint_accepts_paths_and_flags(self):
        args = build_parser().parse_args(
            ["lint", "src", "tests", "--format", "json"]
        )
        assert args.paths == ["src", "tests"]
        assert args.format == "json"

    @pytest.mark.parametrize("flag", [
        ["--jobs", "2"], ["--explain", "src/x.py:1"], ["--dump-graph", "g.json"],
    ])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["lint", "src"] + flag)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestAcceptance:
    """The ISSUE's acceptance gates, as executable checks."""

    def test_repository_is_lint_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src", "tests"]) == 0

    def test_wall_clock_in_a_detector_fails_the_lint(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "src" / "repro" / "core" / "detectors" / "sneaky.py"
        target.parent.mkdir(parents=True)
        target.write_text(BAD_DETECTOR)
        assert main(["lint", "src"]) == 1
        assert "RL101" in capsys.readouterr().out

    def test_undeclared_metric_name_fails_the_lint(self, monkeypatch, tmp_path, capsys):
        # Copy the real tree's names module so the declared-constant set is
        # authentic, then add one call site using a name that is not in it.
        monkeypatch.chdir(tmp_path)
        names_src = REPO_ROOT / "src" / "repro" / "obs" / "names.py"
        names_dst = tmp_path / "src" / "repro" / "obs" / "names.py"
        names_dst.parent.mkdir(parents=True)
        names_dst.write_text(names_src.read_text())
        call_site = tmp_path / "src" / "repro" / "core" / "counting.py"
        call_site.parent.mkdir(parents=True)
        call_site.write_text(
            "from repro.obs import get_registry, names\n"
            "def record():\n"
            "    get_registry().counter(names.MISSPELLED_TOTAL, 'h').inc()\n"
        )
        assert main(["lint", "src"]) == 1
        assert "RL301" in capsys.readouterr().out


class TestCliFlows:
    def _violating_tree(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core" / "a.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "def f():\n    try:\n        return 1\n    except:\n        raise ValueError\n"
        )

    def test_findings_exit_1_with_text_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._violating_tree(tmp_path)
        assert main(["lint", "src"]) == 1
        out = capsys.readouterr().out
        assert "RL501" in out and "src/repro/core/a.py:4" in out

    def test_json_format(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._violating_tree(tmp_path)
        assert main(["lint", "src", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"RL501": 1}

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "does-not-exist"]) == 2

    def test_list_rules_covers_every_code(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.code in out
