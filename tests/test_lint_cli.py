"""CLI-level lint tests: exit codes, output formats, acceptance gates."""

from __future__ import annotations

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
        assert not args.list_rules

    def test_lint_accepts_paths_and_flags(self):
        args = build_parser().parse_args(["lint", "src", "tests", "--list-rules"])
        assert args.paths == ["src", "tests"]
        assert args.list_rules

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

    def test_undeclared_rng_label_fails_the_lint(self, monkeypatch, tmp_path, capsys):
        # Copy the real tree's names module so the declared label set is
        # authentic, then add one fork site whose label is not in it.
        monkeypatch.chdir(tmp_path)
        names_src = REPO_ROOT / "src" / "repro" / "obs" / "names.py"
        names_dst = tmp_path / "src" / "repro" / "obs" / "names.py"
        names_dst.parent.mkdir(parents=True)
        names_dst.write_text(names_src.read_text())
        fork_site = tmp_path / "src" / "repro" / "core" / "drawing.py"
        fork_site.parent.mkdir(parents=True)
        fork_site.write_text(
            "from repro.util.rng import RngStream\n"
            "def draw(seed):\n"
            "    return RngStream(seed, 'misspelled-label').random()\n"
        )
        assert main(["lint", "src"]) == 1
        out = capsys.readouterr().out
        assert "RL702 RNG label tuple ('misspelled-label',) is not declared" in out


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

    def test_summary_line_counts_findings(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._violating_tree(tmp_path)
        assert main(["lint", "src"]) == 1
        assert "1 finding(s) in 1 file(s): RL501×1" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "does-not-exist"]) == 2

    def test_list_rules_covers_every_code(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.code in out
