"""Cross-file lint tier: RNG labels and dead exports.

The fixture trees under ``tests/lint_fixtures/flow/`` are a label
collision split across two files and dead-export whitelisting.
CLI-level ``--fix`` idempotence runs against generated trees in
``tmp_path``.
"""

from __future__ import annotations

from pathlib import Path

from repro.cli import main
from repro.lint import FileContext, LintRunner
from repro.lint.flow import (
    collect_rng_labels,
    extract_module_facts,
    module_name_for_path,
)
from repro.obs import names

REPO_ROOT = Path(__file__).parent.parent
FLOW_DIR = Path(__file__).parent / "lint_fixtures" / "flow"


def tree_contexts(root: Path):
    contexts = {}
    for file in sorted(root.rglob("*.py")):
        lint_path = file.relative_to(root).as_posix()
        contexts[lint_path] = FileContext.parse(lint_path, file.read_text())
    return contexts


def lint_tree(root: Path):
    return LintRunner().run_contexts(tree_contexts(root))


def facts_for(root: Path):
    facts = {}
    for file in sorted(root.rglob("*.py")):
        lint_path = file.relative_to(root).as_posix()
        facts[lint_path] = extract_module_facts(lint_path, file.read_text())
    return facts


class TestModuleNames:
    def test_anchors_on_known_roots(self):
        assert module_name_for_path("src/repro/core/scan.py") == "repro.core.scan"
        assert module_name_for_path("tests/test_x.py") == "tests.test_x"
        assert (
            module_name_for_path("/tmp/anything/src/repro/data/dataset.py")
            == "repro.data.dataset"
        )

    def test_package_init(self):
        assert module_name_for_path("src/repro/data/__init__.py") == "repro.data"


PREFIX_MODULE = (
    "from repro.util.rng import ForkPrefix, label_suffix\n"
    "\n"
    "def draw(seed, apex, day):\n"
    "    prefix = ForkPrefix(seed, 'fixture-prefix', apex)\n"
    "    return prefix.draw(label_suffix(str(day)))\n"
)


class TestRngLabelRegistry:
    def test_collision_across_two_files(self):
        findings = [
            f for f in lint_tree(FLOW_DIR / "case_label_collision")
            if f.code == "RL702"
        ]
        collision = [f for f in findings if "collides" in f.message]
        assert len(collision) == 1
        assert collision[0].path == "src/repro/ecosystem/two.py"
        assert "src/repro/ecosystem/one.py" in collision[0].message

    def test_registry_matches_the_tree_exactly(self):
        """``names.RNG_LABELS`` == the statically collected fork set.

        This is the CI self-check: every root fork site's label tuple is
        declared, and no declaration is stale.
        """
        collected = {
            site.labels
            for site in collect_rng_labels(facts_for(REPO_ROOT / "src"))
            if site.site.kind == "root" and not site.site.variadic
        }
        assert collected == set(names.RNG_LABELS)

    def test_fork_prefix_registers_the_label_its_draws_append(self):
        facts = extract_module_facts("src/repro/ecosystem/x.py", PREFIX_MODULE)
        assert [site.labels for site in facts.fork_sites] == [
            ("fixture-prefix", "*", "*"),
        ]

    def test_fork_prefix_declared_without_its_draw_label_is_flagged(self):
        """Declaring only the prefix's own labels is not enough: the
        stream namespace a draw uses has one more component."""
        contexts = {
            path: FileContext.parse(path, source)
            for path, source in (
                ("src/repro/obs/names.py",
                 'RNG_LABELS = (("fixture-prefix", "*"),)\n'),
                ("src/repro/ecosystem/x.py", PREFIX_MODULE),
            )
        }
        messages = [
            f.message for f in LintRunner().run_contexts(contexts)
            if f.code == "RL702"
        ]
        assert any(
            "('fixture-prefix', '*', '*') is not declared" in m for m in messages
        ), messages
        assert any("declares ('fixture-prefix', '*')" in m for m in messages)

    def test_real_fork_sites_are_root_or_split(self):
        kinds = {
            site.site.kind for site in collect_rng_labels(facts_for(REPO_ROOT / "src"))
        }
        assert kinds <= {"root", "split"}


class TestDeadExports:
    def test_dead_export_is_flagged(self):
        findings = [
            f for f in lint_tree(FLOW_DIR / "rl703_bad_dead_export")
            if f.code == "RL703"
        ]
        assert [f.path for f in findings] == ["src/repro/core/widgets.py"]
        assert "dead_fixture_widget" in findings[0].message

    def test_a_name_only_bench_reads_is_live(self, monkeypatch):
        """``bench/`` files are read from disk as references, like
        ``benchmarks/`` and ``examples/``; a name nothing reads is still
        dead."""
        root = FLOW_DIR / "rl703_bad_dead_beside_bench"
        monkeypatch.chdir(root)
        contexts = {
            path: context for path, context in tree_contexts(root).items()
            if path.startswith("src/")
        }
        findings = [
            f for f in LintRunner().run_contexts(contexts) if f.code == "RL703"
        ]
        assert [f.path for f in findings] == ["src/repro/core/widgets.py"]
        assert "dead_fixture_widget" in findings[0].message
        assert not any("bench_only_widget" in f.message for f in findings)

    def test_whitelisting_suppresses_it(self):
        findings = [
            f for f in lint_tree(FLOW_DIR / "rl703_good_whitelisted")
            if f.code == "RL703"
        ]
        assert findings == []


FIX_TREE_FILES = 10

BAD_MODULE = (
    "def f():\n"
    "    try:\n"
    "        return 1\n"
    "    except:\n"
    "        raise ValueError\n"
)

#: RL502 has no mechanical fix, so a tree holding it stays dirty.
SWALLOW_MODULE = (
    "def g():\n"
    "    try:\n"
    "        return 1\n"
    "    except Exception:\n"
    "        pass\n"
)


def build_fix_tree(tmp_path: Path) -> None:
    base = tmp_path / "src" / "repro" / "core"
    base.mkdir(parents=True)
    for index in range(FIX_TREE_FILES):
        (base / f"mod_{index:02d}.py").write_text(BAD_MODULE)
    (base / "swallow.py").write_text(SWALLOW_MODULE)


class TestFixBatching:
    def test_cli_fix_is_idempotent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        build_fix_tree(tmp_path)
        target = tmp_path / "src" / "repro" / "core" / "mod_00.py"
        assert main(["lint", "src", "--fix"]) == 1  # RL502 is not fixable
        first_pass = target.read_text()
        assert "except Exception:" in first_pass
        assert main(["lint", "src", "--fix"]) == 1
        assert target.read_text() == first_pass

    def test_serial_fix_reuses_lint_sources(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = tmp_path / "src" / "repro" / "core"
        base.mkdir(parents=True)
        (base / "a.py").write_text(BAD_MODULE)
        runner = LintRunner()
        report = runner.run(["src"])
        assert "src/repro/core/a.py" in runner.last_sources
        from repro.lint import fix_files

        fixed = fix_files(report.findings, sources=runner.last_sources)
        assert fixed == {"src/repro/core/a.py": 1}
