"""Cross-file lint tier: RNG labels and dead exports.

The fixture trees under ``tests/lint_fixtures/flow/`` are a label
collision split across two files, dead exports (one beside a bench
harness, one dead call chain) and dead-export whitelisting.
"""

from __future__ import annotations

from pathlib import Path

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
        ``benchmarks/``; a name nothing reads is still dead."""
        root = FLOW_DIR / "rl703_bad_dead_beside_bench"
        monkeypatch.chdir(root)
        contexts = {
            path: context for path, context in tree_contexts(root).items()
            if path.startswith("src/")
        }
        findings = [
            f for f in LintRunner().run_contexts(contexts) if f.code == "RL703"
        ]
        flagged = sorted(f.message.split("'")[1] for f in findings)
        assert flagged == ["dead_fixture_widget", "test_only_widget"]
        assert {f.path for f in findings} == {"src/repro/core/widgets.py"}

    def test_a_name_only_tests_and_examples_read_is_dead(self, monkeypatch):
        """A linted ``tests/`` file and an ``examples/`` file both read
        ``test_only_widget``; neither is a reader, so it is flagged, while
        the bench-only name stays live."""
        root = FLOW_DIR / "rl703_bad_dead_beside_bench"
        monkeypatch.chdir(root)
        contexts = {
            path: context for path, context in tree_contexts(root).items()
            if not path.startswith("bench/")
        }
        assert any(path.startswith("tests/") for path in contexts)
        findings = [
            f for f in LintRunner().run_contexts(contexts) if f.code == "RL703"
        ]
        flagged = sorted(f.message.split("'")[1] for f in findings)
        assert flagged == ["dead_fixture_widget", "test_only_widget"]
        assert {f.path for f in findings} == {"src/repro/core/widgets.py"}

    def test_a_dead_chain_is_flagged_in_one_pass(self):
        """A dead def's references keep nothing alive: its helper is
        flagged in the same run. A suppressed def is kept, and so is
        what it calls."""
        findings = [
            f for f in lint_tree(FLOW_DIR / "rl703_bad_dead_chain")
            if f.code == "RL703"
        ]
        flagged = sorted(f.message.split("'")[1] for f in findings)
        assert flagged == ["planted_dead", "planted_helper"]

    def test_whitelisting_suppresses_it(self):
        findings = [
            f for f in lint_tree(FLOW_DIR / "rl703_good_whitelisted")
            if f.code == "RL703"
        ]
        assert findings == []
