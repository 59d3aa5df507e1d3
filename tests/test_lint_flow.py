"""Whole-program flow tier: taint paths, RNG labels, graphs, parallel runs.

The fixture trees under ``tests/lint_fixtures/flow/`` are the scenarios
the ISSUE names: inter-module taint with the full hop chain, sanitizer
kills, a label collision split across two files, dynamic-edge
conservatism, and dead-export whitelisting. CLI-level behavior
(``--jobs`` determinism, ``--explain``, ``--dump-graph``, ``--fix``
idempotence) runs against generated trees in ``tmp_path``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lint import FileContext, LintRunner, render_json, render_text
from repro.lint.engine import LintReport
from repro.lint.flow import (
    build_call_graph,
    build_import_graph,
    collect_rng_labels,
    extract_module_facts,
    module_name_for_path,
)
from repro.lint.flow.graphs import ProgramGraph
from repro.lint.flow.taint import analyze_taint
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


def program_for(root: Path) -> ProgramGraph:
    facts = {}
    for file in sorted(root.rglob("*.py")):
        lint_path = file.relative_to(root).as_posix()
        facts[lint_path] = extract_module_facts(lint_path, file.read_text())
    return ProgramGraph.build(facts)


def copy_tree(src: Path, dst: Path) -> None:
    for file in src.rglob("*.py"):
        target = dst / file.relative_to(src)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(file.read_text())


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


class TestCrossModuleTaint:
    def findings(self):
        return [
            f for f in lint_tree(FLOW_DIR / "case_taint_cross_module")
            if f.code == "RL701"
        ]

    def test_flow_is_found_at_the_sink(self):
        findings = self.findings()
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "src/repro/core/emit.py"
        assert finding.line == 9
        assert "fs_order" in finding.message
        assert "dataset-write" in finding.message
        assert "3-hop" in finding.message

    def test_hop_chain_names_every_location(self):
        (finding,) = self.findings()
        hops = [(h.path, h.line) for h in finding.hops]
        assert hops == [
            ("src/repro/core/scan.py", 7),
            ("src/repro/core/emit.py", 8),
            ("src/repro/core/emit.py", 9),
        ]
        assert "nondeterministic source" in finding.hops[0].note
        assert "discover() return" in finding.hops[1].note
        assert "sink" in finding.hops[2].note

    def test_hop_chain_renders_in_text_and_json(self):
        (finding,) = self.findings()
        report = LintReport(findings=[finding], files_scanned=2)
        text = render_text(report)
        assert "src/repro/core/scan.py:7" in text
        assert "nondeterministic source" in text
        payload = json.loads(render_json(report))
        (record,) = payload["findings"]
        assert [h["path"] for h in record["hops"]] == [
            "src/repro/core/scan.py",
            "src/repro/core/emit.py",
            "src/repro/core/emit.py",
        ]

    def test_sanitizer_kills_the_flow(self):
        findings = [
            f for f in lint_tree(FLOW_DIR / "case_sanitizer_kills")
            if f.code == "RL701"
        ]
        assert findings == []

    def test_batch_segment_append_is_a_sink(self):
        """The production writer encodes through ``append_rows``; a
        listing-ordered batch reaching it is an RL701 flow."""
        (finding,) = [
            f for f in lint_tree(FLOW_DIR / "case_segment_append_batch")
            if f.code == "RL701"
        ]
        assert (finding.path, finding.line) == ("src/repro/core/emit.py", 10)
        assert "fs_order" in finding.message
        assert "segment-append" in finding.message

    def test_suppressible_at_the_source_line(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        copy_tree(FLOW_DIR / "case_taint_cross_module", tmp_path)
        scan = tmp_path / "src" / "repro" / "core" / "scan.py"
        scan.write_text(scan.read_text().replace(
            "names = os.listdir(root)",
            "names = os.listdir(root)  # repro-lint: disable=RL701  # order proven irrelevant downstream",
        ))
        assert main(["lint", "src"]) == 0


class TestDynamicDispatch:
    def test_dynamic_call_drops_taint(self):
        findings = [
            f for f in lint_tree(FLOW_DIR / "case_dynamic_dispatch")
            if f.code == "RL701"
        ]
        assert findings == []

    def test_dynamic_edge_is_recorded(self):
        program = program_for(FLOW_DIR / "case_dynamic_dispatch")
        edges = build_call_graph(program)
        dynamic = [
            e for e in edges
            if e.dynamic and e.caller == "repro.core.dyn.run" and e.line == 16
        ]
        assert dynamic, "the unresolved handler() call must appear as dynamic"


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
        program = program_for(REPO_ROOT / "src")
        collected = {
            site.labels
            for site in collect_rng_labels(program)
            if site.site.kind == "root" and not site.site.variadic
        }
        assert collected == set(names.RNG_LABELS)

    def test_real_fork_sites_are_root_or_split(self):
        program = program_for(REPO_ROOT / "src")
        kinds = {site.site.kind for site in collect_rng_labels(program)}
        assert kinds <= {"root", "split"}


class TestDeadExports:
    def test_dead_export_is_flagged(self):
        findings = [
            f for f in lint_tree(FLOW_DIR / "rl703_bad_dead_export")
            if f.code == "RL703"
        ]
        assert [f.path for f in findings] == ["src/repro/core/widgets.py"]
        assert "dead_fixture_widget" in findings[0].message

    def test_whitelisting_suppresses_it(self):
        findings = [
            f for f in lint_tree(FLOW_DIR / "rl703_good_whitelisted")
            if f.code == "RL703"
        ]
        assert findings == []


class TestProgramGraph:
    def test_import_graph_resolves_internal_edges(self):
        program = program_for(FLOW_DIR / "case_taint_cross_module")
        edges = build_import_graph(program)
        assert "repro.core.scan" in edges["repro.core.emit"]
        assert "os" in edges["repro.core.scan"]

    def test_reexport_chasing(self):
        program = program_for(REPO_ROOT / "src")
        resolved = program.resolve("repro.data.write_dataset")
        assert resolved == "repro.data.dataset.write_dataset"


JOBS_TREE_FILES = 10

BAD_MODULE = (
    "def f():\n"
    "    try:\n"
    "        return 1\n"
    "    except:\n"
    "        raise ValueError\n"
)


def build_jobs_tree(tmp_path: Path) -> None:
    base = tmp_path / "src" / "repro" / "core"
    base.mkdir(parents=True)
    for index in range(JOBS_TREE_FILES):
        (base / f"mod_{index:02d}.py").write_text(BAD_MODULE)
    copy_tree(
        FLOW_DIR / "case_taint_cross_module",
        tmp_path,
    )


class TestParallelDeterminism:
    def payload(self, jobs, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(tmp_path)
        code = main(["lint", "src", "--format", "json", "--jobs", str(jobs)])
        out = capsys.readouterr().out
        return code, json.loads(out)

    def test_output_identical_for_any_worker_count(
        self, tmp_path, monkeypatch, capsys
    ):
        build_jobs_tree(tmp_path)
        code_1, serial = self.payload(1, monkeypatch, capsys, tmp_path)
        code_4, parallel = self.payload(4, monkeypatch, capsys, tmp_path)
        assert code_1 == code_4 == 1
        assert serial == parallel
        assert serial["counts"]["RL501"] == JOBS_TREE_FILES
        assert serial["counts"]["RL701"] == 1

    def test_hop_chain_survives_the_pool(self, tmp_path, monkeypatch, capsys):
        build_jobs_tree(tmp_path)
        _code, payload = self.payload(4, monkeypatch, capsys, tmp_path)
        (flow_finding,) = [
            f for f in payload["findings"] if f["code"] == "RL701"
        ]
        assert len(flow_finding["hops"]) == 3


class TestExplain:
    def test_explain_prints_the_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        copy_tree(FLOW_DIR / "case_taint_cross_module", tmp_path)
        assert main(
            ["lint", "src", "--explain", "src/repro/core/emit.py:9"]
        ) == 0
        out = capsys.readouterr().out
        assert "fs_order" in out
        assert "src/repro/core/scan.py:7" in out

    def test_explain_matches_any_hop(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        copy_tree(FLOW_DIR / "case_taint_cross_module", tmp_path)
        assert main(
            ["lint", "src", "--explain", "src/repro/core/scan.py:7"]
        ) == 0
        assert "dataset-write" in capsys.readouterr().out

    def test_explain_reports_quiet_locations(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        copy_tree(FLOW_DIR / "case_sanitizer_kills", tmp_path)
        assert main(
            ["lint", "src", "--explain", "src/repro/core/emit.py:9"]
        ) == 0
        assert "no recorded nondeterminism flow" in capsys.readouterr().out

    def test_malformed_location_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        copy_tree(FLOW_DIR / "case_taint_cross_module", tmp_path)
        assert main(["lint", "src", "--explain", "nonsense"]) == 2


class TestDumpGraph:
    def test_dump_writes_the_program_view(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        copy_tree(FLOW_DIR / "case_taint_cross_module", tmp_path)
        main(["lint", "src", "--dump-graph", "graph.json"])
        payload = json.loads((tmp_path / "graph.json").read_text())
        assert "repro.core.emit" in payload["modules"]
        assert payload["counts"]["modules"] == 2
        callees = {edge["callee"] for edge in payload["calls"]}
        assert "repro.core.scan.discover" in callees


class TestFixBatching:
    def test_cli_fix_is_idempotent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        build_jobs_tree(tmp_path)
        target = tmp_path / "src" / "repro" / "core" / "mod_00.py"
        assert main(["lint", "src", "--fix"]) == 1  # RL701 is not fixable
        first_pass = target.read_text()
        assert "except Exception:" in first_pass
        assert main(["lint", "src", "--fix"]) == 1
        assert target.read_text() == first_pass

    def test_serial_fix_reuses_lint_sources(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = tmp_path / "src" / "repro" / "core"
        base.mkdir(parents=True)
        (base / "a.py").write_text(BAD_MODULE)
        runner = LintRunner(jobs=1)
        report = runner.run(["src"])
        assert "src/repro/core/a.py" in runner.last_sources
        from repro.lint import fix_files

        fixed = fix_files(report.findings, sources=runner.last_sources)
        assert fixed == {"src/repro/core/a.py": 1}
