"""Cross-file rules: RL702 RNG labels, RL703 dead exports.

These are built on :mod:`repro.lint.flow`. They exist because the
per-file rules cannot see a label collision between RNG forks declared
in different files, or a public symbol nothing in the program ever
touches.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.base import ProjectIndex, ProjectRule, register
from repro.lint.findings import Finding

#: RL703 only runs when the scanned set contains the real CLI entry
#: point; on the tiny synthetic trees the test suite lints, *everything*
#: is unreachable from a CLI that is not there.
_CLI_ANCHOR_SUFFIXES = ("repro/cli.py",)
_ROOT_MODULES = ("repro.cli", "repro.__main__")
#: Directories scanned from disk for extra references (entry points that
#: live outside the default ``src tests`` lint set).
_EXTRA_REF_DIRS = ("bench", "benchmarks", "examples")


@register
class RngLabelRegistryRule(ProjectRule):
    """RL702: RNG fork labels are collision-free and declared."""

    code = "RL702"
    name = "rng-label-registry"
    rationale = (
        "Labelled RNG forks only isolate subsystems if the label "
        "namespace is actually disjoint: two RngStream(seed, \"tls\") "
        "sites in different files silently share one stream, re-coupling "
        "draws the labels were meant to separate. Every root fork's label "
        "tuple must be unique tree-wide and declared in "
        "repro.obs.names.RNG_LABELS (runtime-varying components declared "
        "as '*'), so the namespace is auditable in one place."
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        from repro.lint.flow.graphs import collect_rng_labels

        facts = index.all_facts()
        if not facts:
            return
        sites = [
            site for site in collect_rng_labels(facts)
            if site.site.kind == "root" and not site.site.variadic
        ]

        by_tuple: Dict[Tuple[str, ...], List] = {}
        for site in sites:
            by_tuple.setdefault(site.labels, []).append(site)
        for labels in sorted(by_tuple):
            group = by_tuple[labels]
            if "*" in labels or len(group) < 2:
                continue
            first = group[0]
            for site in group[1:]:
                yield self._finding(
                    site,
                    f"RNG label tuple {labels!r} collides with the fork at "
                    f"{first.path}:{first.site.line}; the two streams are "
                    "identical, re-coupling draws across call sites",
                )

        declared = index.rng_labels()
        if declared is None:
            return
        declared_set = set(declared)
        used: Set[Tuple[str, ...]] = set()
        for site in sites:
            used.add(site.labels)
            if site.labels not in declared_set:
                yield self._finding(
                    site,
                    f"RNG label tuple {site.labels!r} is not declared in "
                    "repro.obs.names.RNG_LABELS; declare it (use '*' for "
                    "runtime-varying components) so the stream namespace "
                    "stays auditable",
                )
        unused = sorted(declared_set - used)
        if unused:
            location = index.rng_labels_site()
            # Stale declarations are only reportable when the declaring
            # file is itself in the scanned set — a partial lint (one
            # subdirectory, a synthetic test tree) sees few fork sites
            # and would call the whole registry stale.
            if location is not None and location[0] in index.files:
                path, line = location
                for labels in unused:
                    yield Finding(
                        path=path,
                        line=line,
                        col=1,
                        code=self.code,
                        rule=self.name,
                        message=(
                            f"RNG_LABELS declares {labels!r} but no fork "
                            "site uses it; remove the stale entry"
                        ),
                        line_text=index.line_text(path, line),
                    )

    def _finding(self, site, message: str) -> Finding:
        return Finding(
            path=site.path,
            line=site.site.line,
            col=site.site.col,
            code=self.code,
            rule=self.name,
            message=message,
            line_text=site.site.line_text,
        )


@register
class DeadExportRule(ProjectRule):
    """RL703: public symbols reachable from no engine, CLI, or test."""

    code = "RL703"
    name = "dead-export"
    rationale = (
        "A public symbol no engine, CLI entry point, test, or benchmark "
        "references is untested surface area that will silently rot — "
        "the SoK survey's auditable-namespace argument applied to our own "
        "API. Reachability is computed over the alias-resolved reference "
        "graph (package re-exports chased, star imports conservative); "
        "delete the symbol, mark it private, or suppress with a "
        "justification."
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        facts_map = index.all_facts()
        if not any(
            path.endswith(_CLI_ANCHOR_SUFFIXES) for path in facts_map
        ):
            return
        live = _live_prefixes(facts_map)
        for path in sorted(facts_map):
            facts = facts_map[path]
            if not facts.module.startswith("repro."):
                continue
            if facts.module in _ROOT_MODULES or path.endswith("__main__.py"):
                continue
            for definfo in facts.defs:
                if not definfo.public or definfo.decorated:
                    continue
                symbol = f"{facts.module}.{definfo.name}"
                if symbol in live:
                    continue
                yield Finding(
                    path=path,
                    line=definfo.line,
                    col=definfo.col + 1,
                    code=self.code,
                    rule=self.name,
                    message=(
                        f"public {definfo.kind} '{definfo.name}' is "
                        "referenced by no engine, CLI entry point, test, or "
                        "benchmark; delete it, mark it private, or suppress "
                        "with a justification"
                    ),
                    line_text=index.line_text(path, definfo.line),
                )


def _live_prefixes(facts_map: Dict[str, object]) -> Set[str]:
    """Dotted names (and their prefixes) reachable from anything scanned.

    Seeds with every attributed reference in the program plus references
    found in ``bench/``/``benchmarks/``/``examples/`` on disk, then propagates
    through import aliases to a fixpoint so package re-exports keep their
    targets alive, and marks star-import targets wholesale (conservative:
    a ``*`` import may use anything).
    """
    closure: Set[str] = set()

    def add_with_prefixes(dotted: str) -> None:
        parts = dotted.split(".")
        for cut in range(1, len(parts) + 1):
            closure.add(".".join(parts[:cut]))

    all_facts = list(facts_map.values())
    all_facts.extend(_extra_reference_facts())
    modules = {facts.module: facts for facts in all_facts}

    for facts in all_facts:
        for ref in facts.module_refs:
            add_with_prefixes(ref)
        for definfo in facts.defs:
            for ref in definfo.refs:
                add_with_prefixes(ref)
        for star in facts.star_imports:
            target = modules.get(star)
            if target is not None:
                for definfo in target.defs:
                    add_with_prefixes(f"{target.module}.{definfo.name}")

    changed = True
    rounds = 0
    while changed and rounds < 16:
        changed = False
        rounds += 1
        for facts in all_facts:
            for local, target in facts.imports:
                if f"{facts.module}.{local}" in closure and target not in closure:
                    add_with_prefixes(target)
                    changed = True
    return closure


def _extra_reference_facts() -> List:
    """Facts for ``bench/``/``benchmarks/``/``examples/`` files on disk.

    These directories hold entry points that reference public API but are
    outside the default lint set; missing them would flag live symbols as
    dead. Unreadable or unparsable files are skipped — this is a
    reference sweep, not a lint pass.
    """
    import os

    from repro.lint.flow.facts import extract_module_facts

    out: List = []
    for base in _EXTRA_REF_DIRS:
        if not os.path.isdir(base):
            continue
        for root, dirs, names in os.walk(base):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name).replace(os.sep, "/")
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        source = handle.read()
                    out.append(extract_module_facts(path, source=source))
                except Exception:  # repro-lint: disable=RL502  # unreadable extra dirs only shrink the liveness set
                    continue
    return out
