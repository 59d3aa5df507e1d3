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
from repro.lint.suppress import is_suppressed

#: RL703 only runs when the scanned set contains the real CLI entry
#: point; on the tiny synthetic trees the test suite lints, *everything*
#: is unreachable from a CLI that is not there.
_CLI_ANCHOR_SUFFIXES = ("repro/cli.py",)
_ROOT_MODULES = ("repro.cli", "repro.__main__")
#: Directories scanned from disk for extra references (entry points that
#: live outside the default ``src tests`` lint set). Tests and examples
#: are not readers: a name only they touch feeds no pipeline stage.
_EXTRA_REF_DIRS = ("bench", "benchmarks")


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
                    )

    def _finding(self, site, message: str) -> Finding:
        return Finding(
            path=site.path,
            line=site.site.line,
            col=site.site.col,
            code=self.code,
            rule=self.name,
            message=message,
        )


@register
class DeadExportRule(ProjectRule):
    """RL703: public symbols reachable from no engine, CLI, or benchmark."""

    code = "RL703"
    name = "dead-export"
    rationale = (
        "A public symbol no engine, CLI entry point, or benchmark "
        "references feeds no pipeline stage; a test or example that "
        "exercises it only keeps dead surface area alive — the SoK "
        "survey's auditable-namespace argument applied to our own API. "
        "Reachability is computed over the alias-resolved reference "
        "graph of src/, bench/ and benchmarks/ (package re-exports "
        "chased, star imports conservative); delete the symbol with its "
        "tests, mark it private, or suppress with a justification."
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        facts_map = index.all_facts()
        if not any(
            path.endswith(_CLI_ANCHOR_SUFFIXES) for path in facts_map
        ):
            return
        kept = set()
        for path, facts in facts_map.items():
            suppressions = index.suppressions_for(path)
            kept.update(
                f"{facts.module}.{definfo.name}" for definfo in facts.defs
                if is_suppressed(suppressions, definfo.line, self.code)
            )
        live = _live_prefixes(facts_map, kept)
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
                        "referenced by no engine, CLI entry point, or "
                        "benchmark; delete it, mark it private, or suppress "
                        "with a justification"
                    ),
                )


def _live_prefixes(facts_map: Dict[str, object], kept: Set[str]) -> Set[str]:
    """Dotted names (and their prefixes) reachable from the program.

    Seeds with the module-level references of the scanned ``repro``
    modules, every reference found in ``bench/``/``benchmarks/`` on disk,
    and the references of the defs that are live whatever reads them:
    the entry-point modules' defs, decorated defs, and the *kept* symbols
    (an inline RL703 suppression: a kept name keeps what it calls). A
    def's own references count only once the def is live, so a dead
    function keeps nothing alive. Live names propagate through import
    aliases (package re-exports keep their targets alive) to a fixpoint;
    star-import targets are marked wholesale (conservative: a ``*``
    import may use anything). Scanned test and example files are linted
    but seed nothing.
    """
    closure: Set[str] = set()

    def add_with_prefixes(dotted: str) -> None:
        parts = dotted.split(".")
        for cut in range(1, len(parts) + 1):
            closure.add(".".join(parts[:cut]))

    repro_facts = [
        facts for facts in facts_map.values()
        if facts.module == "repro" or facts.module.startswith("repro.")
    ]
    extra_facts = _extra_reference_facts()
    all_facts = repro_facts + extra_facts
    modules = {facts.module: facts for facts in all_facts}

    #: symbol → references, for repro defs not yet known to be live.
    pending: Dict[str, Tuple[str, ...]] = {}
    for facts in repro_facts:
        for ref in facts.module_refs:
            add_with_prefixes(ref)
        for definfo in facts.defs:
            symbol = f"{facts.module}.{definfo.name}"
            if (facts.module in _ROOT_MODULES or definfo.decorated
                    or symbol in kept):
                add_with_prefixes(symbol)
            pending[symbol] = definfo.refs
    for facts in extra_facts:
        for ref in facts.module_refs:
            add_with_prefixes(ref)
        for definfo in facts.defs:
            for ref in definfo.refs:
                add_with_prefixes(ref)
    for facts in all_facts:
        for star in facts.star_imports:
            target = modules.get(star)
            if target is not None:
                for definfo in target.defs:
                    add_with_prefixes(f"{target.module}.{definfo.name}")

    changed = True
    while changed:
        changed = False
        for symbol in [symbol for symbol in pending if symbol in closure]:
            for ref in pending.pop(symbol):
                add_with_prefixes(ref)
            changed = True
        for facts in all_facts:
            for local, target in facts.imports:
                if f"{facts.module}.{local}" in closure and target not in closure:
                    add_with_prefixes(target)
                    changed = True
    return closure


def _extra_reference_facts() -> List:
    """Facts for ``bench/``/``benchmarks/`` files on disk.

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
