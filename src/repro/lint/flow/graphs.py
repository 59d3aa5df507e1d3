"""Whole-program linking: import graph, symbol table, RNG fork sites.

:class:`ProgramGraph` joins per-file :class:`~repro.lint.flow.facts.ModuleFacts`
into one queryable view. Resolution is *approximate by design*: names are
chased through import aliases and package re-exports, and a name that
leads outside the analyzed program resolves to ``None`` rather than to a
guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.flow.facts import DefInfo, ForkSite, ModuleFacts

_RESOLVE_DEPTH = 12


@dataclass
class ProgramGraph:
    """Linked whole-program view over extracted module facts."""

    files: Dict[str, ModuleFacts] = field(default_factory=dict)
    modules: Dict[str, ModuleFacts] = field(default_factory=dict)
    #: Canonical dotted symbol → (path, definition).
    symbols: Dict[str, Tuple[str, DefInfo]] = field(default_factory=dict)

    @classmethod
    def build(cls, files: Dict[str, ModuleFacts]) -> "ProgramGraph":
        graph = cls(files=dict(files))
        for path in sorted(files):
            facts = files[path]
            graph.modules[facts.module] = facts
        for path in sorted(files):
            facts = files[path]
            for definfo in facts.defs:
                graph.symbols[f"{facts.module}.{definfo.name}"] = (path, definfo)
        return graph

    # -- resolution ----------------------------------------------------------

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Canonical symbol name for *dotted*, chasing re-exports.

        ``repro.data.write_dataset`` (a package re-export) resolves to
        ``repro.data.dataset.write_dataset``. Returns ``None`` when the name leads outside the analyzed program
        or through an alias chain we cannot follow.
        """
        seen: Set[str] = set()
        current = dotted
        for _ in range(_RESOLVE_DEPTH):
            if current is None or current in seen:
                return None
            seen.add(current)
            if current in self.symbols:
                return current
            chased = self._chase_alias(current)
            if chased == current:
                return None
            current = chased
        return None

    def _chase_alias(self, dotted: str) -> Optional[str]:
        module, rest = self._split_module(dotted)
        if module is None or not rest:
            return None
        imports = self.modules[module].import_map()
        if rest[0] in imports:
            return ".".join([imports[rest[0]]] + rest[1:])
        return None

    def _split_module(self, dotted: str) -> Tuple[Optional[str], List[str]]:
        """Longest known module prefix of *dotted* plus the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, parts[cut:]
        return None, parts


def build_import_graph(
    program: ProgramGraph,
) -> Dict[str, Tuple[str, ...]]:
    """Module → imported modules, alias-resolved.

    Internal edges point at analyzed modules; imports of external code
    keep their top-level package name (``json``, ``os``) so the dump
    still shows the stdlib surface each module touches.
    """
    edges: Dict[str, Tuple[str, ...]] = {}
    for module in sorted(program.modules):
        facts = program.modules[module]
        targets: Set[str] = set()
        for _local, dotted in facts.imports:
            resolved = _owning_module(program, dotted)
            targets.add(resolved if resolved is not None else dotted.split(".")[0])
        for star in facts.star_imports:
            resolved = _owning_module(program, star)
            targets.add(resolved if resolved is not None else star.split(".")[0])
        targets.discard(module)
        edges[module] = tuple(sorted(targets))
    return edges


def _owning_module(program: ProgramGraph, dotted: str) -> Optional[str]:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in program.modules:
            return prefix
    return None


@dataclass(frozen=True)
class RngLabelSite:
    """One RNG fork site, program-wide view."""

    path: str
    module: str
    site: ForkSite

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.site.labels


def collect_rng_labels(
    program: ProgramGraph,
    module_prefix: str = "repro.",
) -> Tuple[RngLabelSite, ...]:
    """Every labelled RNG fork site in modules under *module_prefix*.

    Sites inside :mod:`repro.util.rng` itself (the fork primitives
    relaying ``*labels``) are variadic and carry no literal namespace;
    they stay in the collection flagged ``variadic`` so the registry
    check can skip them explicitly.
    """
    sites: List[RngLabelSite] = []
    for path in sorted(program.files):
        facts = program.files[path]
        if not (facts.module + ".").startswith(module_prefix):
            continue
        for site in facts.fork_sites:
            sites.append(RngLabelSite(path=path, module=facts.module, site=site))
    sites.sort(key=lambda s: (s.path, s.site.line, s.site.col))
    return tuple(sites)
