"""Program-wide RNG fork sites, collected from per-file facts.

:func:`collect_rng_labels` gathers every labelled fork site that
:func:`~repro.lint.flow.facts.extract_module_facts` recorded across the
scanned files, in a stable order, for the RNG label registry (RL702).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.lint.flow.facts import ForkSite, ModuleFacts


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
    files: Dict[str, ModuleFacts],
    module_prefix: str = "repro.",
) -> Tuple[RngLabelSite, ...]:
    """Every labelled RNG fork site of *files* (path -> facts) in modules
    under *module_prefix*.

    Sites inside :mod:`repro.util.rng` itself (the fork primitives
    relaying ``*labels``) are variadic and carry no literal namespace;
    they stay in the collection flagged ``variadic`` so the registry
    check can skip them explicitly.
    """
    sites: List[RngLabelSite] = []
    for path in sorted(files):
        facts = files[path]
        if not (facts.module + ".").startswith(module_prefix):
            continue
        for site in facts.fork_sites:
            sites.append(RngLabelSite(path=path, module=facts.module, site=site))
    sites.sort(key=lambda s: (s.path, s.site.line, s.site.col))
    return tuple(sites)
