"""``repro.lint.flow`` — the cross-file facts behind RL301/RL302/RL702/RL703.

The per-file rules check one statement at a time; the cross-file rules
need a view of the whole scanned set. This package extracts a compact
fact base per module (:mod:`facts`) and links the facts into an import
graph and alias-resolved symbol table (:mod:`graphs`), from which the
RNG fork-label registry (RL702) and the dead-export reachability
(RL703) are read.

Determinism of the run artifacts is not checked here: a nondeterministic
value reaching a bundle, findings file or metric label is caught by
running the pipeline twice and comparing bytes
(``tests/test_determinism.py``).

Public API::

    facts    = extract_module_facts(path, source)      # per file
    program  = ProgramGraph.build({path: facts, ...})  # import graph + symbols
    labels   = collect_rng_labels(program)             # fork-site registry
"""

from repro.lint.flow.facts import (
    ModuleFacts,
    extract_module_facts,
    module_name_for_path,
)
from repro.lint.flow.graphs import (
    ProgramGraph,
    build_import_graph,
    collect_rng_labels,
)

__all__ = [
    "ModuleFacts",
    "ProgramGraph",
    "build_import_graph",
    "collect_rng_labels",
    "extract_module_facts",
    "module_name_for_path",
]
