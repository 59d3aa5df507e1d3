"""``repro.lint`` — AST-based invariant checking for the reproduction.

The detection engines' headline guarantee (batch == stream == sharded,
finding for finding, given a seed) rests on invariants no type checker
sees: no wall-clock reads in simulated paths, all randomness through
label-forked streams, sorted iteration wherever order reaches output,
fork-safe module state, and one shared metric namespace. This package
turns those invariants into CI-gated rules:

``RL000``  parse/IO error (the linter never crashes on bad input)
``RL101``  wall-clock read in a simulation/detection path
``RL102``  process-global ``random`` use
``RL103``  unsorted iteration over a bare set  *(fixable)*
``RL201``  mutable module-level state in worker-reachable code
``RL301``  metric name not declared in ``repro.obs.names``
``RL302``  live-telemetry hygiene (declared phases, daemon threads)
``RL501``  bare ``except:``  *(fixable)*
``RL502``  broad handler that swallows without re-raise or log
``RL503``  serve-path handler that swallows errors outside the error model
``RL701``  nondeterminism source flows into a run artifact (hop chain)
``RL702``  RNG fork label collision / undeclared / stale declaration
``RL703``  public symbol reachable from no engine, CLI, test, or benchmark

RL7xx are the whole-program tier (:mod:`repro.lint.flow`): per-file facts
are linked into import/call graphs and a taint dataflow, so RL701
findings carry the full source→sink path and can be suppressed at either
end of it. Run ``python -m repro lint [PATHS...]`` (``--jobs N``
parallelizes with identical output; ``--explain PATH:LINE`` prints the
flows through a location; ``--dump-graph FILE`` writes the program
graph); see ``docs/LINTS.md`` for the full catalogue, suppression syntax
(``# repro-lint: disable=RLxxx``), and baseline semantics.
"""

from repro.lint.base import (
    RULE_CLASSES,
    FileContext,
    ImportMap,
    ProjectIndex,
    ProjectRule,
    Rule,
    all_rules,
    register,
)
from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.engine import LintReport, LintRunner, collect_files
from repro.lint.findings import Finding, Fix, Hop
from repro.lint.fixes import apply_fixes, fix_files
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import run_cli
from repro.lint.suppress import parse_suppressions

__all__ = [
    "Baseline",
    "DEFAULT_BASELINE_NAME",
    "FileContext",
    "Finding",
    "Fix",
    "Hop",
    "ImportMap",
    "LintReport",
    "LintRunner",
    "ProjectIndex",
    "ProjectRule",
    "RULE_CLASSES",
    "Rule",
    "all_rules",
    "apply_fixes",
    "collect_files",
    "fix_files",
    "parse_suppressions",
    "register",
    "render_json",
    "render_text",
    "run_cli",
]
