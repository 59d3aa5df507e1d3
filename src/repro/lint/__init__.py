"""``repro.lint`` — AST-based invariant checking for the reproduction.

The detection engines' headline guarantee (batch == stream == sharded,
finding for finding, given a seed) rests on invariants no type checker
sees: no wall-clock reads in simulated paths, all randomness through
label-forked streams, and sorted iteration wherever order reaches
output. This package turns those invariants into CI-gated rules:

``RL000``  parse/IO error (the linter never crashes on bad input)
``RL101``  wall-clock read in a simulation/detection path
``RL102``  process-global ``random`` use
``RL103``  unsorted iteration over a bare set
``RL501``  bare ``except:``
``RL502``  broad handler that swallows without re-raise or log
``RL503``  serve-path handler that swallows errors outside the error model
``RL702``  RNG fork label collision / undeclared / stale declaration
``RL703``  public symbol reachable from no engine, CLI, or benchmark

RL7xx read per-file facts linked across the scanned set
(:mod:`repro.lint.flow`). Whether a nondeterministic value actually
reaches a run artifact is not decided statically: ``tests/test_determinism.py``
runs the pipeline twice under different hash seeds, shard counts and
directory orders and compares every artifact byte for byte. Metric
names, progress phases and module state are not linted either: a name
missing from ``repro.obs.names`` fails the ``--metrics-out`` wiring
tests, ``phase_progress`` raises on an undeclared phase, and state that
diverges across detector workers fails the batch == parallel suites. Run
``python -m repro lint [PATHS...]`` (one serial pass); see
``docs/LINTS.md`` for the full catalogue and the suppression syntax
(``# repro-lint: disable=RLxxx``).
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
from repro.lint.engine import LintReport, LintRunner, collect_files
from repro.lint.findings import Finding
from repro.lint.reporters import render_text
from repro.lint.runner import run_cli
from repro.lint.suppress import parse_suppressions

__all__ = [
    "FileContext",
    "Finding",
    "ImportMap",
    "LintReport",
    "LintRunner",
    "ProjectIndex",
    "ProjectRule",
    "RULE_CLASSES",
    "Rule",
    "all_rules",
    "collect_files",
    "parse_suppressions",
    "register",
    "render_text",
    "run_cli",
]
