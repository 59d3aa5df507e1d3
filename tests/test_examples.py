"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them from
rotting. Scale-parameterized examples run at a tiny scale.
"""

import subprocess
import sys
from pathlib import Path

import pytest

_EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: (script, extra argv) — small scales keep the suite fast.
_CASES = [
    ("quickstart.py", ["0.02"]),
    ("lifetime_policy_analysis.py", ["0.02"]),
    ("domain_acquisition_check.py", []),
]


@pytest.mark.parametrize("script,argv", _CASES, ids=[c[0] for c in _CASES])
def test_example_runs(script, argv):
    completed = subprocess.run(
        [sys.executable, str(_EXAMPLES / script), *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "example produced no output"


def test_examples_directory_fully_covered():
    """Every example on disk has a smoke test here."""
    on_disk = {p.name for p in _EXAMPLES.glob("*.py")}
    covered = {script for script, _ in _CASES}
    assert on_disk == covered
