"""Summaries of measured values, and the parent-versus-change comparison.

``python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl`` labels every
(workload, end-to-end metric) pair:

* ``unresolved`` — the parent's own runs spread (third minus first
  quartile, over the median) wider than the metric's bound, and not every
  run of the change beats every run of the parent;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``improved`` — the change wins at least nine tenths of the pairs (runs
  paired in file order; ties count for neither) and the medians differ by
  more than the parent's quartile spread;
* ``unchanged`` — otherwise.

Both files hold one JSON record per run, as ``--out`` appends them; run
each side at least ten times, alternating which side runs first.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Minimum, first quartile, median, third quartile and count of *values*."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": statistics.median(values), "q3": q3,
            "n": len(values)}


def load_runs(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def judge(parent: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> Tuple[str, Optional[float]]:
    """``(label, relative change of the median)`` for one metric."""
    if not parent or not change:
        return "unresolved", None
    p = summary(parent)
    p_med, spread = p["median"], p["q3"] - p["q1"]
    c_med = statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0

    def beats(c: float, q: float) -> bool:
        return sign * (c - q) < 0

    change_share = (c_med - p_med) / p_med
    if spread / p_med > bound:
        all_better = all(beats(c, q) for c in change for q in parent)
        return ("improved" if all_better else "unresolved"), change_share
    if sign * change_share > bound:
        return "regressed", change_share
    pairs = list(zip(parent, change))
    wins = sum(beats(c, q) for q, c in pairs)
    if wins >= 0.9 * len(pairs) and beats(c_med, p_med) and abs(c_med - p_med) > spread:
        return "improved", change_share
    return "unchanged", change_share


def compare(parent_path: str, change_path: str, spec: dict) -> int:
    """Print one row per workload; 1 if any pair regressed, else 0."""
    parent_runs = load_runs(parent_path)
    change_runs = load_runs(change_path)
    regressed = False
    details = []
    for workload in (w["name"] for w in spec["workloads"]):
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [
                [r["metrics"][name]["value"] for r in runs if r["workload"] == workload]
                for runs in (parent_runs, change_runs)
            ]
            label, share = judge(sides[0], sides[1], metric["better"], metric["bound"])
            regressed |= label == "regressed"
            shown = "n/a" if share is None else f"{share:+.1%}"
            cells.append(f"{name}={label}({shown})")
            for side, values in zip(("parent", "change"), sides):
                if values:
                    s = summary(values)
                    details.append(
                        f"  {workload:<14} {name:<13} {side:<6} median {s['median']:.6g} "
                        f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']}"
                    )
        print(f"{workload:<14} " + "  ".join(cells))
    print("\n".join(details))
    return 1 if regressed else 0
