"""Compare two sets of e2e benchmark passes against BENCHMARK.json bounds.

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``run.py --json`` (each
a ``{"passes": [...]}`` document; run ``run.py`` several times with
different seeds and the same ``--json`` file to build a set).  For each
workload and end-to-end metric the report gives each side's median and
quartiles and a verdict on B against A:

* ``within``     B's median is no worse than A's by more than the bound;
* ``outside``    B's median is worse than A's by more than the bound;
* ``unresolved`` either side's spread (quartile distance over median)
  is wider than the bound, so the sets cannot tell.

Exits 1 when any verdict is ``outside``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent.parent


def load_values(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> values`` over the file's untraced passes."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    values: Dict[str, Dict[str, List[float]]] = {}
    for entry in doc["passes"]:
        if entry.get("trace"):
            continue
        for workload, result in entry["workloads"].items():
            for name, metric in result["end_to_end"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"]
                )
    return values


def summary(values: List[float]) -> Optional[dict]:
    if not values:
        return None
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "count": len(values)}


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple:
    """``(verdict, worse_share)``; positive ``worse_share`` means B is worse."""
    if a["median"] == 0:
        return "unresolved", 0.0
    change = (b["median"] - a["median"]) / a["median"]
    worse = change if better == "lower" else -change
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved", worse
    return ("outside" if worse > bound else "within"), worse


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    side_a, side_b = load_values(argv[0]), load_values(argv[1])

    def side(s: dict) -> str:
        text = f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {s['spread']:.1%}"
        return f"{text:>38s}"

    print(f"{'workload':10s} {'metric':12s} {'A median [q1, q3] spread':>38s} "
          f"{'B median [q1, q3] spread':>38s} {'B worse':>8s} {'bound':>6s}  verdict")
    outside = 0
    passes = set()
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            a = summary(side_a.get(name, {}).get(metric["name"], []))
            b = summary(side_b.get(name, {}).get(metric["name"], []))
            if a is None or b is None:
                print(f"{name:10s} {metric['name']:12s} missing on "
                      f"{'A' if a is None else 'B'}")
                continue
            result, worse = verdict(a, b, metric["bound"], metric["better"])
            outside += result == "outside"
            passes.update((a["count"], b["count"]))
            print(f"{name:10s} {metric['name']:12s} {side(a)} {side(b)} "
                  f"{worse:>+8.1%} {metric['bound']:>6.0%}  {result}")
    print(f"passes per workload and side: {sorted(passes)}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
