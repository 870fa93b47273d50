"""E19 — Sharded scaling: scatter-gather throughput and pruning vs S.

Sweeps the shard count S over {1, 2, 4, 8, 16} for three layouts:

* ``uniform/hash``  — uniform weights, seeded-hash placement;
* ``zipf/hash``     — Zipf-skewed weights, seeded-hash placement;
* ``zipf/range``    — Zipf-skewed weights, weight-aware range bands.

and reports, per (layout, S): query throughput, per-shard probes per
query (one top-k probe per contacted shard, asserted), and the mean
fraction of mapped shards a query contacted (the max-probe threshold
pruning at work).  Two structural claims:

1. **Exactness is free of S**: every answer of every sweep point is
   compared to the brute-force oracle — 100% exact, always.
2. **Pruning keeps fan-out sublinear in S.**  The threshold rule is
   *ordinal* (rank-based), so at k <= 8 even hash placement contacts
   ~S(1-(1-1/S)^k)/S shards; with weight-aware range bands on skewed
   data the top-k concentrates in the top band and the contacted
   fraction collapses further.  Acceptance floor (asserted, recorded
   in the JSON): on Zipf weights at S=16 the mean contacted fraction
   stays <= 0.5 — for *both* placements.

Results land as JSON in ``benchmarks/results/e19_sharded_scaling.json``
(the CI sharded-scaling job uploads it as an artifact).

Set ``REPRO_BENCH_QUICK=1`` to run a reduced workload (CI smoke mode).
"""

import json
import os
import random
import time
from pathlib import Path

from repro.bench.tables import render_table
from repro.core.problem import Element, top_k_of
from repro.sharding import sharded_index
from repro.structures.range1d import RangePredicate1D
from repro.structures.range1d_dynamic import DynamicRangeTreap

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
N = 240 if QUICK else 800
QUERIES = 60 if QUICK else 200
MAX_K = 8
SHARD_COUNTS = [1, 2, 4, 8, 16]
ROUNDS = 2 if QUICK else 3      # timing repeats; best round wins
CONTACT_CEILING = 0.5           # acceptance: zipf @ S=16 contacts <= 50%
RESULTS_JSON = (
    Path(__file__).resolve().parent / "results" / "e19_sharded_scaling.json"
)

SPAN = 50 * (N + 10)


def uniform_elements(n, seed=7):
    rng = random.Random(seed)
    coords = rng.sample(range(SPAN), n)
    weights = rng.sample(range(10 * n), n)
    return [Element(float(coords[i]), float(weights[i])) for i in range(n)]


def zipf_elements(n, seed=7, alpha=1.2):
    """Rank r carries ~1/r**alpha of the weight mass (distinct by rank)."""
    rng = random.Random(seed)
    coords = rng.sample(range(SPAN), n)
    return [
        Element(float(coords[r]), 1_000_000.0 / (r + 1) ** alpha)
        for r in range(n)
    ]


def query_workload(count, seed):
    rng = random.Random(seed)
    workload = []
    for _ in range(count):
        a, b = sorted(rng.sample(range(SPAN), 2))
        workload.append(
            (RangePredicate1D(float(a), float(b)), rng.randint(1, MAX_K))
        )
    return workload


def build_index(elements, num_shards, strategy):
    return sharded_index(
        elements,
        DynamicRangeTreap,
        DynamicRangeTreap,
        num_shards=num_shards,
        strategy=strategy,
        seed=5,
        B=2,
    )


def _best_time(fn, rounds=ROUNDS):
    """Best-of-N wall time — the jitter-resistant point estimate."""
    best, result = float("inf"), None
    for _ in range(rounds):
        began = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - began)
    return best, result


def _sweep_point(name, elements, workload, oracle, num_shards, strategy):
    idx = build_index(elements, num_shards, strategy)

    def run():
        return [idx.query(p, k) for p, k in workload]

    seconds, answers = _best_time(run)
    assert answers == oracle, (
        f"{name} S={num_shards}: scatter-gather diverged from the oracle"
    )
    stats = idx.stats
    assert stats.shard_probes == stats.shards_contacted, (
        f"{name} S={num_shards}: a contacted shard was probed more than once"
    )
    return {
        "shards": num_shards,
        "strategy": strategy,
        "queries": len(workload),
        "seconds": round(seconds, 4),
        "qps": round(len(workload) / seconds) if seconds > 0 else 0,
        "probes_per_query": round(stats.probes_per_query, 2),
        "contact_ratio": round(stats.contact_ratio, 3),
        "shards_pruned": stats.shards_pruned,
        "exact_fraction": 1.0,
    }


def bench_e19_sharded_scaling(benchmark, results_sink):
    workload = query_workload(QUERIES, seed=13)
    configs = [
        ("uniform/hash", uniform_elements(N), "hash"),
        ("zipf/hash", zipf_elements(N), "hash"),
        ("zipf/range", zipf_elements(N), "range"),
    ]

    sweeps = {}
    rows = []
    for name, elements, strategy in configs:
        oracle = [top_k_of(elements, p, k) for p, k in workload]
        points = [
            _sweep_point(name, elements, workload, oracle, s, strategy)
            for s in SHARD_COUNTS
        ]
        sweeps[name] = points
        for point in points:
            rows.append(
                [
                    name,
                    point["shards"],
                    point["qps"],
                    point["probes_per_query"],
                    point["contact_ratio"],
                    "100%",
                ]
            )

    # Acceptance: Zipf-skewed weights at S=16 prune past the ceiling.
    zipf_at_16 = {
        name: points[-1]["contact_ratio"]
        for name, points in sweeps.items()
        if name.startswith("zipf")
    }
    for name, ratio in zipf_at_16.items():
        assert ratio <= CONTACT_CEILING, (
            f"{name} @ S=16: contacted {ratio:.1%} of shards per query, "
            f"above the {CONTACT_CEILING:.0%} acceptance ceiling"
        )
    # The weight-aware layout must beat content hashing on skewed data.
    assert zipf_at_16["zipf/range"] <= zipf_at_16["zipf/hash"], (
        "range partitioning should never contact more shards than hash "
        "on Zipf weights"
    )

    results_sink(
        render_table(
            f"E19 Sharded scaling (n={N}, {QUERIES} queries, k<={MAX_K})",
            ["layout", "S", "qps", "probes/q", "contacted", "exact"],
            rows,
            note=f"acceptance: zipf @ S=16 contacts <= {CONTACT_CEILING:.0%} "
            "of shards per query (both placements); every answer equals "
            "the brute-force oracle",
        )
    )

    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(
        json.dumps(
            {
                "quick": QUICK,
                "n": N,
                "queries": QUERIES,
                "max_k": MAX_K,
                "shard_counts": SHARD_COUNTS,
                "contact_ceiling": CONTACT_CEILING,
                "zipf_contact_at_16": zipf_at_16,
                "sweeps": sweeps,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # Timing hook: the full workload at S=8 on the skewed/range layout.
    elements = zipf_elements(N)
    idx = build_index(elements, 8, "range")

    def run_workload():
        return [idx.query(p, k) for p, k in workload]

    benchmark(run_workload)
