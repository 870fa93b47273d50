"""A horizontally sharded top-k service that scales and rebalances online.

One logical index over 200k-coordinate listings is partitioned across
four simulated shard machines by
:class:`repro.sharding.ShardedTopKIndex`:

1. a weight-aware range partitioner places every listing into one of
   64 virtual buckets; an epoch-stamped shard map assigns buckets to
   machines, each holding its own durable Theorem 2 index plus a
   coordinator-side max structure;
2. queries run as an exact **scatter-gather**: one cheap max probe
   bounds each shard, shards are visited in descending bound order,
   and the running k-th weight prunes every shard whose bound cannot
   crack the answer — on skewed weights most shards are never
   contacted;
3. the hottest shard is **split online** inside the router's
   topology-change window: the map's epoch is bumped and latched in
   flux first (in-flight queries retry, new ones block rather than
   plan against mid-move contents), the donor is checkpointed, the
   moving elements are handed over under WAL protection, and the new
   topology is installed — releasing the latch;
4. a shard machine is killed mid-workload; the query path recovers it
   from its surviving disk on the spot (snapshot + replayed WAL tail)
   and the answer is still exact;
5. the whole thing rides behind a :class:`ServingEngine`, whose
   epoch-aware result cache and parallel fan-out work unchanged; the
   sharded index's own stats report churn and pruning efficiency.

Run:  python examples/sharded_service.py
"""

import random

from repro.core.problem import Element, top_k_of
from repro.serving import ServingEngine
from repro.sharding import sharded_index
from repro.structures.range1d import RangePredicate1D
from repro.structures.range1d_dynamic import DynamicRangeTreap


def main() -> None:
    rng = random.Random(33)
    coords = rng.sample(range(200_000), 700)
    # Zipf-ish relevance: a few listings carry most of the weight.
    listings = [
        Element(float(c), 1_000_000.0 / (i + 1) ** 1.1)
        for i, c in enumerate(coords)
    ]

    # ------------------------------------------------------------------
    # 1. Four shard machines, one logical index.
    # ------------------------------------------------------------------
    index = sharded_index(
        listings, DynamicRangeTreap, DynamicRangeTreap,
        num_shards=4, strategy="range", seed=9,
    )
    print(f"sharded index up: {index!r}")
    print(f"  shard sizes: {index.router.shard_sizes()}")

    # ------------------------------------------------------------------
    # 2. Exact scatter-gather with threshold pruning.
    # ------------------------------------------------------------------
    everywhere = RangePredicate1D(0.0, 200_000.0)
    answer = index.query(everywhere, 5)
    assert answer == top_k_of(listings, everywhere, 5)
    stats = index.stats
    print(
        f"top-5 exact; contacted {stats.shards_contacted} of "
        f"{stats.shard_slots} shard slots (pruned {stats.shards_pruned})"
    )

    # ------------------------------------------------------------------
    # 3. Online split of the hottest shard.
    # ------------------------------------------------------------------
    donor, freshly_minted = index.split_shard()
    print(
        f"split {donor} -> +{freshly_minted}; epoch now "
        f"{index.router.epoch}, sizes {index.router.shard_sizes()}"
    )
    assert index.query(everywhere, 5) == top_k_of(listings, everywhere, 5)

    # ------------------------------------------------------------------
    # 4. Kill a machine; the query path recovers it from its disk.
    # ------------------------------------------------------------------
    victim = index.router.shard_for(max(listings, key=lambda e: e.weight))
    victim.machine.mark_dead()
    print(f"killed {victim.name} (holds the heaviest listing)")
    assert index.query(everywhere, 5) == top_k_of(listings, everywhere, 5)
    print(
        f"still exact; recoveries={index.stats.shard_recoveries}, "
        f"machine alive again: {victim.machine.alive}"
    )

    # ------------------------------------------------------------------
    # 5. Serve it: cache + batching + parallel fan-out.
    # ------------------------------------------------------------------
    with ServingEngine(index, pool_size=2, parallel_threshold=3) as engine:
        requests = [
            (RangePredicate1D(float(lo), float(lo + 60_000)), 3)
            for lo in range(0, 140_001, 20_000)
        ]
        answers = engine.serve(requests)
        for (predicate, k), got in zip(requests, answers):
            assert got == top_k_of(listings, predicate, k)
        print(
            f"served {len(requests)} requests exactly; "
            f"shards={index.router.num_shards}, "
            f"splits={index.stats.splits}, "
            f"contact ratio={index.stats.contact_ratio:.2f}"
        )


if __name__ == "__main__":
    main()
