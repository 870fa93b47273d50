"""A replicated top-k service that survives losing its primary machine.

Three simulated machines — each with its own disk, fault plan, and
durable index — serve one logical top-k index through
:class:`repro.replication.ReplicaSet`:

1. every update commits to the primary's write-ahead log and is
   *shipped* to both followers, whose acknowledgement is their own
   durable commit;
2. the primary machine is then killed mid-workload; the cluster
   promotes the follower with the highest durable LSN, replays its
   committed-but-unapplied tail, and the interrupted insert retries
   idempotently — clients never see the difference;
3. one replica's disk silently rots a sealed block; the anti-entropy
   scrub detects it, resyncs the machine from a clean source, and
   proves bit-for-bit convergence;
4. the whole cluster rides inside a :class:`ResilientTopKIndex` as
   the ladder's primary rung, while the cluster's own stats report
   promotions, scrub repairs, and per-replica lag.

Run:  python examples/replicated_service.py
"""

import random

from repro.core.problem import Element, top_k_of
from repro.replication import ReplicaSet, replicated_index
from repro.resilience.guard import ResilientTopKIndex
from repro.structures.range1d import RangePredicate1D
from repro.structures.range1d_dynamic import DynamicRangeTreap


def main() -> None:
    rng = random.Random(21)
    coords = rng.sample(range(200_000), 900)
    listings = [Element(float(c), float(i) + 0.5) for i, c in enumerate(coords[:600])]
    arrivals = [
        Element(float(c), 600.0 + i) for i, c in enumerate(coords[600:])
    ]

    # ------------------------------------------------------------------
    # 1. Three machines, one index.
    # ------------------------------------------------------------------
    cluster = replicated_index(
        listings, DynamicRangeTreap, DynamicRangeTreap,
        num_replicas=3, seed=4, B=16,
    )
    print(f"cluster up: {cluster!r}")

    hot = RangePredicate1D(0.0, 200_000.0)
    for element in arrivals[:40]:
        cluster.insert(element)
    print(f"replica lag (lazy followers): {cluster.replica_lag()}")
    answer = cluster.query(hot, 5, mode="primary")
    print(f"top-5 weights: {[e.weight for e in answer]}")

    # ------------------------------------------------------------------
    # 2. Kill the primary mid-stream.
    # ------------------------------------------------------------------
    doomed = cluster.primary.name
    cluster.primary.plan.schedule_crash(at_io=3)
    for element in arrivals[40:80]:
        cluster.insert(element)  # one of these dies mid-commit and retries
    print(
        f"\n{doomed} died; promoted {cluster.primary.name} "
        f"(replayed {cluster.stats.failover_records_replayed} unapplied records)"
    )
    everything = listings + arrivals[:80]
    got = cluster.query(hot, 8)
    assert got == top_k_of(everything, hot, 8), "failover lost an update!"
    print("post-failover top-8 matches the brute-force oracle exactly")

    # ------------------------------------------------------------------
    # 3. Silent disk rot, caught and repaired.
    # ------------------------------------------------------------------
    victim = [r for r in cluster.replicas if not r.is_primary and r.alive][0]
    block = victim.store.snapshots[0].head_block
    victim.store.disk.raw_write(block, ["cosmic ray"])
    victim.store.ctx.drop_cache()
    report = cluster.scrub()
    reborn = next(r for r in cluster.replicas if r.name == victim.name)
    assert reborn.state_digest() == cluster.primary.state_digest()
    print(
        f"\nscrub: divergent={report.divergent} repaired={report.repaired} "
        f"({report.records_resynced} WAL records resynced); digests agree again"
    )

    # ------------------------------------------------------------------
    # 4. The cluster as a ladder rung.
    # ------------------------------------------------------------------
    guard = ResilientTopKIndex(cluster, elements=everything)
    guard.query(hot, 5)
    stats = cluster.stats
    print(
        f"\nhealth: promotions={stats.promotions} "
        f"scrub_repairs={stats.scrub_repairs} "
        f"replica_lag={cluster.replica_lag()}"
    )


if __name__ == "__main__":
    main()
