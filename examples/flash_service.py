"""A flash-backed durable top-k service that compacts itself.

A Theorem 2 index persists through the append-only durable store onto
a simulated flash device (``repro.flash``): logical pages live on erase
blocks, overwrites go to fresh pages, and a garbage collector relocates
live data when the free pool runs dry.  The store never overwrites in
place — commits append manifest blocks, and only compaction folds the
manifest and returns dead blocks to the device with TRIM.

That design has a failure mode this script makes visible: under steady
churn the manifest accretes, the fixed flash pool fills, and the FTL
starts relocating live pages on every reclaim — *write amplification*
climbs, wearing out the device and stealing bandwidth.  The ops control
plane watches the device/host write ratio in telemetry; when the
``write_amp_spike`` rule trips, the operator opens an incident, pulls
the ``compact_store`` lever, verifies answers against the oracle, and
closes the incident once telemetry stays quiet.

Watch the timeline: write amplification ratchets up tick by tick, the
incident fires, one compaction trims the dead blocks, and the ratio
falls back to 1.0 — until the garbage accretes again and the loop
repeats.

Run:  python examples/flash_service.py
"""

import random

from repro.core.problem import Element, top_k_of
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.durable import DurableTopKIndex
from repro.durability.store import DurableStore
from repro.em.model import EMContext
from repro.flash.disk import FlashDisk
from repro.flash.ftl import FlashConfig
from repro.ops import Operator
from repro.ops.detector import DetectorPolicy
from repro.ops.operator import OperatorPolicy
from repro.resilience.guard import ResilientTopKIndex
from repro.structures.range1d import RangePredicate1D
from repro.structures.range1d_dynamic import DynamicRangeTreap


def main() -> None:
    rng = random.Random(42)

    # Products with distinct popularity scores, indexed by price.
    n = 24
    churn_total = 12 * 80
    prices = rng.sample(range(100_000), n + churn_total)
    scores = rng.sample(range(1_000_000), n + churn_total)
    catalog = [Element(float(prices[i]), float(scores[i])) for i in range(n)]
    restock = [
        Element(float(prices[i]), float(scores[i]))
        for i in range(n, n + churn_total)
    ]

    # A small flash device: 8-page erase blocks, a 112-page logical
    # pool, 10% over-provisioning.  Tight on purpose — a real fleet
    # sizes stores to their data, not to their garbage.
    disk = FlashDisk(config=FlashConfig(
        pages_per_block=8, capacity_pages=112, overprovision=0.1,
    ))
    ctx = EMContext(B=8, disk=disk)
    store = DurableStore(ctx=ctx, B=8)
    inner = ExpectedTopKIndex(
        catalog, DynamicRangeTreap, DynamicRangeTreap, seed=3
    )
    durable = DurableTopKIndex(inner, store=store, commit_interval=4)
    guard = ResilientTopKIndex(durable)

    probes = [
        (RangePredicate1D(float(lo), float(lo + 40_000)), k)
        for lo in range(0, 60_001, 15_000)
        for k in (3, 5)
    ]
    operator = Operator(
        guard=guard,
        policy=OperatorPolicy(cooldown_ticks=1, clear_ticks=2),
        detector_policy=DetectorPolicy(
            write_amp_max=1.5, write_amp_min_writes=8,
        ),
        probes=probes,
    )

    live = list(catalog)
    supply = iter(restock)
    print("tick |  WA/tick  wear(max/mean) | event")
    print("-----+-------------------------+------------------------------------")
    for tick in range(1, 81):
        # Steady churn: a dozen delist/restock pairs, then a checkpoint.
        for _ in range(12):
            gone = live.pop(0)
            durable.delete(gone)
            fresh = next(supply)
            durable.insert(fresh)
            live.append(fresh)
        durable.checkpoint()
        top = guard.query(RangePredicate1D(0.0, 100_000.0), 5)
        assert top == top_k_of(live, RangePredicate1D(0.0, 100_000.0), 5)

        report = operator.tick()
        sample = report.sample
        events = []
        for incident in report.opened:
            events.append(f"!! incident opened: {incident.kind}")
        for action in report.actions:
            events.append(f"-> {action.lever}: {action.outcome}"
                          + (" (verified)" if action.verified else ""))
        for incident in report.resolved:
            events.append(f"ok incident resolved: {incident.kind}")
        if events or sample.storage_write_amp >= 1.2:
            wear = f"{sample.flash_max_wear}/{sample.flash_mean_wear:.1f}"
            first = events[0] if events else ""
            print(f"{tick:4d} |  {sample.storage_write_amp:7.2f}  "
                  f"{wear:>14s} | {first}")
            for extra in events[1:]:
                print(f"     |                         | {extra}")

    stats = disk.ftl.stats
    print()
    print(f"device totals: {stats.host_writes} host writes, "
          f"{stats.device_writes} device writes "
          f"(lifetime WA {stats.write_amplification:.3f}), "
          f"{stats.erases} erases, {stats.trims} trims, "
          f"{store.compactions} compactions")
    incidents = operator.log.incidents
    print(f"incidents: {len(incidents)} opened, "
          f"{sum(1 for i in incidents if i.resolved_at) } resolved")
    final = guard.query(RangePredicate1D(0.0, 100_000.0), 10)
    oracle = top_k_of(live, RangePredicate1D(0.0, 100_000.0), 10)
    print(f"final answers oracle-exact: {final == oracle}")


if __name__ == "__main__":
    main()
