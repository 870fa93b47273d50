"""E24 — Write amplification: the FTL under the durable store.

Three claims about ``repro.flash`` + ``DurableStore``:

1. **Compaction pays for itself.**  A steady churn workload on a
   fixed-pool flash device accretes manifest/WAL/snapshot garbage; with
   periodic ``compact_store()`` the steady-state write amplification
   (device writes per host write, measured over the post-warmup tail)
   stays >= 1.5x lower than the identical workload that never compacts.
2. **No crash point loses committed data.**  A deterministic sweep
   kills the machine at transfer boundaries of the insert workload, at
   transfer boundaries *inside a compaction*, and mid-flight inside the
   FTL's own garbage collection (after each relocation copy) — and
   every recovered index must match the brute-force oracle exactly at
   a committed prefix of the workload.
3. **Wear is observable.**  Per-erase-block wear counters and the
   host/device write ledger feed the report (and, in the live stack,
   the ops plane's ``write_amp_spike`` / ``wear_imbalance`` rules).

Results land as JSON in
``benchmarks/results/e24_write_amplification.json`` (the
``flash-durability`` CI job uploads it as an artifact).

Set ``REPRO_BENCH_QUICK=1`` for the reduced CI workload.
"""

import json
import os
import random
from pathlib import Path

from repro.bench.tables import render_table
from repro.core.problem import Element, top_k_of
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.durable import DurableTopKIndex
from repro.durability.recovery import recover_index
from repro.durability.store import DurableStore
from repro.em.model import Disk, EMContext
from repro.flash.disk import FlashDisk
from repro.flash.ftl import FlashConfig
from repro.resilience.errors import SimulatedCrash
from repro.resilience.faults import FaultPlan
from repro.structures.range1d import RangePredicate1D
from repro.structures.range1d_dynamic import DynamicRangeTreap

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

BASE_N = 40
EXTRA_N = 120
GROUP = 4          # commit interval of every durable victim
CHECKPOINT_EVERY = 8
K = 10

# Ablation workload (claim 1).  Cheap enough (<1 s) to run in full even
# in quick mode — the WA climb needs ~60 rounds of manifest accretion
# before the never-compacted run starts thrashing GC.
ABLATION_ROUNDS = 100
CHURN_PER_ROUND = 8
COMPACT_EVERY = 8

# Crash sweep (claim 2): workload / mid-compaction / mid-GC points.
# The full sweep totals 200 crash points.
WORKLOAD_POINTS = 20 if QUICK else 120
COMPACT_POINTS = 12 if QUICK else 50
GC_POINTS = 8 if QUICK else 30
WORKLOAD_STRIDE = 24 if QUICK else 4    # the workload spans ~470 transfers
COMPACT_STRIDE = 11 if QUICK else 2     # a compaction spans ~130 transfers

CHECK_QUERIES = 8 if QUICK else 15

RESULTS_JSON = (
    Path(__file__).resolve().parent / "results" / "e24_write_amplification.json"
)


def point_elements(n, start=0):
    """1D points with globally distinct coords and weights."""
    total = BASE_N + EXTRA_N + 2 * ABLATION_ROUNDS * CHURN_PER_ROUND
    rng = random.Random(1234)
    coords = rng.sample(range(10 * total), total)
    return [Element(float(coords[i]), float(i) + 0.5) for i in range(start, start + n)]


def restore_fn(state):
    return ExpectedTopKIndex.restore(state, DynamicRangeTreap, DynamicRangeTreap)


def build_fn(elements):
    return ExpectedTopKIndex(elements, DynamicRangeTreap, DynamicRangeTreap, seed=0)


def _victim(config=None):
    """A durable Theorem 2 index on a flash-backed store."""
    plan = FaultPlan(armed=False)
    disk = FlashDisk(config=config or FlashConfig(pages_per_block=8))
    ctx = EMContext(B=8, disk=disk, fault_plan=plan)
    store = DurableStore(ctx=ctx, B=8)
    inner = ExpectedTopKIndex(
        point_elements(BASE_N), DynamicRangeTreap, DynamicRangeTreap, seed=7
    )
    durable = DurableTopKIndex(inner, store=store, commit_interval=GROUP)
    return durable, plan


def _insert_workload(durable, extras):
    """The sweep workload: group-committed inserts, periodic checkpoints."""
    applied = 0
    for i, element in enumerate(extras):
        durable.insert(element)
        applied += 1
        if i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
            durable.checkpoint()
    return applied


def _range_queries(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b = sorted(rng.sample(range(10 * 10_000), 2))
        out.append(RangePredicate1D(float(a), float(b)))
    return out


# ----------------------------------------------------------------------
# E24a — compaction ablation
# ----------------------------------------------------------------------
def _churn_run(compact_every, device="flash"):
    """Steady-state churn on a deliberately tight fixed pool.

    Every round deletes and re-inserts ``CHURN_PER_ROUND`` elements and
    checkpoints; manifest blocks accrete one (or two) per commit and are
    only reclaimed by compaction, so the never-compacted run climbs
    toward GC thrash while the compacted run stays near WA = 1.

    ``device="plain"`` runs the identical workload on the magnetic
    ``Disk``, where overwrites are free — the device axis of the
    comparison: a plain disk's write amplification is 1 by construction.
    """
    if device == "plain":
        disk = Disk()
    else:
        disk = FlashDisk(config=FlashConfig(
            pages_per_block=8, capacity_pages=112, overprovision=0.1,
        ))
    ctx = EMContext(B=8, disk=disk)
    store = DurableStore(ctx=ctx, B=8)
    inner = ExpectedTopKIndex(
        point_elements(BASE_N), DynamicRangeTreap, DynamicRangeTreap, seed=7
    )
    durable = DurableTopKIndex(inner, store=store, commit_interval=GROUP)
    live = point_elements(BASE_N)
    pool = iter(point_elements(
        ABLATION_ROUNDS * CHURN_PER_ROUND, start=BASE_N + EXTRA_N
    ))
    def device_ledger():
        if device == "plain":
            # Overwrite-in-place: one host write is one device write.
            return ctx.stats.writes, ctx.stats.writes
        return disk.ftl.stats.host_writes, disk.ftl.stats.device_writes

    warm_host = warm_device = 0
    warmup = ABLATION_ROUNDS // 3
    for round_no in range(1, ABLATION_ROUNDS + 1):
        for _ in range(CHURN_PER_ROUND):
            victim = live.pop(0)
            durable.delete(victim)
            fresh = next(pool)
            durable.insert(fresh)
            live.append(fresh)
        durable.checkpoint()
        if compact_every and round_no % compact_every == 0:
            durable.compact_store()
        if round_no == warmup:
            warm_host, warm_device = device_ledger()
    host, dev = device_ledger()
    tail_wa = (dev - warm_device) / max(host - warm_host, 1)
    if device == "plain":
        return {
            "tail_write_amp": 1.0,
            "total_write_amp": 1.0,
            "gc_page_copies": 0,
            "erases": 0,
            "compactions": store.compactions,
            "max_wear": 0,
            "mean_wear": 0.0,
        }
    stats = disk.ftl.stats
    return {
        "tail_write_amp": round(tail_wa, 4),
        "total_write_amp": round(stats.write_amplification, 4),
        "gc_page_copies": stats.gc_page_copies,
        "erases": stats.erases,
        "compactions": store.compactions,
        "max_wear": disk.ftl.max_wear,
        "mean_wear": round(disk.ftl.mean_wear, 3),
    }


# ----------------------------------------------------------------------
# E24b — the flash crash sweep
# ----------------------------------------------------------------------
def _verify_recovery(disk, applied, extras, predicates, point):
    recovered = DurableTopKIndex.recover(
        disk, restore_fn, build_fn, B=8, commit_interval=GROUP
    )
    result = recovered.recovery
    assert result.audit.ok, f"audit failed at {point}"
    assert not result.rebuilt, f"unnecessary rebuild at {point}"
    n_extra = recovered.n - BASE_N
    assert 0 <= n_extra <= applied, f"phantom inserts at {point}"
    assert n_extra % GROUP == 0, f"partial commit group survived at {point}"
    oracle = point_elements(BASE_N) + extras[:n_extra]
    assert set(result.elements) == set(oracle), f"element drift at {point}"
    for predicate in predicates:
        got = recovered.query(predicate, K)
        want = top_k_of(oracle, predicate, K)
        assert got == want, (
            f"{point}: recovered answer diverged from the never-crashed "
            f"oracle at prefix {n_extra}"
        )
    return n_extra


def _run_sweep():
    extras = point_elements(EXTRA_N, start=BASE_N)
    predicates = _range_queries(CHECK_QUERIES, seed=31)
    outcomes = {
        "workload": {"points": 0, "crashed": 0, "prefixes": set()},
        "compaction": {"points": 0, "crashed": 0, "prefixes": set()},
        "gc": {"points": 0, "crashed": 0, "prefixes": set()},
    }

    # -- crash at transfer boundaries of the insert workload ----------
    for index in range(WORKLOAD_POINTS):
        at_io = 1 + index * WORKLOAD_STRIDE
        durable, plan = _victim()
        plan.schedule_crash(at_io=at_io, torn_fraction=0.5)
        applied = 0
        crashed = True
        try:
            applied = _insert_workload(durable, extras)
            crashed = False
        except SimulatedCrash:
            applied = durable.inner.n - BASE_N
        bucket = outcomes["workload"]
        bucket["points"] += 1
        bucket["crashed"] += 1 if crashed else 0
        prefix = _verify_recovery(
            durable.store.disk, applied if crashed else EXTRA_N, extras,
            predicates, point=f"workload at_io={at_io}",
        )
        bucket["prefixes"].add(prefix)

    # -- crash at transfer boundaries inside a compaction -------------
    for index in range(COMPACT_POINTS):
        at_io = 1 + index * COMPACT_STRIDE
        durable, plan = _victim()
        _insert_workload(durable, extras)
        plan.schedule_crash(at_io=at_io, torn_fraction=0.5)
        crashed = True
        try:
            durable.compact_store()
            crashed = False
        except SimulatedCrash:
            pass
        bucket = outcomes["compaction"]
        bucket["points"] += 1
        bucket["crashed"] += 1 if crashed else 0
        # Everything was committed before the compaction began, so no
        # crash point inside it may lose a single element.
        prefix = _verify_recovery(
            durable.store.disk, EXTRA_N, extras, predicates,
            point=f"compaction at_io={at_io}",
        )
        assert prefix == EXTRA_N, f"compaction crash lost data at at_io={at_io}"
        bucket["prefixes"].add(prefix)

    # -- crash inside the FTL's garbage collector ---------------------
    gc_config = FlashConfig(pages_per_block=4, capacity_pages=48, overprovision=0.1)
    for index in range(GC_POINTS):
        durable, _ = _victim(config=gc_config)
        disk = durable.store.disk
        disk.ftl.schedule_gc_crash(after_copies=index)
        applied = 0
        crashed = True
        try:
            applied = _insert_workload(durable, extras)
            crashed = False
        except SimulatedCrash as crash:
            assert "garbage collection" in str(crash)
            applied = durable.inner.n - BASE_N
        bucket = outcomes["gc"]
        bucket["points"] += 1
        bucket["crashed"] += 1 if crashed else 0
        prefix = _verify_recovery(
            disk, applied if crashed else EXTRA_N, extras, predicates,
            point=f"gc after_copies={index}",
        )
        bucket["prefixes"].add(prefix)

    return outcomes


def bench_e24_write_amplification(benchmark, results_sink):
    # E24a — the ablation.
    plain = _churn_run(compact_every=0, device="plain")
    no_compact = _churn_run(compact_every=0)
    compacted = _churn_run(compact_every=COMPACT_EVERY)
    ratio = no_compact["tail_write_amp"] / compacted["tail_write_amp"]
    assert compacted["compactions"] > 0
    assert ratio >= 1.5, (
        f"compaction gained only {ratio:.2f}x on steady-state write "
        f"amplification ({no_compact['tail_write_amp']} vs "
        f"{compacted['tail_write_amp']})"
    )
    results_sink(
        render_table(
            f"E24a Compaction ablation ({ABLATION_ROUNDS} churn rounds, "
            f"fixed 112-page pool)",
            ["variant", "tail WA", "total WA", "GC copies", "erases",
             "max wear", "mean wear"],
            [
                ["plain disk", plain["tail_write_amp"],
                 plain["total_write_amp"], plain["gc_page_copies"],
                 plain["erases"], plain["max_wear"], plain["mean_wear"]],
                ["never compact", no_compact["tail_write_amp"],
                 no_compact["total_write_amp"], no_compact["gc_page_copies"],
                 no_compact["erases"], no_compact["max_wear"],
                 no_compact["mean_wear"]],
                [f"compact every {COMPACT_EVERY}", compacted["tail_write_amp"],
                 compacted["total_write_amp"], compacted["gc_page_copies"],
                 compacted["erases"], compacted["max_wear"],
                 compacted["mean_wear"]],
            ],
            note=f"steady-state (post-warmup) device/host write ratio; "
            f"compaction wins {ratio:.2f}x (floor 1.5x)",
        )
    )

    # E24b — the crash sweep.
    outcomes = _run_sweep()
    total_points = sum(b["points"] for b in outcomes.values())
    total_crashed = sum(b["crashed"] for b in outcomes.values())
    assert total_points == WORKLOAD_POINTS + COMPACT_POINTS + GC_POINTS
    assert outcomes["workload"]["crashed"] >= WORKLOAD_POINTS // 2
    assert outcomes["compaction"]["crashed"] >= COMPACT_POINTS // 2
    assert len(outcomes["workload"]["prefixes"]) > 1
    results_sink(
        render_table(
            "E24b Flash crash sweep (workload, mid-compaction, mid-GC)",
            ["phase", "points", "crashed", "distinct prefixes", "mismatches"],
            [
                [phase, b["points"], b["crashed"], len(b["prefixes"]), 0]
                for phase, b in outcomes.items()
            ],
            note=f"{total_points} crash points ({total_crashed} actually "
            "died); every recovered index matched the brute-force oracle "
            "exactly at a committed prefix",
        )
    )

    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(
        json.dumps(
            {
                "quick": QUICK,
                "ablation": {
                    "plain_disk": plain,
                    "no_compact": no_compact,
                    "compacted": compacted,
                    "ratio": round(ratio, 4),
                    "floor": 1.5,
                },
                "crash_sweep": {
                    phase: {
                        "points": b["points"],
                        "crashed": b["crashed"],
                        "distinct_prefixes": len(b["prefixes"]),
                        "mismatches": 0,
                    }
                    for phase, b in outcomes.items()
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # Timing: one full recovery (mount + snapshot + replay + audit) of a
    # flash platter that died mid-workload.  recover_index does not
    # mutate the disk, so repeated rounds measure identical work.
    durable, plan = _victim()
    plan.schedule_crash(at_io=400, torn_fraction=0.5)
    try:
        _insert_workload(durable, point_elements(EXTRA_N, start=BASE_N))
    except SimulatedCrash:
        pass

    def run_recovery():
        store = DurableStore.open(durable.store.disk, B=8)
        recover_index(store, restore_fn, build_fn)

    benchmark(run_recovery)
