"""DurableStore's append-only layout on plain and flash disks:
mount/commit/compact, recycling, audit reads, crash safety."""

import random

import pytest

from toy import RangePredicate, ToyMax, ToyPrioritized, make_toy_elements
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.durable import DurableTopKIndex
from repro.durability.store import DurableStore
from repro.em.model import Disk, EMContext
from repro.flash.disk import FlashDisk
from repro.flash.ftl import FlashConfig
from repro.resilience.errors import SimulatedCrash
from repro.resilience.faults import FaultPlan


def restore_fn(state):
    return ExpectedTopKIndex.restore(state, ToyPrioritized, ToyMax)


def build_fn(elements):
    return ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=0)


def top_k_of(elements, predicate, k):
    matching = [e for e in elements if predicate.matches(e.obj)]
    matching.sort(key=lambda e: -e.weight)
    return matching[:k]


def log_victim(device="flash", config=None, commit_interval=4):
    plan = FaultPlan(armed=False)
    if device == "flash":
        disk = FlashDisk(config=config or FlashConfig(
            pages_per_block=8, capacity_pages=320, overprovision=0.25,
        ))
    else:
        disk = Disk()
    ctx = EMContext(B=8, disk=disk, fault_plan=plan)
    store = DurableStore(ctx=ctx, B=8)
    inner = ExpectedTopKIndex(
        make_toy_elements(30, seed=1), ToyPrioritized, ToyMax, seed=3
    )
    durable = DurableTopKIndex(inner, store=store, commit_interval=commit_interval)
    return durable, plan


def assert_matches_oracle(recovered, oracle_elements):
    assert set(recovered.recovery.elements) == set(oracle_elements)
    rng = random.Random(41)
    for _ in range(15):
        a, b = sorted((rng.uniform(-5, 2500), rng.uniform(-5, 2500)))
        k = rng.randint(1, 8)
        assert recovered.query(RangePredicate(a, b), k) == top_k_of(
            oracle_elements, RangePredicate(a, b), k
        )


class TestRootPublication:
    @pytest.mark.parametrize("device", ["plain", "flash"])
    def test_checkpointed_state_survives_a_remount(self, device):
        durable, _ = log_victim(device=device)
        extras = make_toy_elements(24, seed=2, weight_offset=0.5)
        for element in extras:
            durable.insert(element)
        durable.checkpoint()
        recovered = DurableTopKIndex.recover(
            durable.store.disk, restore_fn, build_fn, B=8
        )
        assert_matches_oracle(
            recovered, make_toy_elements(30, seed=1) + extras
        )

    def test_anchors_are_cold_under_checkpoints(self):
        # The whole point of the layout: commits append to the manifest
        # and never touch blocks 0/1 — only compaction flips an anchor.
        durable, _ = log_victim()
        store = durable.store
        anchors_before = [
            list(store.disk.raw_read(bid)) for bid in (0, 1)
        ]
        for element in make_toy_elements(16, seed=2, weight_offset=0.5):
            durable.insert(element)
            durable.checkpoint()
        assert [
            list(store.disk.raw_read(bid)) for bid in (0, 1)
        ] == anchors_before
        seq_before = store.anchor_seq
        durable.compact_store()
        assert store.anchor_seq == seq_before + 1

    def test_commit_promotes_limbo_to_free(self):
        durable, _ = log_victim()
        store = durable.store
        for element in make_toy_elements(12, seed=2, weight_offset=0.5):
            durable.insert(element)
        durable.checkpoint()  # first extra snapshot: nothing expires yet
        free_before = store.free_blocks
        durable.checkpoint()  # now a snapshot + old WAL chain retire
        assert store.limbo_blocks == 0, "commit left blocks stuck in limbo"
        assert store.free_blocks > free_before

    def test_allocate_wipes_recycled_blocks(self):
        durable, _ = log_victim()
        store = durable.store
        for element in make_toy_elements(12, seed=2, weight_offset=0.5):
            durable.insert(element)
        durable.checkpoint()
        durable.checkpoint()
        assert store.free_blocks > 0
        block_id = store._free[0]
        store.new_chain()
        # Wipe-on-reuse: the stale sealed chain contents are gone before
        # the id re-enters service — recovery can never splice the
        # retired chain into a live one.
        assert list(store.disk.raw_read(block_id)) == []

    def test_fingerprints_report_healthy_seals(self):
        durable, _ = log_victim()
        for element in make_toy_elements(12, seed=2, weight_offset=0.5):
            durable.insert(element)
        durable.checkpoint()
        prints = durable.store.fingerprints()
        assert prints, "no blocks fingerprinted"
        assert all(seal_ok for _, seal_ok in prints.values())

    def test_fingerprints_read_each_block_once(self):
        durable, _ = log_victim(device="plain")
        extras = make_toy_elements(12, seed=2, weight_offset=0.5)
        for element in extras[:6]:
            durable.insert(element)
        durable.checkpoint()
        for element in extras[6:]:
            durable.insert(element)  # committed WAL groups past the root
        store = durable.store
        examined = store.reachable_blocks()
        reads = store.ctx.stats.reads
        prints = store.fingerprints()
        assert store.ctx.stats.reads - reads == len(examined)
        assert set(prints) <= set(examined)

    def test_retiring_chains_charges_no_reads(self):
        durable, _ = log_victim()
        store = durable.store
        extras = make_toy_elements(12, seed=2, weight_offset=0.5)
        for element in extras[:6]:
            durable.insert(element)
        durable.checkpoint()
        for element in extras[6:]:
            durable.insert(element)
        retired = set(store._chains[store.snapshots[-1].head_block])
        retired |= set(store._chains[durable.wal.head])
        reads = store.ctx.stats.reads
        # Retires the oldest snapshot and the WAL chain, then commits.
        durable.checkpoint()
        assert store.ctx.stats.reads == reads
        assert store.limbo_blocks == 0
        assert retired <= set(store._free) | set(store.reachable_blocks())


class TestCompaction:
    @pytest.mark.parametrize("device", ["plain", "flash"])
    def test_compact_trims_dead_blocks_and_preserves_state(self, device):
        durable, _ = log_victim(device=device)
        extras = make_toy_elements(30, seed=2, weight_offset=0.5)
        for i, element in enumerate(extras):
            durable.insert(element)
            if i % 10 == 9:
                durable.checkpoint()
        trimmed = durable.compact_store()
        assert trimmed > 0
        assert durable.store.compactions == 1
        recovered = DurableTopKIndex.recover(
            durable.store.disk, restore_fn, build_fn, B=8
        )
        assert recovered.recovery.audit.ok
        assert_matches_oracle(
            recovered, make_toy_elements(30, seed=1) + extras
        )

    def test_compaction_bounds_manifest_growth(self):
        durable, _ = log_victim()
        store = durable.store
        for element in make_toy_elements(20, seed=2, weight_offset=0.5):
            durable.insert(element)
            durable.checkpoint()
        long_chain = len(store._chain_blocks(store._mani_head))
        assert long_chain > 2  # one manifest block per commit piled up
        durable.compact_store()
        # compact_store checkpoints first (one more root), then folds.
        assert len(store._chain_blocks(store._mani_head)) <= 2

    def test_compaction_trims_reach_the_ftl(self):
        durable, _ = log_victim(device="flash")
        disk = durable.store.disk
        for i, element in enumerate(
            make_toy_elements(30, seed=2, weight_offset=0.5)
        ):
            durable.insert(element)
            if i % 10 == 9:
                durable.checkpoint()
        trims_before = disk.ftl.stats.trims
        valid_before = disk.ftl.valid_pages
        trimmed = durable.compact_store()
        assert disk.ftl.stats.trims >= trims_before + trimmed
        assert disk.ftl.valid_pages < valid_before


class TestCrashSafety:
    @pytest.mark.parametrize("at_io", [1, 3, 7, 12, 20])
    def test_crash_mid_compaction_recovers_exactly(self, at_io):
        durable, plan = log_victim()
        extras = make_toy_elements(24, seed=2, weight_offset=0.5)
        for i, element in enumerate(extras):
            durable.insert(element)
            if i % 8 == 7:
                durable.checkpoint()
        plan.schedule_crash(at_io=at_io, torn_fraction=0.5)
        try:
            durable.compact_store()
        except SimulatedCrash:
            pass
        else:
            pytest.skip(f"compaction finished before transfer {at_io}")
        recovered = DurableTopKIndex.recover(
            durable.store.disk, restore_fn, build_fn, B=8
        )
        assert recovered.recovery.audit.ok
        assert not recovered.recovery.rebuilt
        assert_matches_oracle(
            recovered, make_toy_elements(30, seed=1) + extras
        )

    @pytest.mark.parametrize("after_copies", [0, 1, 3, 6])
    def test_crash_mid_gc_recovers_exactly(self, after_copies):
        config = FlashConfig(
            pages_per_block=4, capacity_pages=48, overprovision=0.1,
        )
        durable, _ = log_victim(config=config, commit_interval=4)
        disk = durable.store.disk
        extras = make_toy_elements(32, seed=2, weight_offset=0.5)
        applied = 0
        disk.ftl.schedule_gc_crash(after_copies)
        try:
            for i, element in enumerate(extras):
                durable.insert(element)
                applied += 1
                if i % 8 == 7:
                    durable.checkpoint()
        except SimulatedCrash as crash:
            assert "garbage collection" in str(crash)
        else:
            pytest.skip("workload never entered garbage collection")
        recovered = DurableTopKIndex.recover(
            durable.store.disk, restore_fn, build_fn, B=8
        )
        assert recovered.recovery.audit.ok
        n_extra = recovered.n - 30
        assert 0 <= n_extra <= applied
        assert n_extra % 4 == 0, "partial commit group resurrected"
        assert_matches_oracle(
            recovered, make_toy_elements(30, seed=1) + extras[:n_extra]
        )
