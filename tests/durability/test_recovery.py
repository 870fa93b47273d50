"""Crash -> recover -> verify: the full durability protocol end to end.

The scenario throughout: an `ExpectedTopKIndex` wrapped in a
`DurableTopKIndex`, a crash injected at a chosen transfer, recovery
from the surviving disk, and answers compared against a brute-force
oracle over the committed prefix of the workload.
"""

import random

import pytest

from toy import RangePredicate, ToyMax, ToyPrioritized, make_toy_elements
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.durable import DurableTopKIndex
from repro.durability.recovery import apply_record, audit_index, recover_index
from repro.durability.store import DurableStore
from repro.durability.wal import OP_INSERT, WALRecord
from repro.em.model import EMContext
from repro.flash.disk import FlashDisk
from repro.flash.ftl import FlashConfig
from repro.resilience.errors import RecoveryError, SimulatedCrash
from repro.resilience.faults import FaultPlan
from repro.resilience.guard import ResilientTopKIndex


BASE_N = 60
EXTRA_N = 40
GROUP = 4


def restore_fn(state):
    return ExpectedTopKIndex.restore(state, ToyPrioritized, ToyMax)


def build_fn(elements):
    return ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=0)


def top_k_of(elements, predicate, k):
    matching = [e for e in elements if predicate.matches(e.obj)]
    matching.sort(key=lambda e: -e.weight)
    return matching[:k]


def base_elements():
    return make_toy_elements(BASE_N, seed=1)


def extra_elements():
    return make_toy_elements(EXTRA_N, seed=2, weight_offset=0.5)


DEVICES = ["plain", "flash"]


def durable_victim(commit_interval=GROUP, device="plain"):
    """A durable index with a fault plan wired into its store's machine.

    ``device`` picks the platter: a magnetic ``Disk`` (``plain``) or a
    ``FlashDisk`` (``flash``).
    """
    plan = FaultPlan(armed=False)
    if device == "plain":
        ctx = EMContext(B=8, fault_plan=plan)
    else:
        disk = FlashDisk(config=FlashConfig(pages_per_block=8))
        ctx = EMContext(B=8, disk=disk, fault_plan=plan)
    store = DurableStore(ctx=ctx, B=8)
    inner = ExpectedTopKIndex(base_elements(), ToyPrioritized, ToyMax, seed=3)
    durable = DurableTopKIndex(inner, store=store, commit_interval=commit_interval)
    return durable, plan


def crash_while_inserting(at_io, device="plain"):
    """Run the insert workload until the scheduled crash fires.

    Returns ``(disk, applied)`` — the surviving platter and how many
    inserts went through before the machine died.
    """
    durable, plan = durable_victim(device=device)
    plan.schedule_crash(at_io=at_io, torn_fraction=0.5)
    applied = 0
    try:
        for element in extra_elements():
            durable.insert(element)
            applied += 1
    except SimulatedCrash:
        return durable.store.disk, applied
    pytest.skip(f"workload finished before transfer {at_io}")


def assert_matches_committed_prefix(recovered, applied):
    """The recovered index equals the oracle at some committed prefix."""
    n_extra = recovered.n - BASE_N
    assert 0 <= n_extra <= applied
    assert n_extra % GROUP == 0, "recovery resurrected a partial commit group"
    expected = base_elements() + extra_elements()[:n_extra]
    assert set(recovered.recovery.elements) == set(expected)
    rng = random.Random(97)
    for _ in range(25):
        a, b = sorted((rng.uniform(-5, 2500), rng.uniform(-5, 2500)))
        k = rng.randint(1, 10)
        assert recovered.query(RangePredicate(a, b), k) == top_k_of(
            expected, RangePredicate(a, b), k
        )


class TestCrashSweep:
    # The insert workload performs exactly 10 durability transfers
    # (one group-commit write-back per 4 inserts); crash at every one,
    # on every device.
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("at_io", list(range(1, 11)))
    def test_recovery_matches_oracle_at_committed_prefix(self, at_io, device):
        disk, applied = crash_while_inserting(at_io, device=device)
        recovered = DurableTopKIndex.recover(
            disk, restore_fn, build_fn, B=8, commit_interval=GROUP
        )
        assert recovered.recovered
        assert recovered.recovery.audit.ok
        assert not recovered.recovery.rebuilt
        assert_matches_committed_prefix(recovered, applied)

    @pytest.mark.parametrize("device", DEVICES)
    def test_crash_during_checkpoint_keeps_previous_root(self, device):
        durable, plan = durable_victim(device=device)
        for element in extra_elements()[:12]:
            durable.insert(element)
        plan.schedule_crash(at_io=2, torn_fraction=0.5)
        with pytest.raises(SimulatedCrash):
            durable.checkpoint()
        recovered = DurableTopKIndex.recover(
            durable.store.disk, restore_fn, build_fn, B=8, commit_interval=GROUP
        )
        assert recovered.recovery.audit.ok
        assert_matches_committed_prefix(recovered, applied=12)

    def test_repeat_crashes_during_recovery_workload(self):
        # Crash, recover, crash the recovered instance, recover again.
        disk, _ = crash_while_inserting(at_io=7)
        first = DurableTopKIndex.recover(
            disk, restore_fn, build_fn, B=8, commit_interval=GROUP
        )
        checkpoint_n = first.n
        plan = FaultPlan(armed=False)
        first.store.ctx.attach_fault_plan(plan, enable_checksums=False)
        plan.schedule_crash(at_io=3, torn_fraction=0.5)
        survivors = [e for e in extra_elements() if e not in first.inner]
        died = False
        for element in survivors:
            try:
                first.insert(element)
            except SimulatedCrash:
                died = True
                break
        assert died
        second = DurableTopKIndex.recover(
            disk, restore_fn, build_fn, B=8, commit_interval=GROUP
        )
        assert second.recovery.audit.ok
        assert second.n >= checkpoint_n  # the re-checkpointed baseline held


class TestReplayIdempotence:
    def test_recovering_the_same_disk_twice_is_identical(self):
        disk, _ = crash_while_inserting(at_io=5)
        results = []
        for _ in range(2):
            store = DurableStore.open(disk, B=8)  # read-only: no re-checkpoint
            results.append(recover_index(store, restore_fn))
        first, second = results
        assert first.wal_records_replayed == second.wal_records_replayed
        assert first.snapshot_id == second.snapshot_id
        assert first.elements == second.elements
        assert first.index.snapshot_state() == second.index.snapshot_state()

    def test_recovered_disk_recovers_cleanly_with_empty_log(self):
        disk, applied = crash_while_inserting(at_io=6)
        DurableTopKIndex.recover(disk, restore_fn, build_fn, B=8)
        again = DurableTopKIndex.recover(disk, restore_fn, build_fn, B=8)
        # The first recovery re-checkpointed, retiring the old log.
        assert again.recovery.wal_records_replayed == 0
        assert_matches_committed_prefix(again, applied)

    def test_apply_record_skips_present_inserts(self):
        index = ExpectedTopKIndex(base_elements(), ToyPrioritized, ToyMax)
        record = WALRecord(1, OP_INSERT, base_elements()[0])
        assert apply_record(index, record) is False
        fresh = make_toy_elements(1, seed=50, weight_offset=0.25)[0]
        assert apply_record(index, WALRecord(2, OP_INSERT, fresh)) is True
        assert apply_record(index, WALRecord(3, OP_INSERT, fresh)) is False


def assert_blocks_accounted(store):
    """Each allocated block is exactly one of reachable, free, in limbo."""
    owners = store.reachable_blocks() + store._free + store._limbo
    assert sorted(owners) == list(range(store.disk.num_blocks))


class TestSpaceAccounting:
    def test_blocks_are_recycled_across_checkpoints_recovery_compaction(self):
        durable, _ = durable_victim()
        live = base_elements()
        fresh = iter(extra_elements())
        sizes = []
        for round_no in range(1, 13):
            for _ in range(3):
                durable.delete(live.pop(0))
                element = next(fresh)
                durable.insert(element)
                live.append(element)
            durable.checkpoint()
            assert_blocks_accounted(durable.store)
            if round_no % 4 == 0:
                durable.compact_store()
                assert_blocks_accounted(durable.store)
            if round_no % 6 == 0:
                durable = DurableTopKIndex.recover(
                    durable.store.disk, restore_fn, build_fn, B=8,
                    commit_interval=GROUP,
                )
                assert_blocks_accounted(durable.store)
            sizes.append(durable.store.disk.num_blocks)
        assert set(durable.recovery.elements) == set(live)
        # Recycling bounds the disk: once warm, no round allocates fresh.
        assert sizes[-6:] == [sizes[5]] * 6, sizes


class TestAuditAndRebuild:
    def test_audit_passes_on_a_healthy_index(self):
        index = ExpectedTopKIndex(base_elements(), ToyPrioritized, ToyMax)
        report = audit_index(index, base_elements())
        assert report.ok and not report.failures

    def test_audit_flags_size_mismatch(self):
        index = ExpectedTopKIndex(base_elements(), ToyPrioritized, ToyMax)
        report = audit_index(index, base_elements()[:-1])
        assert not report.ok
        assert any("size" in check.name for check in report.failures)

    def test_failed_audit_falls_back_to_rebuild(self):
        disk, _ = crash_while_inserting(at_io=4)

        def mangling_restore(state):
            index = restore_fn(state)
            index._elements.popitem()  # simulate latent in-memory damage
            return index

        store = DurableStore.open(disk, B=8)
        result = recover_index(store, mangling_restore, build_fn)
        assert result.rebuilt
        assert result.audit.ok
        assert result.index.n == len(result.elements)

    def test_failed_audit_without_rebuild_is_fatal(self):
        disk, _ = crash_while_inserting(at_io=4)

        def mangling_restore(state):
            index = restore_fn(state)
            index._elements.popitem()
            return index

        store = DurableStore.open(disk, B=8)
        with pytest.raises(RecoveryError, match="audit failed"):
            recover_index(store, mangling_restore, build_fn=None)

    def test_all_snapshots_damaged_is_fatal(self):
        durable, _ = durable_victim()
        store = durable.store
        for entry in store.snapshots:
            head = entry.head_block
            store.disk.torn_write(
                head, list(store.disk.raw_read(head)), keep=1
            )
        survivor = DurableStore.open(store.disk, B=8)
        with pytest.raises(RecoveryError, match="no usable snapshot"):
            recover_index(survivor, restore_fn)


class TestGuardIntegration:
    def test_recovery_surfaces_in_health_summary(self):
        disk, applied = crash_while_inserting(at_io=5)
        recovered = DurableTopKIndex.recover(
            disk, restore_fn, build_fn, B=8, commit_interval=GROUP
        )
        guard = ResilientTopKIndex(
            recovered, elements=recovered.recovery.elements
        )
        assert guard.health.recoveries == 1
        assert (
            guard.health.wal_records_replayed
            == recovered.recovery.wal_records_replayed
        )
        answer = guard.query(RangePredicate(0, 2500), 5)
        assert answer == top_k_of(
            recovered.recovery.elements, RangePredicate(0, 2500), 5
        )

    def test_durability_io_stays_off_the_query_path(self):
        durable, _ = durable_victim()
        guard = ResilientTopKIndex(durable)
        persisted_before = durable.durability_io.total
        for lo in range(0, 2000, 100):
            guard.query(RangePredicate(lo, lo + 400), 3)
        # Queries read the in-memory index; persistence I/O is untouched
        # and lives in the store's private context, not the guard's.
        assert durable.durability_io.total == persisted_before
        assert durable.durability_io.total > 0

    def test_unrecovered_backend_reports_no_recoveries(self):
        durable, _ = durable_victim()
        guard = ResilientTopKIndex(durable)
        assert guard.health.recoveries == 0
        assert guard.health.wal_records_replayed == 0
