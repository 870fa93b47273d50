"""DurableStore: seals, anchors and the manifest, chains, damage detection."""

import pytest

from repro.durability.store import DurableStore, SnapshotEntry, seal, unseal
from repro.resilience.errors import (
    InvalidConfiguration,
    RecoveryError,
    SnapshotIntegrityError,
)


class TestSeals:
    def test_round_trip(self):
        records = seal([("a", 1), ("b", 2)])
        assert unseal(records) == [("a", 1), ("b", 2)]

    def test_empty_payload_round_trips(self):
        assert unseal(seal([])) == []

    def test_torn_prefix_is_detected(self):
        records = seal([1, 2, 3])
        with pytest.raises(SnapshotIntegrityError, match="no seal"):
            unseal(records[:-1])  # the seal is written last, lost first

    def test_damaged_payload_is_detected(self):
        records = seal([1, 2, 3])
        records[1] = 99
        with pytest.raises(SnapshotIntegrityError, match="seal mismatch"):
            unseal(records)

    def test_empty_block_is_detected(self):
        with pytest.raises(SnapshotIntegrityError, match="empty"):
            unseal([], block_id=7)


class TestStoreLifecycle:
    def test_format_and_reopen(self):
        store = DurableStore(B=8)
        store.snapshots = [SnapshotEntry(1, 5, 10, 1234)]
        store.wal_head = 9
        store.commit_root()
        reopened = DurableStore.open(store.disk, B=8)
        assert reopened.snapshots == [SnapshotEntry(1, 5, 10, 1234)]
        assert reopened.wal_head == 9
        assert reopened.epoch == store.epoch

    def test_requires_b_of_at_least_four(self):
        with pytest.raises(InvalidConfiguration, match="B >= 4"):
            DurableStore(B=2)

    def test_unformatted_disk_rejected(self):
        from repro.em.model import Disk

        with pytest.raises(RecoveryError, match="anchor"):
            DurableStore.open(Disk(), B=8)

    def test_compaction_alternates_anchors(self):
        store = DurableStore(B=8)
        store.commit_root()
        anchors = [list(store.disk.raw_read(block_id)) for block_id in (0, 1)]
        assert anchors[0] and not anchors[1]  # commits never touch them
        store.compact()  # anchor_seq 1 -> block 1
        assert list(store.disk.raw_read(0)) == anchors[0]
        store.compact()  # anchor_seq 2 -> block 0
        assert list(store.disk.raw_read(0)) != anchors[0]
        reopened = DurableStore.open(store.disk, B=8)
        assert reopened.anchor_seq == 2
        assert reopened.epoch == store.epoch

    def test_torn_root_falls_back_to_previous(self):
        store = DurableStore(B=8)
        store.next_snapshot_id = 7
        store.commit_root()  # durable
        store.next_snapshot_id = 8
        store.commit_root()
        # Tear the newest root record after the fact: mounting must stop
        # at the root before it.
        manifest = store._chain_blocks(store._mani_head)
        newest = manifest[-2]  # manifest[-1] is the open tail
        store.disk.torn_write(newest, list(store.disk.raw_read(newest)), keep=1)
        reopened = DurableStore.open(store.disk, B=8)
        assert reopened.next_snapshot_id == 7
        assert reopened.epoch == store.epoch - 1

    def test_both_anchors_damaged_is_fatal(self):
        store = DurableStore(B=8)
        store.commit_root()
        store.compact()  # both anchors now hold a record
        for block_id in (0, 1):
            records = list(store.disk.raw_read(block_id))
            assert records
            store.disk.torn_write(block_id, records, keep=0)
        with pytest.raises(RecoveryError, match="no valid anchor"):
            DurableStore.open(store.disk, B=8)


class TestChains:
    def test_chain_round_trip(self):
        store = DurableStore(B=8)
        records = [("r", i) for i in range(50)]
        head = store.write_chain("SNAP", records)
        store.flush()
        assert list(store.read_chain("SNAP", head)) == records

    def test_empty_chain(self):
        store = DurableStore(B=8)
        head = store.write_chain("SNAP", [])
        store.flush()
        assert list(store.read_chain("SNAP", head)) == []

    def test_wrong_kind_rejected(self):
        store = DurableStore(B=8)
        head = store.write_chain("SNAP", [1, 2, 3])
        store.flush()
        with pytest.raises(SnapshotIntegrityError, match="kind"):
            list(store.read_chain("WAL", head))

    def test_torn_tail_block_detected(self):
        store = DurableStore(B=8)
        head = store.write_chain("SNAP", [("r", i) for i in range(20)])
        store.flush()
        blocks = store._chain_blocks(head)
        tail = blocks[-1]
        store.disk.torn_write(tail, list(store.disk.raw_read(tail)), keep=1)
        store.ctx.drop_cache()  # the machine that cached the block is gone
        with pytest.raises(SnapshotIntegrityError):
            list(store.read_chain("SNAP", head))

    def test_broken_pointer_detected(self):
        store = DurableStore(B=8)
        head = store.write_chain("SNAP", [1])
        store.flush()
        records = list(store.disk.raw_read(head))
        kind, seq, _ = records[0]
        records[0] = (kind, seq, 10_000)  # points past the disk
        store.disk.raw_write(head, records)
        with pytest.raises(SnapshotIntegrityError):
            list(store.read_chain("SNAP", head))

    def test_durability_io_is_charged(self):
        store = DurableStore(B=8)
        before = store.ctx.stats.total
        store.write_chain("SNAP", [("r", i) for i in range(40)])
        store.flush()
        assert store.ctx.stats.total > before  # persistence is not free

    def test_reachable_blocks_cover_the_root(self):
        store = DurableStore(B=8)
        head = store.write_chain("SNAP", [("r", i) for i in range(20)])
        store.flush()
        store.snapshots = [SnapshotEntry(1, head, 20, 0)]
        store.commit_root()
        reachable = store.reachable_blocks()
        assert 0 in reachable and 1 in reachable
        for block_id in store._chain_blocks(head):
            assert block_id in reachable
