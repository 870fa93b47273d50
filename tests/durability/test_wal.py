"""Write-ahead log: group commit, torn tails, idempotent replay."""

import pytest

from repro.core.problem import Element
from repro.durability.store import DurableStore
from repro.durability.wal import (
    OP_DELETE,
    OP_INSERT,
    WriteAheadLog,
    read_committed,
)


def elements(n, offset=0):
    return [Element(i + offset, float(i + offset)) for i in range(n)]


def reopened(store):
    return DurableStore.open(store.disk, B=store.ctx.B)


class TestCommit:
    def test_committed_group_survives_reopen(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for element in elements(5):
            wal.append(OP_INSERT, element)
        assert wal.commit() == 5
        store.wal_head = wal.head
        store.commit_root()
        groups, discarded = read_committed(reopened(store), wal.head)
        assert discarded == 0
        assert [r.element for r in groups[0]] == elements(5)
        assert [r.op for r in groups[0]] == [OP_INSERT] * 5
        assert [r.lsn for r in groups[0]] == [1, 2, 3, 4, 5]

    def test_multiple_groups_in_order(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for batch in range(3):
            for element in elements(4, offset=10 * batch):
                wal.append(OP_INSERT, element)
            wal.commit()
        store.wal_head = wal.head
        store.commit_root()
        groups, _ = read_committed(reopened(store), wal.head)
        assert len(groups) == 3
        assert [r.element for r in groups[2]] == elements(4, offset=20)

    def test_group_larger_than_a_block(self):
        store = DurableStore(B=4)  # 2 payload records per block
        wal = WriteAheadLog(store)
        for element in elements(11):
            wal.append(OP_INSERT, element)
        wal.commit()
        store.wal_head = wal.head
        store.commit_root()
        groups, discarded = read_committed(reopened(store), wal.head)
        assert discarded == 0
        assert [r.element for r in groups[0]] == elements(11)

    def test_empty_commit_is_a_noop(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        blocks_before = store.disk.num_blocks
        assert wal.commit() == 0
        assert store.disk.num_blocks == blocks_before

    def test_uncommitted_records_are_not_durable(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for element in elements(3):
            wal.append(OP_INSERT, element)
        store.wal_head = wal.head
        store.commit_root()
        groups, discarded = read_committed(reopened(store), wal.head)
        assert groups == [] and discarded == 0
        assert wal.pending_records == 3

    def test_rollback_last_removes_the_append(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        wal.append(OP_INSERT, Element(1, 1.0))
        wal.append(OP_DELETE, Element(2, 2.0))
        wal.rollback_last()
        wal.commit()
        store.wal_head = wal.head
        store.commit_root()
        groups, _ = read_committed(reopened(store), wal.head)
        assert len(groups[0]) == 1 and groups[0][0].op == OP_INSERT
        assert wal.next_lsn == 2  # the rolled-back LSN was reissued


class TestTornTails:
    def test_torn_commit_block_discards_the_group(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for element in elements(4):
            wal.append(OP_INSERT, element)
        wal.commit()
        for element in elements(4, offset=10):
            wal.append(OP_INSERT, element)
        wal.commit()
        store.wal_head = wal.head
        store.commit_root()
        # Tear the chain block holding the second group (the first commit
        # filled block 0 of the chain and pre-allocated block 1 for the
        # next one): only group 1 survives.
        victim = store._chain_blocks(wal.head)[1]
        store.disk.torn_write(victim, list(store.disk.raw_read(victim)), keep=1)
        groups, _ = read_committed(reopened(store), wal.head)
        assert len(groups) == 1
        assert [r.element for r in groups[0]] == elements(4)

    def test_open_tail_block_ends_the_log_cleanly(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for element in elements(2):
            wal.append(OP_INSERT, element)
        wal.commit()
        store.wal_head = wal.head
        store.commit_root()
        # The chain's final pointer designates a pre-allocated, empty
        # open block; reading must stop there without raising.
        groups, discarded = read_committed(reopened(store), wal.head)
        assert len(groups) == 1 and discarded == 0

    def test_missing_head_means_empty_log(self):
        store = DurableStore(B=8)
        assert read_committed(store, None) == ([], 0)


class TestTruncate:
    def test_truncate_starts_a_fresh_chain(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for element in elements(3):
            wal.append(OP_INSERT, element)
        wal.commit()
        old_head = wal.head
        wal.truncate()
        assert wal.head != old_head
        store.wal_head = wal.head
        store.commit_root()
        groups, _ = read_committed(reopened(store), wal.head)
        assert groups == []

    def test_lsns_keep_rising_across_truncation(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        wal.append(OP_INSERT, Element(1, 1.0))
        wal.commit()
        wal.truncate()
        lsn = wal.append(OP_INSERT, Element(2, 2.0))
        assert lsn == 2  # never reused

    def test_clean_chain_is_reused(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        head = wal.head
        wal.truncate()  # nothing ever committed: no new allocation
        assert wal.head == head


class TestIncrementalReads:
    """``after_lsn``: the watermark a replication follower ships from."""

    def test_after_lsn_filters_whole_groups(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for batch in range(3):
            for element in elements(4, offset=10 * batch):
                wal.append(OP_INSERT, element)
            wal.commit()
        groups, _ = read_committed(store, wal.head, after_lsn=8)
        assert len(groups) == 1
        assert [r.lsn for r in groups[0]] == [9, 10, 11, 12]

    def test_after_lsn_splits_a_group_mid_way(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for element in elements(6):
            wal.append(OP_INSERT, element)
        wal.commit()
        groups, _ = read_committed(store, wal.head, after_lsn=4)
        assert len(groups) == 1
        assert [r.lsn for r in groups[0]] == [5, 6]
        assert [r.element for r in groups[0]] == elements(2, offset=4)

    def test_watermark_at_or_past_the_tip_reads_nothing(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for element in elements(3):
            wal.append(OP_INSERT, element)
        wal.commit()
        assert read_committed(store, wal.head, after_lsn=3) == ([], 0)
        assert read_committed(store, wal.head, after_lsn=99) == ([], 0)

    def test_resumed_shipping_covers_every_record_exactly_once(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        shipped = []
        watermark = 0
        for batch in range(4):
            for element in elements(3, offset=10 * batch):
                wal.append(OP_INSERT, element)
            wal.commit()
            groups, _ = read_committed(store, wal.head, after_lsn=watermark)
            for group in groups:
                shipped.extend(r.lsn for r in group)
                watermark = max(watermark, group[-1].lsn)
        assert shipped == list(range(1, 13))

    def test_torn_tail_then_resumed_shipping(self):
        """A torn group is never shipped; its records re-ship after the
        re-commit lands, and the watermark never skips or repeats."""
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for element in elements(4):
            wal.append(OP_INSERT, element)
        wal.commit()
        for element in elements(4, offset=10):
            wal.append(OP_INSERT, element)
        wal.commit()
        # First ship sees only group 1: group 2's block is torn.
        victim = store._chain_blocks(wal.head)[1]
        intact = list(store.disk.raw_read(victim))
        store.disk.torn_write(victim, intact, keep=1)
        store.ctx.drop_cache()
        groups, _ = read_committed(store, wal.head, after_lsn=0)
        assert [r.lsn for g in groups for r in g] == [1, 2, 3, 4]
        watermark = groups[-1][-1].lsn
        # The write completes (the torn block's full contents land) and
        # the follower resumes from its watermark: exactly the tail.
        store.disk.raw_write(victim, intact)
        store.ctx.drop_cache()
        groups, _ = read_committed(store, wal.head, after_lsn=watermark)
        assert [r.lsn for g in groups for r in g] == [5, 6, 7, 8]

    def test_group_crc_is_verified_across_the_watermark(self):
        """Filtering must not weaken integrity: the CRC covers the full
        group even when the watermark hides a prefix of it."""
        store = DurableStore(B=16)
        wal = WriteAheadLog(store)
        for element in elements(4):
            wal.append(OP_INSERT, element)
        wal.commit()
        # Damage an *already filtered* record inside the chain block.
        chain_block = store._chain_blocks(wal.head)[0]
        records = list(store.disk.raw_read(chain_block))
        header, payload, seal_rec = records[0], records[1:-1], records[-1]
        tampered = list(payload)
        op, lsn, opname, enc = tampered[0]
        tampered[0] = (op, lsn, opname, tampered[1][3])
        from repro.durability.store import seal

        store.disk.raw_write(chain_block, seal([header, *tampered]))
        store.ctx.drop_cache()
        groups, _ = read_committed(store, wal.head, after_lsn=2)
        assert groups == []  # the damaged group is rejected wholesale


class TestAppliedLsn:
    def test_applied_trails_committed_until_noted(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for element in elements(3):
            wal.append(OP_INSERT, element)
        wal.commit()
        assert wal.committed_lsn == 3
        assert wal.applied_lsn == 0
        wal.note_applied(2)
        assert wal.applied_lsn == 2
        wal.note_applied(1)  # never regresses
        assert wal.applied_lsn == 2

    def test_nonzero_birth_lsn_marks_history_as_applied(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store, next_lsn=41)
        assert wal.committed_lsn == 40
        assert wal.applied_lsn == 40
        assert wal.append(OP_INSERT, Element(1, 1.0)) == 41
