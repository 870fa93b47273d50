"""Write-ahead log: group commit, torn tails, idempotent replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import Element
from repro.durability.codec import decode
from repro.durability.store import DurableStore, seal, unseal
from repro.durability.wal import (
    OP_DELETE,
    OP_INSERT,
    WALRecord,
    WriteAheadLog,
    _group_crc,
    read_committed,
)
from repro.resilience.errors import (
    SimulatedCrash,
    SnapshotIntegrityError,
    TransientIOError,
)
from repro.resilience.faults import FaultPlan


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


# ----------------------------------------------------------------------
# The read cursor: every read answers what a walk from the head answers
# ----------------------------------------------------------------------
def walk_from_head(read_sealed, head, after_lsn=0):
    """The WAL reader without a cursor: a full walk from ``head``.

    Kept verbatim (bar the ``read_sealed`` parameter) as the oracle the
    cursor must agree with after any sequence of commits and reads.
    """
    if head is None:
        return [], 0
    raw = []
    block_id = head
    expect_seq = 0
    while block_id is not None:
        try:
            payload = read_sealed(block_id)
        except SnapshotIntegrityError:
            break
        if not payload:
            break
        header = payload[0]
        if not (
            isinstance(header, tuple)
            and len(header) == 3
            and header[0] == "WAL"
            and header[1] == expect_seq
        ):
            break
        raw.extend(payload[1:])
        block_id = header[2]
        expect_seq += 1

    groups = []
    pending = []
    for record in raw:
        if not isinstance(record, tuple) or not record:
            break
        if record[0] == "OP" and len(record) == 4:
            pending.append(record)
        elif record[0] == "COMMIT" and len(record) == 3:
            _, marker_lsn, crc = record
            if (
                pending
                and marker_lsn == pending[-1][1]
                and crc == _group_crc(pending)
            ):
                if marker_lsn > after_lsn:
                    groups.append(
                        [
                            WALRecord(lsn, op, decode(enc))
                            for _, lsn, op, enc in pending
                            if lsn > after_lsn
                        ]
                    )
                pending = []
            else:
                pending = []
                break
        else:
            break
    return groups, len(pending)


def peek(store, horizon=None):
    """``read_sealed`` over what ``store`` would read now, with no transfer.

    Serves the cached frame if there is one (a faulted commit's blocks
    wait there, dirty), else the disk copy; no fault fires and no
    counter moves.  ``horizon`` makes every block past the first
    ``horizon`` read unreadable.
    """
    served = []

    def read_sealed(block_id):
        if horizon is not None and len(served) >= horizon:
            raise SnapshotIntegrityError("past the horizon")
        served.append(block_id)
        disk = store.ctx.disk
        if block_id >= disk.num_blocks:
            raise SnapshotIntegrityError("never allocated")
        records = store.ctx._frames.get(block_id)
        if records is None:
            records = disk.raw_read(block_id)
            if not disk.verify(block_id, records):
                raise SnapshotIntegrityError("checksum")
        return unseal(records, block_id=block_id)

    return read_sealed


def publish(store, wal):
    store.wal_head = wal.head
    store.commit_root()


class _Machine:
    """One store + log under a fault plan; a crash reboots it from disk."""

    B = 4  # two payload records per chain block: groups span blocks

    def __init__(self, rates, seed):
        self.rates = rates
        self.seed = seed
        self.store = DurableStore(B=self.B)
        self.wal = WriteAheadLog(self.store)
        publish(self.store, self.wal)
        self._attach_plan()
        self.next_id = 0

    def _attach_plan(self):
        self.seed += 1
        self.plan = FaultPlan(seed=self.seed, **self.rates)
        self.store.ctx.attach_fault_plan(self.plan)

    def commit(self, size, damage=None):
        for _ in range(size):
            self.next_id += 1
            op = OP_DELETE if self.next_id % 3 == 0 else OP_INSERT
            self.wal.append(op, Element(self.next_id, float(self.next_id)))
        self.wal.commit()
        if damage is not None:
            self._damage_marker(damage)

    def _damage_marker(self, damage):
        """Re-seal the block holding the newest marker with it damaged.

        Called right after a commit completed, so no read has parsed
        the group yet and the flushed cache holds no copy of the block.
        """
        disk = self.store.disk
        marker_lsn = self.wal.committed_lsn
        for block_id in self.store._chains[self.wal.head]:
            try:
                payload = unseal(disk.raw_read(block_id))
            except SnapshotIntegrityError:
                continue
            for i, record in enumerate(payload):
                if record[:2] == ("COMMIT", marker_lsn):
                    payload[i] = (
                        ("COMMIT", marker_lsn, record[2] ^ 1)
                        if damage == "crc"
                        else "junk"
                    )
                    disk.raw_write(block_id, seal(payload))
                    return

    def truncate(self):
        self.plan.disarm()
        self.wal.commit()  # finish a group a write fault interrupted
        self.wal.truncate()
        publish(self.store, self.wal)
        self.plan.arm()

    def reboot(self):
        """Mount the surviving disk, check its log, start a fresh one."""
        store = DurableStore.open(self.store.disk, B=self.B)
        assert read_committed(store, store.wal_head) == walk_from_head(
            peek(store), store.wal_head
        )
        store.retire_chain(store.wal_head)
        self.store = store
        self.wal = WriteAheadLog(store, next_lsn=self.wal.next_lsn)
        publish(store, self.wal)
        self._attach_plan()


_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("commit"),
            st.integers(1, 7),
            st.sampled_from([None] * 4 + ["crc", "record"]),
        ),
        st.tuples(
            st.just("read"),
            st.sampled_from(["zero", "mid", "tip"]),
            st.integers(0, 10**6),
        ),
        st.tuples(st.just("crash"), st.integers(1, 4)),
        st.tuples(st.just("truncate")),
    ),
    min_size=1,
    max_size=30,
)


class TestReadCursor:
    @settings(max_examples=100, deadline=None)
    @given(
        steps=_STEPS,
        write_fail_rate=st.sampled_from([0.0, 0.3]),
        read_fail_rate=st.sampled_from([0.0, 0.2]),
        corrupt_rate=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**16),
    )
    def test_every_read_matches_a_walk_from_the_head(
        self, steps, write_fail_rate, read_fail_rate, corrupt_rate, seed
    ):
        machine = _Machine(
            dict(
                write_fail_rate=write_fail_rate,
                read_fail_rate=read_fail_rate,
                corrupt_rate=corrupt_rate,
            ),
            seed,
        )
        for step in steps:
            try:
                if step[0] == "commit":
                    machine.commit(*step[1:])
                elif step[0] == "crash":
                    machine.plan.schedule_crash(at_io=step[1])
                elif step[0] == "truncate":
                    machine.truncate()
                else:
                    self._read_and_check(machine, *step[1:])
            except TransientIOError:
                continue  # the next commit resumes; the next read retries
            except SimulatedCrash:
                machine.reboot()

    @staticmethod
    def _read_and_check(machine, where, draw):
        store, head = machine.store, machine.wal.head
        after_lsn = {
            "zero": 0,
            "mid": draw % (machine.wal.last_lsn + 1),
            "tip": machine.wal.committed_lsn,
        }[where]
        corruptions = machine.plan.stats.corruptions
        got = read_committed(store, head, after_lsn)
        walk = lambda horizon=None: walk_from_head(
            peek(store, horizon), head, after_lsn
        )
        if machine.plan.stats.corruptions == corruptions:
            assert got == walk()
        else:
            # A corrupted transfer ends this read at the block it hit,
            # as it would end a walk that reached that block.
            blocks = len(store._chain_blocks(head))
            assert got in [walk(horizon) for horizon in range(blocks + 1)]

    def test_a_read_reads_only_blocks_committed_since_the_last(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        reads = store.ctx.stats

        def read_cost():
            before = reads.reads
            read_committed(store, wal.head)
            return reads.reads - before

        for batch in range(3):
            for element in elements(4, offset=10 * batch):
                wal.append(OP_INSERT, element)
            wal.commit()
        assert read_cost() == 4  # three group blocks, then the open tail
        assert read_cost() == 0  # nothing new: the empty tail is cached
        for growth in range(20):
            wal.append(OP_INSERT, Element(100 + growth, 100.0 + growth))
            wal.commit()
            assert read_cost() == 2  # the new block and the new open tail

    def test_a_recycled_head_reads_only_its_own_chain(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        publish(store, wal)
        for element in elements(6):
            wal.append(OP_INSERT, element)
            wal.commit()
        old_head = wal.head
        assert len(read_committed(store, old_head)[0]) == 6
        wal.truncate()
        publish(store, wal)  # the old chain's blocks join the free pool
        successor = WriteAheadLog(store, next_lsn=wal.next_lsn)
        assert successor.head == old_head  # recycled, wiped on reuse
        successor.append(OP_INSERT, Element(50, 50.0))
        successor.commit()
        groups, discarded = read_committed(store, old_head)
        assert [[r.lsn for r in g] for g in groups] == [[7]]
        assert (groups, discarded) == walk_from_head(peek(store), old_head)

    @pytest.mark.parametrize("lost_by", ["reboot", "compaction"])
    def test_a_head_the_store_no_longer_records_is_read_afresh(self, lost_by):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)  # never published in a root
        for element in elements(3):
            wal.append(OP_INSERT, element)
            wal.commit()
        if lost_by == "reboot":
            store = reopened(store)  # mounts no record of the chain
        assert len(read_committed(store, wal.head)[0]) == 3
        if lost_by == "compaction":
            store.compact()  # discards the unreferenced chain
        for _ in range(store.free_blocks):  # allocate up to the freed head
            successor = WriteAheadLog(store, next_lsn=wal.next_lsn)
            if successor.head == wal.head:
                break
        assert successor.head == wal.head
        successor.append(OP_INSERT, Element(50, 50.0))
        successor.commit()
        groups, _ = read_committed(store, wal.head)
        assert [[r.lsn for r in g] for g in groups] == [[4]]

    def test_a_block_failing_its_header_check_is_retried(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        wal.append(OP_INSERT, Element(1, 1.0))
        wal.commit()
        # A stale sealed block squats on the open tail: the read stops
        # there, and resumes once the next commit overwrites it.
        tail = store._chains[wal.head][-1]
        store.disk.raw_write(tail, seal([("WAL", 7, None), ("junk",)]))
        assert read_committed(store, wal.head) == walk_from_head(
            peek(store), wal.head
        )
        wal.append(OP_INSERT, Element(2, 2.0))
        wal.commit()
        groups, _ = read_committed(store, wal.head)
        assert [[r.lsn for r in g] for g in groups] == [[1], [2]]

    @pytest.mark.parametrize(
        "marker, discarded",
        [
            ("junk", 3),  # a damaged record: the group's ops are discarded
            (("COMMIT", 3, 0), 0),  # a marker failing its CRC: dropped
        ],
        ids=["damaged-record", "crc-mismatch"],
    )
    def test_damage_stops_every_read_at_the_same_place(self, marker, discarded):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for element in elements(3):
            wal.append(OP_INSERT, element)
        wal.commit()
        block = store._chains[wal.head][0]
        payload = unseal(store.disk.raw_read(block))
        payload[-1] = marker
        store.disk.raw_write(block, seal(payload))
        for growth in range(3):
            assert read_committed(store, wal.head) == ([], discarded)
            wal.append(OP_INSERT, Element(10 + growth, 10.0 + growth))
            wal.commit()
        assert read_committed(store, wal.head) == walk_from_head(
            peek(store), wal.head
        )

    def test_reboot_reads_what_a_walk_reads(self):
        store = DurableStore(B=4)
        wal = WriteAheadLog(store)
        publish(store, wal)
        for batch in range(4):
            for element in elements(batch + 1, offset=10 * batch):
                wal.append(OP_INSERT, element)
            wal.commit()
        before = read_committed(store, wal.head)
        rebooted = reopened(store)
        assert read_committed(rebooted, wal.head) == before
        assert before == walk_from_head(peek(rebooted), wal.head)

    def test_compaction_keeps_the_live_cursor(self):
        store = DurableStore(B=8)
        wal = WriteAheadLog(store)
        for element in elements(3):
            wal.append(OP_INSERT, element)
            wal.commit()
        publish(store, wal)
        read_committed(store, wal.head)
        wal.truncate()  # retire a chain so compaction has blocks to drop
        publish(store, wal)
        for element in elements(3, offset=10):
            wal.append(OP_INSERT, element)
            wal.commit()
        assert len(read_committed(store, wal.head)[0]) == 3
        assert store.compact() > 0
        wal.append(OP_INSERT, Element(20, 20.0))
        wal.commit()
        before = store.ctx.stats.reads
        groups, _ = read_committed(store, wal.head, after_lsn=3)
        assert store.ctx.stats.reads - before == 2  # new block + open tail
        assert [r.lsn for g in groups for r in g] == [4, 5, 6, 7]
        assert (groups, 0) == walk_from_head(peek(store), wal.head, 3)
