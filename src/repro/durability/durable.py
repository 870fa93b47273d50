"""`DurableTopKIndex`: crash-consistent persistence around any index.

The wrapper owns a :class:`~repro.durability.store.DurableStore` (with
its *own* EM context, so durability I/O is accounted separately from
the query path — health reports never double-count it) and follows the
standard protocol:

* **updates** are WAL-first: the op record is appended to the log
  buffer, then applied in memory; every ``commit_interval`` updates the
  group is committed (sealed blocks + flush).  A crash loses at most
  the current uncommitted group — never a committed one;
* **checkpoints** snapshot the inner index (``snapshot_state()``),
  flush, then atomically publish snapshot + truncated WAL via a root
  commit.  The two most recent snapshots are retained, so a crash
  *during* a checkpoint still recovers from the previous one;
* **recovery** (:meth:`DurableTopKIndex.recover`) mounts the surviving
  disk with a fresh context, runs the
  :func:`~repro.durability.recovery.recover_index` sequence, and
  re-checkpoints the recovered state as the new baseline.

Queries pass straight through (including keyword extras such as
Theorem 2's ``round_budget``), so the wrapper is drop-in wherever a
:class:`~repro.core.interfaces.TopKIndex` is expected — in particular
as a backend of
:class:`~repro.resilience.guard.ResilientTopKIndex`, which reports the
wrapper's recovery counters through its health summary.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.interfaces import TopKIndex
from repro.core.problem import Element, Predicate
from repro.durability.recovery import RecoveryResult, apply_record, recover_index
from repro.durability.snapshot import write_snapshot
from repro.durability.store import DurableStore
from repro.durability.wal import (
    OP_DELETE,
    OP_INSERT,
    WALRecord,
    WriteAheadLog,
    read_committed,
)
from repro.em.model import Disk, IOStats
from repro.resilience.errors import WALShippingGap

STATE_KIND = "durable-topk"
SNAPSHOTS_RETAINED = 2


class DurableTopKIndex(TopKIndex):
    """Crash-consistent wrapper (see module docstring for the protocol).

    Parameters
    ----------
    inner:
        Any index exposing ``snapshot_state()`` (and ``insert`` /
        ``delete`` if updates are used).
    store:
        The durable store; a private one (private disk) by default.
    commit_interval:
        Group-commit size: every this-many updates, the WAL group is
        made durable.  ``1`` commits each update individually.
    checkpoint_now:
        Write the initial snapshot immediately (default) so the index
        is recoverable from the moment it exists.
    recovery:
        Set by :meth:`recover` — the :class:`RecoveryResult` describing
        how this instance came back.
    """

    def __init__(
        self,
        inner: TopKIndex,
        store: Optional[DurableStore] = None,
        commit_interval: int = 1,
        checkpoint_now: bool = True,
        recovery: Optional[RecoveryResult] = None,
        next_lsn: int = 1,
    ) -> None:
        self.inner = inner
        self.store = store if store is not None else DurableStore()
        self.commit_interval = max(1, commit_interval)
        # next_lsn > 1 resumes a cluster-wide LSN sequence: a replica
        # (re)built from a peer's snapshot starts its log where the
        # peer's committed history ends, keeping LSNs globally monotone.
        self.wal = WriteAheadLog(self.store, next_lsn=next_lsn)
        self._since_commit = 0
        self.recovery = recovery
        self.checkpoints = 0
        if checkpoint_now:
            self.checkpoint()

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def recovered(self) -> bool:
        """Whether this instance was produced by crash recovery."""
        return self.recovery is not None

    @property
    def durability_io(self) -> IOStats:
        """I/O spent on persistence — separate from the query path."""
        return self.store.ctx.stats

    @property
    def committed_lsn(self) -> int:
        """Highest LSN durable in the WAL (survives a crash)."""
        return self.wal.committed_lsn

    @property
    def applied_lsn(self) -> int:
        """Highest LSN the in-memory index has absorbed."""
        return self.wal.applied_lsn

    def read_stamp(self) -> tuple:
        """``(epoch, lsn)`` version of the state a read would observe.

        The serving layer stamps cached answers with this pair and
        re-validates them against the current stamp.  A single durable
        index never loses applied writes, so its epoch is constant 0;
        :meth:`~repro.replication.cluster.ReplicaSet.read_stamp` bumps
        the epoch on promotion/rebuild, where the LSN sequence may step
        backwards.
        """
        return (0, self.applied_lsn)

    def query(self, predicate: Predicate, k: int, **kwargs) -> List[Element]:
        return self.inner.query(predicate, k, **kwargs)

    def space_units(self) -> int:
        return self.inner.space_units()

    # ------------------------------------------------------------------
    # Updates (WAL-first)
    # ------------------------------------------------------------------
    def insert(self, element: Element) -> None:
        lsn = self.wal.append(OP_INSERT, element)
        try:
            self.inner.insert(element)
        except Exception:
            # The in-memory apply failed, so the (uncommitted) record
            # must not survive to replay against a state it never changed.
            self.wal.rollback_last()
            raise
        self._note_applied(lsn)
        self._after_update()

    def delete(self, element: Element) -> None:
        lsn = self.wal.append(OP_DELETE, element)
        try:
            self.inner.delete(element)
        except Exception:
            self.wal.rollback_last()
            raise
        self._note_applied(lsn)
        self._after_update()

    def _note_applied(self, lsn: int) -> None:
        self.wal.note_applied(lsn)
        note = getattr(self.inner, "note_applied", None)
        if note is not None:
            note(lsn)

    def _after_update(self) -> None:
        self._since_commit += 1
        if self._since_commit >= self.commit_interval:
            self.commit()

    def commit(self) -> int:
        """Force the pending WAL group to disk; returns records committed."""
        self._since_commit = 0
        return self.wal.commit()

    # ------------------------------------------------------------------
    # Replication hooks (shipped tails, deferred apply)
    # ------------------------------------------------------------------
    def apply_shipped(self, groups: List[List[WALRecord]]) -> int:
        """Splice shipped committed groups onto this replica's own log.

        Each group is appended to the local WAL *with the shipped LSNs*
        (records at or below ``last_lsn`` are skipped, so re-shipping is
        idempotent) and committed — the follower's acknowledgement is
        its own durable commit.  The in-memory apply is deferred:
        :meth:`replay_unapplied` (run at promotion, on a
        freshness-bounded read, or before a checkpoint) catches up from
        the durable log.

        Raises :class:`~repro.resilience.errors.WALShippingGap` when the
        tail does not splice onto the local log (records in between were
        checkpoint-truncated on the source while this replica was away)
        — the caller must fall back to a full snapshot resync.

        Returns the number of records made durable locally.
        """
        # Records appended by a previous ship whose commit faulted are
        # already in the local log (and filtered below as duplicates);
        # committing first completes that interrupted group so the ack
        # watermark can advance even when nothing new arrives.
        self.commit()
        appended = 0
        for group in groups:
            new_records = [r for r in group if r.lsn > self.wal.last_lsn]
            if not new_records:
                continue
            if new_records[0].lsn != self.wal.next_lsn:
                raise WALShippingGap(
                    f"shipped tail starts at lsn {new_records[0].lsn}, local "
                    f"log expects {self.wal.next_lsn}; full resync required",
                    expected_lsn=self.wal.next_lsn,
                    got_lsn=new_records[0].lsn,
                )
            for record in new_records:
                self.wal.append(record.op, record.element)
            self.commit()
            appended += len(new_records)
        return appended

    def replay_unapplied(self) -> int:
        """Apply committed-but-unapplied records from this replica's WAL.

        Reads the ``(applied_lsn, committed_lsn]`` tail back from the
        *durable* log (charging durability I/O — the deferred apply path
        really does re-read its own disk) and applies it idempotently.
        A promoted follower runs this before admitting writes; reads
        with freshness bounds run it to catch a lagging replica up.
        Returns the number of records applied.
        """
        if self.wal.applied_lsn >= self.wal.committed_lsn:
            return 0
        groups, _ = read_committed(
            self.store, self.wal.head, after_lsn=self.wal.applied_lsn
        )
        applied = 0
        for group in groups:
            for record in group:
                apply_record(self.inner, record)
                self._note_applied(record.lsn)
                applied += 1
        return applied

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot the index and atomically make it the recovery root.

        Ordering is load-bearing: the snapshot chain is flushed
        *before* the root commit publishes its entry, and the WAL is
        truncated in the same root commit — a crash at any point leaves
        either the old root (snapshot + old log) or the new root
        (snapshot + empty log) fully consistent.
        """
        self.commit()
        # A lazily-applying follower must fold every durable record into
        # the index before snapshotting it: the snapshot claims to cover
        # last_lsn, and truncation retires the records it claims.
        self.replay_unapplied()
        state = {
            "kind": STATE_KIND,
            "last_lsn": self.wal.last_lsn,
            "index": self.inner.snapshot_state(),
        }
        entry = write_snapshot(self.store, state)
        self.store.flush()  # barrier: data before the pointer to it
        retained = [entry, *self.store.snapshots][:SNAPSHOTS_RETAINED]
        # Snapshots falling off the retention window are retired before
        # the commit: their blocks sit in limbo until the commit below
        # (the one that stops referencing them) is durable.
        for dropped in self.store.snapshots[SNAPSHOTS_RETAINED - 1 :]:
            self.store.retire_chain(dropped.head_block)
        self.store.snapshots = retained
        self.wal.truncate()
        self.store.wal_head = self.wal.head
        self.store.commit_root()
        self.checkpoints += 1

    def compact_store(self) -> int:
        """Checkpoint, then compact the store (ops lever).

        Folds the manifest into one record and discards (TRIMs, on
        flash) every dead block — the mitigation for a
        ``write_amp_spike`` incident.  Returns the blocks discarded.
        """
        self.checkpoint()
        return self.store.compact()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        disk: Disk,
        restore_fn: Callable[[dict], TopKIndex],
        build_fn: Optional[Callable[[List[Element]], TopKIndex]] = None,
        B: int = 16,
        M: Optional[int] = None,
        commit_interval: int = 1,
    ) -> "DurableTopKIndex":
        """Reboot from a surviving disk.

        Mounts the disk with a fresh context, runs the recovery
        sequence, and wraps the recovered index — re-checkpointing it
        immediately so the pre-crash log is retired and the recovered
        state becomes the new durable baseline.
        """
        store = DurableStore.open(disk, B=B, M=M)
        result = recover_index(store, restore_fn, build_fn)
        # The wrapper logs to a fresh chain; the mounted one is recycled
        # once the re-checkpoint's root commit stops referencing it.
        store.retire_chain(store.wal_head)
        return cls(
            result.index,
            store=store,
            commit_interval=commit_interval,
            checkpoint_now=True,
            recovery=result,
            # Resume the LSN sequence past everything the disk had
            # committed, so a replica rebooted from its durable record
            # keeps the cluster's LSNs globally monotone.
            next_lsn=result.highest_lsn + 1,
        )


__all__ = ["DurableTopKIndex", "STATE_KIND", "SNAPSHOTS_RETAINED"]
