"""The write-ahead log: grouped commits, torn-tail-safe replay.

Update durability follows the classic WAL discipline, adapted to the
EM simulator's block granularity:

* every ``insert``/``delete`` first *appends* an ``("OP", lsn, op,
  element)`` record to an in-memory group buffer, then applies to the
  in-memory index;
* a **commit** seals the group — op records plus a ``("COMMIT",
  last_lsn, group_crc)`` marker — into *freshly allocated* chain
  blocks and flushes.  Blocks already sealed are never rewritten, so a
  torn write can only damage the group being committed, never one that
  was previously durable;
* **replay** walks the chain from the head recorded in the root,
  stops cleanly at the first unreadable block (the pre-allocated open
  tail on a clean shutdown; the torn block after a crash), and applies
  only *complete* groups — op records with no following valid COMMIT
  marker are discarded, exactly as an interrupted transaction should
  be;
* **truncation** (at checkpoint) starts a new chain and retires the
  old one, whose blocks are recycled once the root commit lands.

LSNs are global and never reused, so replay against a snapshot that
already contains a prefix of the log (``last_lsn`` in the snapshot
state) skips the duplicate records — replaying twice is a no-op.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.problem import Element
from repro.durability.codec import decode, encode
from repro.durability.store import DurableStore
from repro.em.model import stable_repr
from repro.resilience.errors import SnapshotIntegrityError

OP_INSERT = "insert"
OP_DELETE = "delete"
_CHAIN_KIND = "WAL"


def _group_crc(op_records: List[Tuple]) -> int:
    # stable_repr, not repr: group CRCs must agree across processes
    # (a follower verifies CRCs over groups a primary computed).
    return zlib.crc32(stable_repr(op_records).encode("utf-8", "backslashreplace"))


@dataclass(frozen=True)
class WALRecord:
    """One decoded, committed log record."""

    lsn: int
    op: str
    element: Element


class WriteAheadLog:
    """Appender side of the log (see module docstring for the format)."""

    def __init__(self, store: DurableStore, next_lsn: int = 1) -> None:
        self.store = store
        self.head = store.new_chain()
        self._open = self.head
        self._next_seq = 0
        self.next_lsn = next_lsn
        self._pending: List[Tuple] = []
        self.records_appended = 0
        self.commits = 0
        self._chain_dirty = False
        # A group whose commit was interrupted by a *transient* write
        # fault: (records, resume offset).  The next commit() finishes
        # writing it before anything new — without this, the group
        # would be silently lost (its pending buffer is consumed the
        # moment commit() starts).
        self._inflight: Optional[Tuple[List[Tuple], int]] = None
        # Everything before this log's birth is, by definition, already
        # durable and applied (it lives in the snapshot the log extends).
        self.committed_lsn = next_lsn - 1
        self.applied_lsn = next_lsn - 1

    @property
    def last_lsn(self) -> int:
        """Highest LSN handed out so far (0 before the first append)."""
        return self.next_lsn - 1

    def note_applied(self, lsn: int) -> None:
        """Record that the in-memory index has absorbed ``lsn``.

        ``applied_lsn`` can trail ``committed_lsn`` on a replication
        follower (records shipped and durable, apply deferred); failover
        promotion replays exactly the ``(applied_lsn, committed_lsn]``
        tail before admitting writes.
        """
        if lsn > self.applied_lsn:
            self.applied_lsn = lsn

    @property
    def pending_records(self) -> int:
        """Appended-but-uncommitted records (lost if the machine dies)."""
        return len(self._pending)

    def append(self, op: str, element: Element) -> int:
        """Buffer one operation record; returns its LSN.

        The record is *not* durable until :meth:`commit` — group commit
        trades a bounded window of recent updates for one flush per
        group instead of per update.
        """
        lsn = self.next_lsn
        self.next_lsn += 1
        self._pending.append(("OP", lsn, op, encode(element)))
        self.records_appended += 1
        return lsn

    def rollback_last(self) -> None:
        """Drop the most recent uncommitted append (failed in-memory apply)."""
        if self._pending:
            self._pending.pop()
            self.next_lsn -= 1
            self.records_appended -= 1

    def commit(self) -> int:
        """Seal the pending group to disk; returns records committed.

        Writes the group into fresh chain blocks — the current
        pre-allocated open block first — each sealed with a header
        pointing at the *next* pre-allocated block, then flushes.  The
        final pointer designates the new open block: recovery reads it
        as unsealed and stops there, which is the normal end of log.
        """
        if self._inflight is not None:
            # Finish the group whose write-back faulted before anything
            # new: faulted frames are never dropped, so resuming at the
            # saved chunk re-attempts exactly the interrupted transfers.
            records, offset = self._inflight
            self._write_group(records, offset)
            self.committed_lsn = max(self.committed_lsn, records[-1][1])
            self._inflight = None
        if not self._pending:
            return 0
        ops = list(self._pending)
        self._pending.clear()
        records = ops + [("COMMIT", ops[-1][1], _group_crc(ops))]
        self._write_group(records, 0)
        self._inflight = None
        self.committed_lsn = ops[-1][1]
        return len(ops)

    def _write_group(self, records: List[Tuple], offset: int) -> None:
        """Write (or resume writing) one commit group into the chain.

        On a fault, the resume point is saved so a later :meth:`commit`
        can complete the group — chunks already sealed are never
        rewritten, keeping the chain replayable.
        """
        capacity = self.store.chain_capacity
        try:
            while offset < len(records):
                chunk = records[offset : offset + capacity]
                next_id = self.store.extend_chain(self.head)
                self.store.write_sealed(
                    self._open, [(_CHAIN_KIND, self._next_seq, next_id), *chunk]
                )
                offset += len(chunk)
                self._next_seq += 1
                self._open = next_id
            self.store.flush()
        except Exception:
            self._inflight = (records, offset)
            raise
        self.commits += 1
        self._chain_dirty = True

    def truncate(self) -> None:
        """Start a new, empty chain (checkpoint step; LSNs keep rising).

        The caller must publish :attr:`head` through a root commit;
        until then recovery still reads the old chain.  A chain nothing
        was ever committed to is reused as-is.
        """
        if not self._chain_dirty:
            return
        old_head = self.head
        self.head = self.store.new_chain()
        self._open = self.head
        self._next_seq = 0
        self._chain_dirty = False
        # The old chain's blocks re-enter service once the root commit
        # that stops referencing them lands.
        self.store.retire_chain(old_head)


def read_committed(
    store: DurableStore, head: Optional[int], after_lsn: int = 0
) -> Tuple[List[List[WALRecord]], int]:
    """All complete committed groups of a chain, plus records discarded.

    Walks sealed blocks from ``head``; the first unreadable block —
    pre-allocated open tail, torn write, damaged seal, broken header —
    ends the log.  Trailing op records without a valid COMMIT marker
    (an interrupted group) are discarded and counted.

    ``after_lsn`` makes the read *incremental*: records with LSN
    ``<= after_lsn`` are filtered out without being decoded, and groups
    that fall entirely at or below the watermark are skipped.  This is
    the tail a replication follower fetches on every ship — calling
    again with the last LSN it acknowledged resumes exactly where the
    previous ship stopped, including across a torn tail (the torn group
    was never committed, so it is never shipped, and re-appears in a
    later read once its re-commit lands).  Group CRCs are verified over
    the *full* group regardless of the watermark.
    """
    if head is None:
        return [], 0
    raw: List[Tuple] = []
    block_id: Optional[int] = head
    expect_seq = 0
    while block_id is not None:
        try:
            payload = store.read_sealed(block_id)
        except SnapshotIntegrityError:
            break  # open tail or torn block: the log ends here
        if not payload:
            break
        header = payload[0]
        if not (
            isinstance(header, tuple)
            and len(header) == 3
            and header[0] == _CHAIN_KIND
            and header[1] == expect_seq
        ):
            break
        raw.extend(payload[1:])
        block_id = header[2]
        expect_seq += 1

    groups: List[List[WALRecord]] = []
    pending: List[Tuple] = []
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
                # A commit marker that does not match its group means the
                # log is damaged beyond this point; stop conservatively.
                pending = []
                break
        else:
            break
    return groups, len(pending)


__all__ = [
    "WriteAheadLog",
    "WALRecord",
    "read_committed",
    "OP_INSERT",
    "OP_DELETE",
]
