"""The durable block store: sealed blocks, block chains, an append-only root.

Everything the durability layer persists goes through one
:class:`DurableStore` — an :class:`~repro.em.model.EMContext` over a
:class:`~repro.em.model.Disk` (plain or flash) plus one on-disk format:

* **sealed blocks** — every durable block ends with a ``("SEAL", crc)``
  record over its payload.  The seal is written last, so a torn write
  (:meth:`Disk.torn_write` persists only a prefix) is *detectable from
  the block contents alone*, on any disk, with or without the disk's
  own checksum array.
* **forward-chained extents** — snapshots, the WAL and the manifest live
  in chains of sealed blocks ``[(kind, seq, next_id), payload...,
  (SEAL, crc)]`` whose ``next_id`` is *pre-allocated* before the block
  is written.  Sealed chain blocks are never rewritten, so a crash can
  only damage the newest, still-unsealed tail — earlier extents stay
  intact.
* **manifest chain** — the root record ``("ROOT", version, epoch,
  snapshots, wal_head, next_snapshot_id)`` is published by *appending*
  it, as ``[("MANI", seq, next_id), root]``, to the manifest's
  pre-allocated tail.  Mounting walks the chain and adopts the **last**
  valid root: a torn commit fails its seal and mounting stops at the
  root before it.  Publishing a root overwrites nothing.
* **anchors** — blocks 0 and 1 hold ``("ANCHOR", version, anchor_seq,
  manifest_head)``, written to the block of ``anchor_seq``'s parity.
  Only compaction rewrites an anchor, so the two fixed blocks are the
  coldest on the disk, not the hottest.
* **space recycling** — chains a checkpoint drops (the truncated WAL,
  expired snapshots) are retired into *limbo* and enter the free pool
  only once the root commit that stopped referencing them is durable.
  Retiring charges no I/O: the store records each chain's block ids as
  it writes the chain, or walks it at mount.  Allocation reuses free
  blocks **wipe-on-reuse**: the block is discarded (TRIM on flash,
  cleared on a plain disk) before it re-enters service, so a stale
  sealed chain block can never splice itself into a new chain after a
  crash.
* **compaction** (:meth:`compact`) — folds the manifest into one fresh
  record, flips the anchor, then discards every block the new root does
  not reference.  The order is load-bearing: (1) new manifest durable,
  (2) anchor flip durable, (3) discards.  A crash inside (1) or (2)
  leaves the old anchor on the old, intact manifest; a crash inside (3)
  leaves the new anchor on the new, intact manifest — either way a
  mount finds a complete root.

All transfers are charged to the context's :class:`IOStats` like any
other EM operation; durability is not free I/O.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.em.model import Disk, EMContext, block_checksum, stable_repr
from repro.resilience.errors import (
    CorruptBlockError,
    InvalidConfiguration,
    RecoveryError,
    SnapshotIntegrityError,
)

FORMAT_VERSION = 1
_ANCHOR_BLOCKS = (0, 1)
_MANI_KIND = "MANI"


def seal(payload: Sequence[object]) -> List[object]:
    """Append the integrity seal: payload + ``("SEAL", crc)``.

    CRCs are taken over the address-masked :func:`stable_repr`, so two
    processes sealing identical logical contents produce identical
    seals (default ``repr`` embeds ``id()`` addresses).
    """
    records = list(payload)
    records.append(
        ("SEAL", zlib.crc32(stable_repr(records).encode("utf-8", "backslashreplace")))
    )
    return records


def unseal(records: Sequence[object], block_id: Optional[int] = None) -> List[object]:
    """Verify and strip a block seal; raises on torn/damaged blocks."""
    if not records:
        raise SnapshotIntegrityError(
            f"block {block_id} is empty (torn before any record landed)",
            block_id=block_id,
        )
    last = records[-1]
    if not (isinstance(last, tuple) and len(last) == 2 and last[0] == "SEAL"):
        raise SnapshotIntegrityError(
            f"block {block_id} has no seal (torn write)", block_id=block_id
        )
    payload = list(records[:-1])
    expect = zlib.crc32(stable_repr(payload).encode("utf-8", "backslashreplace"))
    if last[1] != expect:
        raise SnapshotIntegrityError(
            f"block {block_id} seal mismatch (damaged contents)", block_id=block_id
        )
    return payload


def _next_id(payload: Sequence[object]) -> Optional[int]:
    """The ``next_id`` of a chain block's verified header, if it has one."""
    header = payload[0] if payload else None
    return header[2] if isinstance(header, tuple) and len(header) == 3 else None


def _is_manifest_block(payload: Sequence[object], seq: int) -> bool:
    if len(payload) != 2:
        return False
    header, record = payload
    return (
        isinstance(header, tuple)
        and len(header) == 3
        and header[0] == _MANI_KIND
        and header[1] == seq
        and isinstance(record, tuple)
        and len(record) == 6
        and record[0] == "ROOT"
    )


@dataclass(frozen=True)
class SnapshotEntry:
    """One snapshot as recorded in the root record."""

    snapshot_id: int
    head_block: int
    num_records: int
    state_crc: int

    def as_record(self) -> Tuple:
        return (self.snapshot_id, self.head_block, self.num_records, self.state_crc)

    @staticmethod
    def from_record(record: Tuple) -> "SnapshotEntry":
        return SnapshotEntry(*record)


class DurableStore:
    """Root of all durable state (see module docstring for the format).

    Parameters
    ----------
    ctx:
        Optional pre-built context.  When omitted, a private context
        over a private disk is created — the normal deployment, which
        also guarantees durability I/O never pollutes the query path's
        counters (no double-counting in health reports).
    B / M:
        Machine parameters of the private context.  ``B >= 4`` is
        required: a chain block must fit header + payload + seal.

    Use :meth:`DurableStore.open` after a (simulated) crash: it builds
    a *fresh* context over the surviving disk — the crashed context's
    cache held volatile state that died with the machine and must never
    be reused.
    """

    def __init__(
        self,
        ctx: Optional[EMContext] = None,
        B: int = 16,
        M: Optional[int] = None,
        _format: bool = True,
    ) -> None:
        self.ctx = ctx if ctx is not None else EMContext(B=B, M=M)
        if self.ctx.B < 4:
            raise InvalidConfiguration(
                f"DurableStore needs B >= 4 (header + payload + seal), got {self.ctx.B}"
            )
        self.epoch = 0
        self.snapshots: List[SnapshotEntry] = []
        self.wal_head: Optional[int] = None
        self.next_snapshot_id = 1
        self.anchor_seq = 0
        self.compactions = 0
        self._mani_head: Optional[int] = None
        # head -> block ids of every chain this store wrote or mounted,
        # the pre-allocated open tail included.
        self._chains: Dict[int, List[int]] = {}
        self._free: List[int] = []
        self._limbo: List[int] = []
        if _format:
            for _ in _ANCHOR_BLOCKS:
                self.ctx.disk.allocate()
            self._mani_head = self.new_chain()
            self._append_root()
            self._write_anchor()
            self.ctx.flush()

    @classmethod
    def open(cls, disk: Disk, B: int = 16, M: Optional[int] = None) -> "DurableStore":
        """Reboot: mount an existing disk and load its latest root.

        Builds a fresh context (the old machine's memory is gone), reads
        both anchors, and walks the newest valid anchor's manifest to
        its last valid root.  Every chain that root references is then
        walked once: those blocks are live, every other block is free.
        """
        ctx = EMContext(B=B, M=M, disk=disk)
        store = cls(ctx=ctx, _format=False)
        store._mount()
        return store

    @property
    def disk(self) -> Disk:
        return self.ctx.disk

    # ------------------------------------------------------------------
    # Sealed single blocks
    # ------------------------------------------------------------------
    @property
    def chain_capacity(self) -> int:
        """Payload records per chain block (header and seal excluded)."""
        return self.ctx.B - 2

    def write_sealed(self, block_id: int, payload: Sequence[object]) -> None:
        self.ctx.write_block(block_id, seal(payload))

    def read_sealed(self, block_id: int) -> List[object]:
        """Read + verify one durable block.

        A :class:`CorruptBlockError` from the machine's own checksum
        layer is translated to :class:`SnapshotIntegrityError`: for
        *durable* data the disk copy is the only copy, so a failed
        verification means the bytes are gone, not that a retry will
        help.
        """
        if block_id >= self.ctx.disk.num_blocks:
            raise SnapshotIntegrityError(
                f"block {block_id} was never allocated (broken chain pointer)",
                block_id=block_id,
            )
        try:
            records = self.ctx.read_block(block_id)
        except CorruptBlockError as exc:
            raise SnapshotIntegrityError(
                f"durable block {block_id} failed disk checksum", block_id=block_id
            ) from exc
        return unseal(records, block_id=block_id)

    def flush(self) -> None:
        """Write-back barrier: force every buffered write to the disk."""
        self.ctx.flush()

    # ------------------------------------------------------------------
    # Space recycling
    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Blocks ready for reuse (dead, discarded on reallocation)."""
        return len(self._free)

    @property
    def limbo_blocks(self) -> int:
        """Retired blocks awaiting the commit that unreferences them."""
        return len(self._limbo)

    def _allocate(self) -> int:
        """A recycled block if any, else a fresh one.

        Private so that every block belongs to a recorded chain: callers
        allocate through :meth:`new_chain` / :meth:`extend_chain`.
        """
        if not self._free:
            return self.ctx.disk.allocate()
        block_id = self._free.pop(0)
        # Wipe-on-reuse: the block's stale sealed contents must be
        # unreadable before the id re-enters service, or a crash could
        # let recovery splice the retired chain it used to belong to
        # into a live one (their (kind, seq) headers can collide).
        self.ctx.disk.discard(block_id)
        self.ctx.drop_frame(block_id)
        return block_id

    def new_chain(self) -> int:
        """Allocate the head of a new chain and start recording its blocks."""
        head = self._allocate()
        self._chains[head] = [head]
        return head

    def extend_chain(self, head: int) -> int:
        """Pre-allocate the next block of the chain that starts at ``head``."""
        block_id = self._allocate()
        self._chains[head].append(block_id)
        return block_id

    def retire_chain(self, head: Optional[int]) -> None:
        """Move a chain the next root will not reference into limbo.

        Charges no I/O: the chain's block ids were recorded when it was
        written or mounted.  The blocks join the free pool once the
        :meth:`commit_root` that drops the reference is durable.
        """
        if head is not None:
            self._limbo.extend(self._chains.pop(head))

    # ------------------------------------------------------------------
    # Root publication
    # ------------------------------------------------------------------
    def commit_root(self) -> None:
        """Publish the root (epoch, snapshots, WAL) by appending one record.

        Nothing is overwritten: the record goes into the pre-allocated
        manifest tail, a new tail is pre-allocated, and the flush makes
        it durable.  Until then, mounting sees the previous root; torn,
        the new record fails its seal and mounting *still* sees the
        previous root.  Once the commit is durable, limbo blocks —
        retired by the checkpoint this commit concludes — are
        unreferenced from every mountable root and join the free pool.
        """
        self.epoch += 1
        self._append_root()
        self.ctx.flush()
        self._free.extend(sorted(self._limbo))
        self._limbo.clear()

    def _append_root(self) -> None:
        manifest = self._chains[self._mani_head]
        tail, seq = manifest[-1], len(manifest) - 1
        next_id = self.extend_chain(self._mani_head)
        record = (
            "ROOT",
            FORMAT_VERSION,
            self.epoch,
            tuple(entry.as_record() for entry in self.snapshots),
            self.wal_head,
            self.next_snapshot_id,
        )
        self.write_sealed(tail, [(_MANI_KIND, seq, next_id), record])

    def _write_anchor(self) -> None:
        self.write_sealed(
            _ANCHOR_BLOCKS[self.anchor_seq % 2],
            [("ANCHOR", FORMAT_VERSION, self.anchor_seq, self._mani_head)],
        )

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Fold the manifest, flip the anchor, discard dead blocks.

        Returns the number of blocks discarded.  On flash the discards
        are TRIMs — after this, garbage collection reclaims every dead
        segment for free instead of copying its pages around.
        """
        self._mani_head = self.new_chain()
        self._append_root()
        self.ctx.flush()
        self.anchor_seq += 1
        self._write_anchor()
        self.ctx.flush()
        # Liveness is walked from the durable root rather than taken
        # from the chain records: compaction destroys every block it
        # does not reach, so it trusts only what a mount would see.
        self._chains = {head: self._chain_blocks(head) for head in self._root_heads()}
        self._reset_free_pool()
        for block_id in self._free:
            self.ctx.disk.discard(block_id)
            self.ctx.drop_frame(block_id)
        self.compactions += 1
        return len(self._free)

    def _reset_free_pool(self) -> None:
        """Every block outside the anchors and the recorded chains is free."""
        live = set(_ANCHOR_BLOCKS).union(*self._chains.values())
        self._free = [b for b in range(self.ctx.disk.num_blocks) if b not in live]
        self._limbo = []

    # ------------------------------------------------------------------
    # Mounting
    # ------------------------------------------------------------------
    def _mount(self) -> None:
        best: Optional[Tuple] = None
        for block_id in _ANCHOR_BLOCKS:
            try:
                payload = self.read_sealed(block_id)
            except SnapshotIntegrityError:
                continue
            record = payload[0] if len(payload) == 1 else None
            if not (
                isinstance(record, tuple) and len(record) == 4 and record[0] == "ANCHOR"
            ):
                continue
            if record[1] != FORMAT_VERSION:
                raise SnapshotIntegrityError(
                    f"anchor {block_id} has format version {record[1]}, "
                    f"this build reads version {FORMAT_VERSION}"
                )
            if best is None or record[2] > best[2]:
                best = record
        if best is None:
            raise RecoveryError(
                "no valid anchor: both anchor blocks are damaged or the "
                "disk was never formatted by a DurableStore"
            )
        _, _, self.anchor_seq, self._mani_head = best

        manifest: List[int] = []
        root: Optional[Tuple] = None
        block_id: Optional[int] = self._mani_head
        while block_id is not None and block_id < self.ctx.disk.num_blocks:
            manifest.append(block_id)
            try:
                payload = self.read_sealed(block_id)
            except SnapshotIntegrityError:
                break  # the pre-allocated open tail (or a torn commit)
            if not _is_manifest_block(payload, seq=len(manifest) - 1):
                break  # not a root this chain's commits wrote: the open tail
            root, block_id = payload[1], payload[0][2]
        else:
            # Every commit pre-allocates its successor, so a walk that
            # runs off the chain has no open tail to append the next to.
            root = None
        if root is None:
            raise RecoveryError(
                f"anchor {self.anchor_seq} points at manifest block "
                f"{self._mani_head}, whose chain holds no valid root record "
                "followed by an open tail"
            )
        _, _, self.epoch, snapshots, self.wal_head, self.next_snapshot_id = root
        self.snapshots = [SnapshotEntry.from_record(r) for r in snapshots]
        self._chains = {self._mani_head: manifest}
        for head in self._root_heads()[1:]:
            self._chains[head] = self._chain_blocks(head)
        self._reset_free_pool()

    # ------------------------------------------------------------------
    # Forward-chained extents
    # ------------------------------------------------------------------
    def write_chain(self, kind: str, records: Sequence[object]) -> int:
        """Write ``records`` into a fresh chain of sealed blocks.

        Returns the head block id.  Every block is newly allocated and
        written exactly once; ``next_id`` pointers are pre-allocated so
        sealed blocks are never revisited.
        """
        head = self.new_chain()
        current = head
        seq = 0
        total = len(records)
        capacity = self.chain_capacity
        offset = 0
        while True:
            chunk = list(records[offset : offset + capacity])
            offset += len(chunk)
            next_id = self.extend_chain(head) if offset < total else None
            self.write_sealed(current, [(kind, seq, next_id), *chunk])
            if next_id is None:
                return head
            current = next_id
            seq += 1

    def read_chain(self, kind: str, head: int) -> Iterator[object]:
        """Yield payload records of a chain; raises on any damage."""
        block_id: Optional[int] = head
        expect_seq: Optional[int] = None
        while block_id is not None:
            payload = self.read_sealed(block_id)
            if not payload:
                raise SnapshotIntegrityError(
                    f"chain block {block_id} has no header", block_id=block_id
                )
            header = payload[0]
            if not (
                isinstance(header, tuple)
                and len(header) == 3
                and header[0] == kind
            ):
                raise SnapshotIntegrityError(
                    f"chain block {block_id} has header {header!r}, "
                    f"expected kind {kind!r}",
                    block_id=block_id,
                )
            _, seq, next_id = header
            if expect_seq is not None and seq != expect_seq:
                raise SnapshotIntegrityError(
                    f"chain block {block_id} has seq {seq}, expected {expect_seq}",
                    block_id=block_id,
                )
            expect_seq = seq + 1
            for record in payload[1:]:
                yield record
            block_id = next_id

    # ------------------------------------------------------------------
    # Audit surface
    # ------------------------------------------------------------------
    def fingerprints(self) -> Dict[int, Tuple[int, bool]]:
        """Per-block ``(crc, seal_ok)`` over the current durable root set.

        The anti-entropy scrubber's substrate.  One walk, one charged
        read per block examined: each block the root references is read
        raw (bypassing the cache so a stale frame cannot mask on-disk
        damage), summed and seal-verified, and the walk follows the
        header of each block whose seal verified.  ``seal_ok=False``
        flags a block whose embedded seal is missing or mismatched —
        bit rot or a torn write the root still points at.  CRCs let two
        replicas compare durable content block-for-block without
        shipping the payloads.

        Unreadable blocks that hold no durable state by design are left
        out, so a healthy replica never fingerprints as damaged: a blank
        anchor (anchors are written only at compaction, alternating),
        and the terminal block of the manifest and WAL walks — the
        pre-allocated open tail, or a torn commit that mounting
        discards.
        """
        out: Dict[int, Tuple[int, bool]] = {}
        disk = self.ctx.disk

        def examine(block_id: int) -> Tuple[List[object], Optional[List[object]]]:
            records = list(disk.raw_read(block_id))
            self.ctx.stats.reads += 1
            try:
                payload: Optional[List[object]] = unseal(records, block_id=block_id)
            except SnapshotIntegrityError:
                payload = None
            out[block_id] = (block_checksum(records), payload is not None)
            return records, payload

        for anchor in _ANCHOR_BLOCKS:
            records, payload = examine(anchor)
            if payload is None and not records:
                del out[anchor]
        snapshot_heads = {entry.head_block for entry in self.snapshots}
        for head in self._root_heads():
            block_id: Optional[int] = head
            while block_id is not None and block_id < disk.num_blocks:
                _, payload = examine(block_id)
                if payload is None:
                    if head not in snapshot_heads:
                        del out[block_id]
                    break
                block_id = _next_id(payload)
        return out

    def reachable_blocks(self) -> List[int]:
        """Every block the current root references (audit surface).

        The anchors, then the manifest, snapshot and WAL chains walked
        from disk.  Chain walks stop at the first unreadable block — the
        same horizon a mount sees.
        """
        out = list(_ANCHOR_BLOCKS)
        for head in self._root_heads():
            out.extend(self._chain_blocks(head))
        return out

    def _root_heads(self) -> List[int]:
        """Head of every chain the current root references, manifest first."""
        heads = [self._mani_head, *(entry.head_block for entry in self.snapshots)]
        if self.wal_head is not None:
            heads.append(self.wal_head)
        return heads

    def _chain_blocks(self, head: int) -> List[int]:
        out: List[int] = []
        block_id: Optional[int] = head
        while block_id is not None and block_id < self.ctx.disk.num_blocks:
            out.append(block_id)
            try:
                payload = self.read_sealed(block_id)
            except SnapshotIntegrityError:
                break
            block_id = _next_id(payload)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurableStore(epoch={self.epoch}, anchor_seq={self.anchor_seq}, "
            f"snapshots={len(self.snapshots)}, wal_head={self.wal_head}, "
            f"free={len(self._free)}, limbo={len(self._limbo)}, "
            f"blocks={self.ctx.disk.num_blocks})"
        )


__all__ = ["DurableStore", "SnapshotEntry", "seal", "unseal", "FORMAT_VERSION"]
