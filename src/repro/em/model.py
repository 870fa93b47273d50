"""The external-memory machine: disk, blocks, memory frames, I/O counters.

The model follows Aggarwal and Vitter [8 in the paper]: the disk is an
unbounded sequence of blocks, each holding ``B`` records; the machine has
``M`` records of memory (``M >= 2B``), organised here as an LRU cache of
``M // B`` block frames.  Reading a block that is already resident is
free; a miss costs one read I/O, and evicting a dirty frame costs one
write I/O.  The paper assumes ``B >= 64`` for its constants; the
simulator accepts any ``B >= 2`` so tests can exercise tiny
configurations.

A "record" is one Python object — the paper's "each element is stored in
O(1) words" convention.
"""

from __future__ import annotations

import re
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.resilience.errors import (
    BlockOverflowError,
    CorruptBlockError,
    InvalidConfiguration,
    SimulatedCrash,
)
from repro.resilience.faults import FaultPlan


#: ``object.__repr__`` embeds the instance's memory address; masking it
#: keeps checksums of identical logical contents equal across processes
#: (the same idiom the serving planner uses for its sort keys).
_ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]+")


def stable_repr(value: object) -> str:
    """``repr`` with memory addresses masked — process-independent."""
    return _ADDRESS_RE.sub("0xADDR", repr(value))


def block_checksum(records: List[object]) -> int:
    """A cheap deterministic checksum of one block's records.

    CRC32 over the records' *address-masked* reprs — strong enough to
    catch the record drops/overwrites a
    :class:`~repro.resilience.faults.FaultPlan` injects, cheap enough
    to verify on every (uncached) read, and equal across processes even
    for records whose default ``repr`` would embed a memory address.
    """
    return zlib.crc32(stable_repr(records).encode("utf-8", "backslashreplace"))


@dataclass
class IOStats:
    """Mutable I/O counters attached to an :class:`EMContext`.

    ``reads``/``writes`` count block transfers.  ``cache_hits`` counts
    block accesses served from memory (free in the EM model, tracked for
    diagnostics only).  A flash device keeps its own ledger (programs,
    erases, wear) on the device:
    :attr:`~repro.flash.disk.FlashDisk.flash_stats`.
    """

    reads: int = 0
    writes: int = 0
    cache_hits: int = 0

    @property
    def total(self) -> int:
        """Total I/Os (reads + writes) — the EM cost measure."""
        return self.reads + self.writes

    def reset(self) -> None:
        """Zero every counter (used between benchmark phases)."""
        self.reads = 0
        self.writes = 0
        self.cache_hits = 0

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        return IOStats(self.reads, self.writes, self.cache_hits)

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return IOStats(
            self.reads - earlier.reads,
            self.writes - earlier.writes,
            self.cache_hits - earlier.cache_hits,
        )


class Disk:
    """An unbounded array of blocks, each a list of at most ``B`` records.

    The disk itself never counts I/Os — transfers are charged by the
    :class:`EMContext` that mediates access.  Blocks are identified by
    dense integer ids.  ``label`` names the simulated machine the disk
    belongs to — multi-replica deployments use it to scope fault plans
    and attribute chaos counters to the right machine.
    """

    def __init__(self, checksums: bool = False, label: str = "") -> None:
        self._blocks: List[List[object]] = []
        self._checksums: List[int] = []
        self._checksums_enabled = bool(checksums)
        self.label = label

    def allocate(self) -> int:
        """Reserve a fresh empty block and return its id."""
        self._blocks.append([])
        if self._checksums_enabled:
            self._checksums.append(block_checksum([]))
        return len(self._blocks) - 1

    def raw_read(self, block_id: int) -> List[object]:
        """Fetch block contents without charging an I/O (internal use)."""
        return self._blocks[block_id]

    def raw_write(self, block_id: int, records: List[object]) -> None:
        """Store block contents without charging an I/O (internal use)."""
        self._blocks[block_id] = records
        if self._checksums_enabled:
            self._checksums[block_id] = block_checksum(records)

    def torn_write(self, block_id: int, records: List[object], keep: int) -> None:
        """Persist only a *prefix* of an interrupted block write.

        Models the torn write of a crash mid-transfer: the first
        ``keep`` records reach the platter, the rest never do.  With
        checksums enabled the stored checksum is that of the *intended*
        full contents, so the surviving prefix fails verification —
        exactly how a real sector checksum exposes a torn sector.
        Callers that keep their own embedded seals (the durability
        layer) detect the tear even on checksum-free disks, because the
        seal record is written last and is therefore the first casualty.
        """
        keep = max(0, min(keep, len(records)))
        self._blocks[block_id] = list(records[:keep])
        if self._checksums_enabled:
            self._checksums[block_id] = block_checksum(list(records))

    def discard(self, block_id: int) -> None:
        """TRIM: the caller declares this block's contents dead.

        On a plain disk the block is simply wiped (reads as empty until
        rewritten); a :class:`~repro.flash.disk.FlashDisk` additionally
        invalidates the backing page so garbage collection reclaims it
        without copying.  Log-structured stores call this on retired
        chain blocks — device-agnostically.
        """
        self._blocks[block_id] = []
        if self._checksums_enabled:
            self._checksums[block_id] = block_checksum([])

    @property
    def num_blocks(self) -> int:
        """Number of blocks ever allocated — the space measure."""
        return len(self._blocks)

    # ------------------------------------------------------------------
    # Integrity (per-block checksums)
    # ------------------------------------------------------------------
    @property
    def checksums_enabled(self) -> bool:
        """Whether per-block checksums are maintained and verifiable."""
        return self._checksums_enabled

    def enable_checksums(self) -> None:
        """Start maintaining checksums (existing blocks are summed now)."""
        if self._checksums_enabled:
            return
        self._checksums = [block_checksum(records) for records in self._blocks]
        self._checksums_enabled = True

    def verify(self, block_id: int, records: List[object]) -> bool:
        """Whether ``records`` match the checksum stored for ``block_id``."""
        if not self._checksums_enabled:
            return True
        return block_checksum(records) == self._checksums[block_id]


class EMContext:
    """Mediates all block access, enforcing the cache and counting I/Os.

    Parameters
    ----------
    B:
        Records per block.  The paper assumes ``B >= 64``; any ``B >= 2``
        is accepted.
    M:
        Records of memory.  Must satisfy ``M >= 2 * B`` so at least two
        frames exist (the minimum for merging).
    disk:
        Optional shared :class:`Disk`; a private one is created when
        omitted.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` that
        intercepts every block transfer (chaos testing).  Attaching a
        plan that injects corruption enables per-block checksums on the
        disk so corrupted reads are *detected* and raised as
        :class:`~repro.resilience.errors.CorruptBlockError` rather than
        silently served.

    The context offers both a *cached* interface (:meth:`read_block` /
    :meth:`write_block`) used by the data structures, and explicit
    charging hooks (:meth:`charge_reads`) used by components that model
    a scan analytically.
    """

    def __init__(
        self,
        B: int = 64,
        M: Optional[int] = None,
        disk: Optional[Disk] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if B < 2:
            raise InvalidConfiguration(f"block size B must be >= 2, got {B}")
        if M is None:
            M = 4 * B
        if M < 2 * B:
            raise InvalidConfiguration(f"memory M must be >= 2B = {2 * B}, got {M}")
        self.B = B
        self.M = M
        self.disk = disk if disk is not None else Disk()
        self.stats = IOStats()
        self.fault_plan: Optional[FaultPlan] = None
        self._num_frames = M // B
        self._frames: "OrderedDict[int, List[object]]" = OrderedDict()
        self._dirty: Set[int] = set()
        if fault_plan is not None:
            self.attach_fault_plan(fault_plan)

    def attach_fault_plan(
        self, plan: Optional[FaultPlan], enable_checksums: Optional[bool] = None
    ) -> None:
        """Install (or remove, with ``None``) a fault plan.

        ``enable_checksums`` defaults to enabling per-block checksums
        whenever the plan can corrupt reads; pass ``False`` explicitly
        to study *undetected* corruption.

        The plan is bound to this context's disk on attach: re-attaching
        after a reboot (fresh context, same disk) is fine, but attaching
        it to a *different* machine's disk raises — per-machine fault
        scoping for replicated deployments.
        """
        self.fault_plan = plan
        if plan is None:
            return
        plan.bind(self.disk)
        if enable_checksums is None:
            enable_checksums = plan.injects_corruption
        if enable_checksums:
            self.disk.enable_checksums()

    # ------------------------------------------------------------------
    # Cached block interface
    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        """Number of memory frames available (``M // B``)."""
        return self._num_frames

    @property
    def machine(self) -> str:
        """Label of the simulated machine (the disk's label)."""
        return self.disk.label

    def read_block(self, block_id: int) -> List[object]:
        """Return the contents of ``block_id``, charging an I/O on a miss.

        The returned list must be treated as read-only; use
        :meth:`write_block` to mutate a block.
        """
        frames = self._frames
        records = frames.get(block_id)
        if records is not None:  # an empty block is a valid frame
            frames.move_to_end(block_id)
            self.stats.cache_hits += 1
            return records
        # A failed or corrupted transfer still costs the I/O it attempted,
        # so retries are visible in the counters.
        self.stats.reads += 1
        disk = self.disk
        records = disk.raw_read(block_id)
        if self.fault_plan is not None:
            records = self.fault_plan.on_read(block_id, records)
        if disk.checksums_enabled and not disk.verify(block_id, records):
            raise CorruptBlockError(
                f"checksum mismatch reading block {block_id}", block_id=block_id
            )
        self._install_frame(block_id, records)
        return records

    def write_block(self, block_id: int, records: List[object]) -> None:
        """Replace the contents of ``block_id`` through the cache.

        The write is buffered; the I/O is charged when the dirty frame is
        evicted or flushed, matching write-back semantics.
        """
        if len(records) > self.B:
            raise BlockOverflowError(
                f"block overflow: {len(records)} records > B={self.B}"
            )
        if block_id in self._frames:
            self._frames[block_id] = records
            self._frames.move_to_end(block_id)
        else:
            self._install_frame(block_id, records)
        self._dirty.add(block_id)

    def allocate_block(self, records: Optional[List[object]] = None) -> int:
        """Allocate a fresh block, optionally writing initial contents."""
        block_id = self.disk.allocate()
        if records is not None:
            self.write_block(block_id, records)
        return block_id

    def flush(self) -> None:
        """Write back every dirty frame and empty the cache."""
        for block_id in list(self._frames):
            self._evict(block_id)

    def drop_cache(self) -> None:
        """Flush then forget all frames — forces cold-cache measurements."""
        self.flush()

    def drop_frame(self, block_id: int) -> None:
        """Forget any cached copy of ``block_id`` without performing I/O.

        Used by log-structured storage after discarding a block: the
        disk contents changed beneath the cache, so a retained frame —
        clean or dirty — would serve (or write back) stale data for a
        block that is dead by decree.
        """
        self._frames.pop(block_id, None)
        self._dirty.discard(block_id)

    # ------------------------------------------------------------------
    # Analytic charging (for components modelled as sequential scans)
    # ------------------------------------------------------------------
    def charge_reads(self, num_records: int) -> int:
        """Charge the I/Os of sequentially reading ``num_records`` records.

        Returns the number of I/Os charged (``ceil(num_records / B)``).
        Used by structures whose contiguous layout makes per-block
        bookkeeping redundant.
        """
        if num_records <= 0:
            return 0
        ios = -(-num_records // self.B)
        self.stats.reads += ios
        return ios

    def charge_writes(self, num_records: int) -> int:
        """Charge the I/Os of sequentially writing ``num_records`` records."""
        if num_records <= 0:
            return 0
        ios = -(-num_records // self.B)
        self.stats.writes += ios
        return ios

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _install_frame(self, block_id: int, records: List[object]) -> None:
        frames = self._frames
        while len(frames) >= self._num_frames:
            victim = next(iter(frames))
            if victim in self._dirty:
                self._evict(victim)
            else:
                del frames[victim]  # clean: the disk copy is current
        frames[block_id] = records

    def _evict(self, block_id: int) -> None:
        if block_id not in self._dirty:
            del self._frames[block_id]  # clean: the disk copy is current
            return
        self.stats.writes += 1
        if self.fault_plan is not None:
            try:
                # Raises *before* the frame is dropped, so a failed
                # write-back loses nothing and a retry re-attempts it.
                self.fault_plan.on_write(block_id, self._frames[block_id])
            except SimulatedCrash as crash:
                # The machine dies mid-write: a prefix of the block
                # may reach the disk (torn write); the frame — like
                # all volatile state — is lost with the machine.
                if crash.torn_keep is not None:
                    self.disk.torn_write(
                        block_id, self._frames[block_id], crash.torn_keep
                    )
                self._frames.pop(block_id, None)
                self._dirty.discard(block_id)
                raise
        self._dirty.discard(block_id)
        self.disk.raw_write(block_id, self._frames.pop(block_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EMContext(B={self.B}, M={self.M}, frames={self.num_frames}, "
            f"reads={self.stats.reads}, writes={self.stats.writes})"
        )


def ram_context() -> EMContext:
    """An :class:`EMContext` configured to behave like the RAM model.

    The paper notes all results hold in RAM "by setting M and B to
    appropriate constants".  We use ``B = 2`` (the minimum) with a large
    memory so the cache almost never misses; RAM-model structures simply
    never touch a context at all, but components shared with the EM path
    (sorting, selection) accept this one.
    """
    return EMContext(B=2, M=1 << 20)
