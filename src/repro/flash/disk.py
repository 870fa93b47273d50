"""`FlashDisk`: the `Disk` surface over a flash-translation layer.

Drop-in for :class:`~repro.em.model.Disk` — same ``allocate`` /
``raw_read`` / ``raw_write`` / ``torn_write`` / checksum / ``label``
surface, so the EM machine, :class:`~repro.resilience.faults.FaultPlan`
chaos, durability, replication, and sharding all run unmodified on
either device.  Underneath, every logical block is one flash *page*
managed by a :class:`~repro.flash.ftl.FlashTranslationLayer`: writes
program clean pages (never in place), garbage collection really copies
payloads between physical pages, and erases really destroy them — the
page store is physical, not an accounting fiction.

Two additions over the plain disk:

* :meth:`discard` — the TRIM channel.  A log-structured store calls it
  on dead blocks so GC stops copying garbage; on a plain disk the same
  call just wipes the contents, so callers stay device-agnostic.
* :attr:`flash_stats` — the device's own ledger
  (:class:`~repro.flash.ftl.FlashStats`: host writes, page programs,
  erases, GC copies and stalls, trims), with the wear gauges on
  ``ftl.max_wear`` / ``ftl.mean_wear``.  It lives on the device and
  survives reboots (a fresh :class:`~repro.em.model.EMContext` over
  the same disk keeps adding to it), exactly like a real drive's SMART
  counters; a context's :class:`~repro.em.model.IOStats` counts only
  its own block transfers.
"""

from __future__ import annotations

from typing import List, Optional

from repro.em.model import Disk, block_checksum
from repro.flash.ftl import FlashConfig, FlashStats, FlashTranslationLayer


class FlashDisk(Disk):
    """A flash device behind the block-disk interface (module docstring)."""

    def __init__(
        self,
        config: Optional[FlashConfig] = None,
        checksums: bool = False,
        label: str = "",
    ) -> None:
        super().__init__(checksums=checksums, label=label)
        self.ftl = FlashTranslationLayer(config)
        self._logical_blocks = 0

    @property
    def flash_stats(self) -> FlashStats:
        """Cumulative device counters (reboot-surviving)."""
        return self.ftl.stats

    # ------------------------------------------------------------------
    # Disk surface
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Reserve a fresh logical block id (no page is programmed)."""
        block_id = self._logical_blocks
        self._logical_blocks += 1
        if self._checksums_enabled:
            self._checksums.append(block_checksum([]))
        return block_id

    def raw_read(self, block_id: int) -> List[object]:
        if block_id >= self._logical_blocks:
            raise IndexError(f"block {block_id} was never allocated")
        records = self.ftl.read(block_id)
        return [] if records is None else records

    def raw_write(self, block_id: int, records: List[object]) -> None:
        if block_id >= self._logical_blocks:
            raise IndexError(f"block {block_id} was never allocated")
        self.ftl.write(block_id, records)
        if self._checksums_enabled:
            self._checksums[block_id] = block_checksum(records)

    def torn_write(self, block_id: int, records: List[object], keep: int) -> None:
        """Crash mid-transfer: only a prefix page-program survives.

        Same contract as the plain disk: the stored checksum is that of
        the *intended* full contents, so the surviving prefix fails
        verification.  On flash the torn program still consumed a clean
        page and invalidated the previous version — exactly what an
        interrupted program does to the medium.
        """
        keep = max(0, min(keep, len(records)))
        self.ftl.write(block_id, list(records[:keep]))
        if self._checksums_enabled:
            self._checksums[block_id] = block_checksum(list(records))

    def discard(self, block_id: int) -> None:
        """TRIM: declare the block dead so GC reclaims it for free."""
        self.ftl.trim(block_id)
        if self._checksums_enabled:
            self._checksums[block_id] = block_checksum([])

    @property
    def num_blocks(self) -> int:
        return self._logical_blocks

    def enable_checksums(self) -> None:
        if self._checksums_enabled:
            return
        self._checksums = [
            block_checksum(self.ftl.read(bid) or [])
            for bid in range(self._logical_blocks)
        ]
        self._checksums_enabled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlashDisk(label={self.label!r}, blocks={self._logical_blocks}, "
            f"WA={self.ftl.stats.write_amplification:.2f})"
        )


__all__ = ["FlashDisk"]
