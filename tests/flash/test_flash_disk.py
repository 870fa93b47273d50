"""FlashDisk behind the Disk surface: EM integration and the device ledger."""

import pytest

from repro.em.model import EMContext, block_checksum
from repro.flash.disk import FlashDisk
from repro.flash.ftl import FlashConfig


def small_disk(**overrides):
    kwargs = dict(pages_per_block=4, capacity_pages=48, overprovision=0.25)
    kwargs.update(overrides)
    return FlashDisk(config=FlashConfig(**kwargs))


class TestDiskSurface:
    def test_allocate_write_read_roundtrip(self):
        disk = small_disk()
        a, b = disk.allocate(), disk.allocate()
        disk.raw_write(a, [1, 2, 3])
        disk.raw_write(b, ["x"])
        assert disk.raw_read(a) == [1, 2, 3]
        assert disk.raw_read(b) == ["x"]
        assert disk.num_blocks == 2

    def test_unallocated_block_raises(self):
        disk = small_disk()
        with pytest.raises(IndexError):
            disk.raw_read(0)
        with pytest.raises(IndexError):
            disk.raw_write(0, [])

    def test_never_written_block_reads_empty(self):
        disk = small_disk()
        bid = disk.allocate()
        assert disk.raw_read(bid) == []

    def test_discard_trims_the_mapping(self):
        disk = small_disk()
        bid = disk.allocate()
        disk.raw_write(bid, ["doomed"])
        valid_before = disk.ftl.valid_pages
        disk.discard(bid)
        assert disk.raw_read(bid) == []
        assert disk.ftl.valid_pages == valid_before - 1
        assert disk.ftl.stats.trims == 1

    def test_torn_write_keeps_prefix_and_fails_verification(self):
        disk = small_disk()
        disk.enable_checksums()
        bid = disk.allocate()
        disk.raw_write(bid, ["old"])
        disk.torn_write(bid, ["a", "b", "c"], keep=1)
        assert disk.raw_read(bid) == ["a"]
        # The stored checksum covers the intended full write, so the
        # surviving prefix is detectably corrupt — same contract as Disk.
        assert not disk.verify(bid, disk.raw_read(bid))

    def test_checksums_enabled_late_cover_existing_blocks(self):
        disk = small_disk()
        bid = disk.allocate()
        disk.raw_write(bid, [1, 2])
        disk.enable_checksums()
        assert disk.verify(bid, [1, 2])
        assert not disk.verify(bid, [1])

    def test_logical_blocks_are_pages_not_erase_blocks(self):
        disk = small_disk()
        for i in range(10):
            bid = disk.allocate()
            disk.raw_write(bid, [i])
        assert disk.num_blocks == 10
        assert disk.ftl.valid_pages == 10


class TestStatsMirroring:
    """A context's IOStats counts its own block transfers; the flash
    ledger lives on the device.  The two agree without either copying
    the other."""

    def test_context_sees_flash_counters(self):
        disk = small_disk()
        ctx = EMContext(B=4, disk=disk)
        for i in range(12):
            ctx.allocate_block([i])
        ctx.flush()
        ledger = ctx.disk.flash_stats
        assert ledger is disk.ftl.stats
        assert ledger.host_writes == ctx.stats.writes > 0
        assert ledger.device_writes >= ledger.host_writes
        assert ledger.write_amplification >= 1.0
        assert sorted(vars(ctx.stats)) == ["cache_hits", "reads", "writes"]

    def test_reboot_rebinds_without_double_counting(self):
        disk = small_disk()
        first = EMContext(B=4, disk=disk)
        blocks = [first.allocate_block([i]) for i in range(8)]
        first.flush()
        carried = disk.flash_stats.host_writes
        assert first.stats.writes == carried

        # A reboot mounts the same platter with a fresh context: the new
        # machine's IOStats starts at zero and counts only its own
        # traffic, while the device's cumulative ledger keeps the history.
        second = EMContext(B=4, disk=disk)
        assert second.stats.writes == 0
        second.write_block(blocks[0], ["rewritten"])
        second.flush()
        assert second.stats.writes == 1
        assert disk.flash_stats.host_writes == carried + 1
        assert first.stats.writes == carried

    def test_snapshot_delta_isolates_a_window(self):
        disk = small_disk()
        ctx = EMContext(B=4, disk=disk)
        for i in range(6):
            ctx.allocate_block([i])
        ctx.flush()
        before = ctx.stats.snapshot()
        host_before = disk.flash_stats.host_writes
        for i in range(6):
            ctx.allocate_block([100 + i])
        ctx.flush()
        window = ctx.stats.delta(before)
        assert window.writes == 6
        assert disk.flash_stats.host_writes - host_before == 6


class TestChecksumDeterminism:
    def test_block_checksum_masks_object_addresses(self):
        # Two objects with address-bearing default reprs must checksum
        # identically — the repr address is process noise, not content.
        assert block_checksum([object()]) == block_checksum([object()])

    def test_distinct_content_still_differs(self):
        assert block_checksum([1, 2]) != block_checksum([2, 1])
