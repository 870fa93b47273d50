"""Unit tests for the EM model: cache semantics and I/O accounting."""

import pytest

from repro.em.model import Disk, EMContext, IOStats, ram_context
from repro.resilience.errors import SimulatedCrash
from repro.resilience.faults import FaultPlan


class TestIOStats:
    def test_total_is_reads_plus_writes(self):
        stats = IOStats(reads=3, writes=4)
        assert stats.total == 7

    def test_reset_zeroes_everything(self):
        stats = IOStats(reads=3, writes=4, cache_hits=9)
        stats.reset()
        assert (stats.reads, stats.writes, stats.cache_hits) == (0, 0, 0)

    def test_snapshot_is_independent(self):
        stats = IOStats(reads=1)
        snap = stats.snapshot()
        stats.reads = 10
        assert snap.reads == 1

    def test_delta_subtracts_counters(self):
        earlier = IOStats(reads=2, writes=1, cache_hits=5)
        later = IOStats(reads=7, writes=4, cache_hits=6)
        delta = later.delta(earlier)
        assert (delta.reads, delta.writes, delta.cache_hits) == (5, 3, 1)


class TestDisk:
    def test_allocate_returns_dense_ids(self):
        disk = Disk()
        assert [disk.allocate() for _ in range(3)] == [0, 1, 2]

    def test_raw_roundtrip(self):
        disk = Disk()
        bid = disk.allocate()
        disk.raw_write(bid, [1, 2, 3])
        assert disk.raw_read(bid) == [1, 2, 3]

    def test_num_blocks_counts_allocations(self):
        disk = Disk()
        for _ in range(5):
            disk.allocate()
        assert disk.num_blocks == 5


class TestEMContextValidation:
    def test_rejects_tiny_block_size(self):
        with pytest.raises(ValueError, match="block size"):
            EMContext(B=1)

    def test_rejects_memory_below_two_blocks(self):
        with pytest.raises(ValueError, match="memory"):
            EMContext(B=16, M=16)

    def test_default_memory_is_four_blocks(self):
        ctx = EMContext(B=8)
        assert ctx.M == 32
        assert ctx.num_frames == 4


class TestCacheBehaviour:
    def test_first_read_is_a_miss(self):
        ctx = EMContext(B=4, M=8)
        bid = ctx.allocate_block([1, 2])
        ctx.flush()
        ctx.stats.reset()
        ctx.read_block(bid)
        assert ctx.stats.reads == 1

    def test_repeat_read_is_free(self):
        ctx = EMContext(B=4, M=8)
        bid = ctx.allocate_block([1, 2])
        ctx.read_block(bid)
        before = ctx.stats.reads
        ctx.read_block(bid)
        assert ctx.stats.reads == before
        assert ctx.stats.cache_hits >= 1

    def test_lru_eviction_order(self):
        ctx = EMContext(B=4, M=8)  # two frames
        a = ctx.allocate_block([1])
        b = ctx.allocate_block([2])
        c = ctx.allocate_block([3])
        ctx.flush()
        ctx.stats.reset()
        ctx.read_block(a)
        ctx.read_block(b)
        ctx.read_block(a)  # refresh a; b is now LRU
        ctx.read_block(c)  # evicts b
        ctx.read_block(a)  # still cached
        assert ctx.stats.reads == 3

    def test_empty_block_is_a_cached_frame(self):
        ctx = EMContext(B=4, M=8)
        bid = ctx.allocate_block()
        ctx.stats.reset()
        assert ctx.read_block(bid) == []
        assert ctx.read_block(bid) == []
        assert (ctx.stats.reads, ctx.stats.cache_hits) == (1, 1)

    def test_dirty_eviction_charges_a_write(self):
        ctx = EMContext(B=4, M=8)
        a = ctx.allocate_block([1])
        b = ctx.allocate_block([2])
        c = ctx.allocate_block([3])
        ctx.flush()
        ctx.stats.reset()
        ctx.write_block(a, [9])
        ctx.read_block(b)
        ctx.read_block(c)  # evicts dirty a
        assert ctx.stats.writes == 1

    def test_clean_eviction_is_free(self):
        ctx = EMContext(B=4, M=8)
        blocks = [ctx.allocate_block([i]) for i in range(3)]
        ctx.flush()
        ctx.stats.reset()
        for bid in blocks:
            ctx.read_block(bid)
        assert ctx.stats.writes == 0

    def test_write_back_persists_on_flush(self):
        ctx = EMContext(B=4, M=8)
        bid = ctx.allocate_block([1])
        ctx.write_block(bid, [42])
        ctx.flush()
        assert ctx.disk.raw_read(bid) == [42]

    def test_block_overflow_rejected(self):
        ctx = EMContext(B=2, M=4)
        bid = ctx.allocate_block()
        with pytest.raises(ValueError, match="overflow"):
            ctx.write_block(bid, [1, 2, 3])

    def test_read_after_write_sees_buffered_data(self):
        ctx = EMContext(B=4, M=8)
        bid = ctx.allocate_block([1])
        ctx.write_block(bid, [7, 8])
        assert ctx.read_block(bid) == [7, 8]


class TestAnalyticCharging:
    def test_charge_reads_rounds_up(self):
        ctx = EMContext(B=8, M=16)
        assert ctx.charge_reads(1) == 1
        assert ctx.charge_reads(8) == 1
        assert ctx.charge_reads(9) == 2
        assert ctx.stats.reads == 4

    def test_charge_zero_is_free(self):
        ctx = EMContext(B=8, M=16)
        assert ctx.charge_reads(0) == 0
        assert ctx.charge_writes(0) == 0
        assert ctx.stats.total == 0

    def test_charge_writes_rounds_up(self):
        ctx = EMContext(B=8, M=16)
        assert ctx.charge_writes(17) == 3


class TestRamContext:
    def test_ram_context_has_tiny_blocks(self):
        ctx = ram_context()
        assert ctx.B == 2
        assert ctx.num_frames > 1000


class TestChecksummedOperation:
    """Checksums must be invisible on a healthy machine."""

    def test_clean_reads_verify(self):
        disk = Disk(checksums=True)
        ctx = EMContext(B=4, M=8, disk=disk)
        bids = [ctx.allocate_block([i, i * 2]) for i in range(5)]
        ctx.flush()
        ctx.drop_cache()
        for i, bid in enumerate(bids):
            assert list(ctx.read_block(bid)) == [i, i * 2]

    def test_write_back_refreshes_the_checksum(self):
        disk = Disk(checksums=True)
        ctx = EMContext(B=4, M=8, disk=disk)
        bid = ctx.allocate_block([1])
        ctx.flush()
        ctx.write_block(bid, [2, 3])
        ctx.flush()
        ctx.drop_cache()
        assert list(ctx.read_block(bid)) == [2, 3]
        assert disk.verify(bid, [2, 3])

    def test_enable_is_idempotent(self):
        disk = Disk()
        disk.allocate()
        disk.enable_checksums()
        disk.enable_checksums()
        assert disk.checksums_enabled


class TestTornWrites:
    """Disk.torn_write: a crash mid-transfer persists only a prefix."""

    def test_prefix_is_persisted(self):
        disk = Disk()
        bid = disk.allocate()
        disk.torn_write(bid, [1, 2, 3, 4], keep=2)
        assert disk.raw_read(bid) == [1, 2]

    def test_keep_is_clamped(self):
        disk = Disk()
        bid = disk.allocate()
        disk.torn_write(bid, [1, 2], keep=99)
        assert disk.raw_read(bid) == [1, 2]
        disk.torn_write(bid, [1, 2], keep=-1)
        assert disk.raw_read(bid) == []

    def test_checksum_is_of_intended_contents(self):
        # A real sector checksum covers what *should* have been written,
        # so the surviving prefix fails verification.
        disk = Disk(checksums=True)
        bid = disk.allocate()
        disk.torn_write(bid, [1, 2, 3, 4], keep=2)
        assert not disk.verify(bid, disk.raw_read(bid))
        assert disk.verify(bid, [1, 2, 3, 4])

    def test_full_keep_still_verifies(self):
        disk = Disk(checksums=True)
        bid = disk.allocate()
        disk.torn_write(bid, [1, 2], keep=2)
        assert disk.verify(bid, disk.raw_read(bid))

    def test_crash_on_eviction_tears_the_block(self):
        plan = FaultPlan(armed=False)
        ctx = EMContext(B=4, M=8, fault_plan=plan)
        bid = ctx.allocate_block([1, 2, 3, 4])
        plan.schedule_crash(at_io=1, torn_fraction=0.5)
        with pytest.raises(SimulatedCrash):
            ctx.flush()
        assert ctx.disk.raw_read(bid) == [1, 2]
        assert bid not in ctx._frames  # the frame died with the machine

    def test_dead_machine_serves_no_further_io(self):
        plan = FaultPlan(armed=False)
        ctx = EMContext(B=4, M=8, fault_plan=plan)
        a = ctx.allocate_block([1])
        b = ctx.allocate_block([2])
        plan.schedule_crash(at_io=1)
        with pytest.raises(SimulatedCrash):
            ctx.flush()
        with pytest.raises(SimulatedCrash):
            ctx.flush()
        fresh = EMContext(B=4, M=8, disk=ctx.disk)  # reboot
        assert fresh.read_block(b) == [] or fresh.read_block(b) == [2]
