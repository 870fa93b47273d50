"""Unit + property tests for BlockArray."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.em.blockarray import BlockArray
from repro.em.model import EMContext
from repro.resilience.faults import FaultPlan


def ctx(B=4, M=8) -> EMContext:
    return EMContext(B=B, M=M)


class TestConstruction:
    def test_empty(self):
        arr = BlockArray(ctx())
        assert len(arr) == 0
        assert arr.num_blocks == 0
        assert list(arr.scan()) == []

    def test_partial_tail_block(self):
        arr = BlockArray(ctx(), range(6))
        assert len(arr) == 6
        assert arr.num_blocks == 2

    def test_extend_fills_tail_before_allocating(self):
        arr = BlockArray(ctx(), range(3))
        arr.extend(range(3, 6))
        assert len(arr) == 6
        assert arr.num_blocks == 2
        assert arr.to_list() == list(range(6))

    def test_extend_exact_block_boundary(self):
        arr = BlockArray(ctx(), range(4))
        arr.extend(range(4, 8))
        assert arr.num_blocks == 2
        assert arr.to_list() == list(range(8))


class TestAccess:
    def test_random_access(self):
        arr = BlockArray(ctx(), range(25))
        for i in (0, 3, 4, 12, 24):
            assert arr.get(i) == i
            assert arr[i] == i

    def test_out_of_range_raises(self):
        arr = BlockArray(ctx(), range(5))
        with pytest.raises(IndexError):
            arr.get(5)
        with pytest.raises(IndexError):
            arr.get(-1)

    def test_scan_range(self):
        arr = BlockArray(ctx(), range(20))
        assert list(arr.scan(5, 13)) == list(range(5, 13))

    def test_scan_clamps_stop(self):
        arr = BlockArray(ctx(), range(5))
        assert list(arr.scan(2, 100)) == [2, 3, 4]

    def test_scan_invalid_range_raises(self):
        arr = BlockArray(ctx(), range(5))
        with pytest.raises(IndexError):
            list(arr.scan(4, 2))

    def test_chunks_split_at_block_boundaries(self):
        arr = BlockArray(ctx(B=4), range(14))
        assert list(arr.chunks(2, 13)) == [[2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12]]
        assert list(arr.chunks(4, 4)) == []

    def test_chunks_invalid_range_raises(self):
        arr = BlockArray(ctx(), range(5))
        with pytest.raises(IndexError):
            list(arr.chunks(4, 2))


class TestIOCost:
    def test_full_scan_costs_ceil_n_over_b(self):
        context = ctx(B=4, M=8)
        arr = BlockArray(context, range(10))  # 3 blocks
        context.drop_cache()
        context.stats.reset()
        list(arr.scan())
        assert context.stats.reads == 3

    def test_prefix_scan_reads_only_covering_blocks(self):
        context = ctx(B=4, M=8)
        arr = BlockArray(context, range(40))
        context.drop_cache()
        context.stats.reset()
        list(arr.scan(0, 4))
        assert context.stats.reads == 1

    def test_chunks_read_a_block_only_when_its_slice_is_requested(self):
        context = ctx(B=4, M=8)
        arr = BlockArray(context, range(40))
        context.drop_cache()
        context.stats.reset()
        chunks = arr.chunks(2, 30)
        assert context.stats.reads == 0
        assert next(chunks) == [2, 3]
        assert context.stats.reads == 1
        assert next(chunks) == [4, 5, 6, 7]
        assert context.stats.reads == 2
        chunks.close()
        assert context.stats.reads == 2

    def test_undetected_dropped_record_shortens_the_scan(self):
        context = ctx(B=4, M=8)
        arr = BlockArray(context, range(5))  # the tail block holds one record
        context.flush()
        plan = FaultPlan(seed=1, corrupt_rate=1.0)
        context.attach_fault_plan(plan, enable_checksums=False)
        # islice bounds the scan, so a scan that stalls fails, not hangs.
        chunks = list(itertools.islice(arr.chunks(), 3))
        assert [len(chunk) for chunk in chunks] == [4, 0]
        assert plan.stats.corruptions == 2

    def test_random_access_is_one_block(self):
        context = ctx(B=4, M=8)
        arr = BlockArray(context, range(40))
        context.drop_cache()
        context.stats.reset()
        arr.get(17)
        assert context.stats.reads == 1


@settings(max_examples=40, deadline=None)
@given(data=st.lists(st.integers(), max_size=120), B=st.integers(2, 9))
def test_roundtrip_matches_list(data, B):
    arr = BlockArray(EMContext(B=B, M=4 * B), data)
    assert arr.to_list() == data
    assert len(arr) == len(data)
    expected_blocks = (len(data) + B - 1) // B
    assert arr.num_blocks == expected_blocks


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.integers(), min_size=1, max_size=80),
    B=st.integers(2, 7),
    st_data=st.data(),
)
def test_scan_slice_matches_list_slice(data, B, st_data):
    arr = BlockArray(EMContext(B=B, M=4 * B), data)
    start = st_data.draw(st.integers(0, len(data)))
    stop = st_data.draw(st.integers(start, len(data)))
    assert list(arr.scan(start, stop)) == data[start:stop]
    chunks = list(arr.chunks(start, stop))
    assert [record for chunk in chunks for record in chunk] == data[start:stop]
    # One non-empty slice per covering block.
    assert all(chunks)
    assert len(chunks) == (-(-stop // B) - start // B if stop > start else 0)
