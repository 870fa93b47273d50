"""Tests for interval stabbing structures against the brute-force oracle."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_max, oracle_prioritized, sorted_desc
from repro.core.interfaces import PrioritizedResult
from repro.core.problem import Element
from repro.em.model import EMContext
from repro.geometry.primitives import Interval
from repro.structures.interval_stabbing import (
    DynamicIntervalStabbingMax,
    SegmentTreeIntervalPrioritized,
    StabbingPredicate,
    StaticIntervalStabbingMax,
)


def make_intervals(n, seed=0, universe=100.0, weight_offset=0.0):
    """Random intervals with distinct weights.

    ``weight_offset`` keeps weights distinct across *separately*
    generated batches (the paper's distinct-weights convention).
    """
    rng = random.Random(seed)
    weights = rng.sample(range(10 * n), n)
    out = []
    for i in range(n):
        a, b = rng.uniform(0, universe), rng.uniform(0, universe)
        out.append(
            Element(
                Interval(min(a, b), max(a, b)),
                float(weights[i]) + weight_offset,
                payload=i,
            )
        )
    return out


def stab_points(elements, rng, count):
    """Query points biased to hit endpoints (the tricky cases)."""
    points = []
    for _ in range(count):
        if rng.random() < 0.4 and elements:
            e = rng.choice(elements)
            points.append(rng.choice([e.obj.lo, e.obj.hi]))
        else:
            points.append(rng.uniform(-10, 110))
    return points


class TestPredicates:
    def test_matches_closed_endpoints(self):
        p = StabbingPredicate(5.0)
        assert p.matches(Interval(5, 9))
        assert p.matches(Interval(1, 5))
        assert not p.matches(Interval(5.001, 9))


class TestPrioritized:
    def test_matches_oracle(self):
        elements = make_intervals(250, 1)
        index = SegmentTreeIntervalPrioritized(elements)
        rng = random.Random(2)
        for x in stab_points(elements, rng, 60):
            tau = rng.uniform(0, 2500)
            got = sorted_desc(index.query(StabbingPredicate(x), tau).elements)
            assert got == oracle_prioritized(elements, StabbingPredicate(x), tau)

    def test_tau_minus_inf_reports_all_matches(self):
        elements = make_intervals(100, 3)
        index = SegmentTreeIntervalPrioritized(elements)
        x = elements[0].obj.lo
        got = index.query(StabbingPredicate(x), -math.inf)
        assert len(got.elements) == sum(1 for e in elements if e.obj.contains(x))

    def test_limit_truncates_with_flag(self):
        elements = make_intervals(200, 4)
        index = SegmentTreeIntervalPrioritized(elements)
        # A point stabbing many intervals:
        x = 50.0
        full = index.query(StabbingPredicate(x), -math.inf)
        if len(full.elements) > 3:
            r = index.query(StabbingPredicate(x), -math.inf, limit=3)
            assert r.truncated and len(r.elements) == 4

    def test_limit_not_reached_not_truncated(self):
        elements = make_intervals(50, 5)
        index = SegmentTreeIntervalPrioritized(elements)
        r = index.query(StabbingPredicate(50.0), -math.inf, limit=10**6)
        assert not r.truncated

    def test_empty_structure(self):
        index = SegmentTreeIntervalPrioritized([])
        r = index.query(StabbingPredicate(1.0), 0.0)
        assert r.elements == []

    def test_point_intervals(self):
        elements = [Element(Interval(5.0, 5.0), 1.0), Element(Interval(5.0, 5.0), 2.0)]
        index = SegmentTreeIntervalPrioritized(elements)
        assert len(index.query(StabbingPredicate(5.0), -math.inf).elements) == 2
        assert index.query(StabbingPredicate(5.1), -math.inf).elements == []

    def test_query_cost_bound_logarithmic(self):
        elements = make_intervals(1024, 6)
        index = SegmentTreeIntervalPrioritized(elements)
        assert index.query_cost_bound() == pytest.approx(10.0)

    def test_space_is_n_log_n_ish(self):
        elements = make_intervals(512, 7)
        index = SegmentTreeIntervalPrioritized(elements)
        assert 512 <= index.space_units() <= 512 * 12


class TestPrioritizedDynamic:
    def test_insert_off_grid_endpoints(self):
        base = make_intervals(100, 8)
        index = SegmentTreeIntervalPrioritized(base)
        extra = make_intervals(60, 9, weight_offset=0.5)  # off-grid, distinct weights
        current = list(base)
        for e in extra:
            index.insert(e)
            current.append(e)
        rng = random.Random(10)
        for x in stab_points(current, rng, 40):
            got = sorted_desc(index.query(StabbingPredicate(x), -math.inf).elements)
            assert got == oracle_prioritized(current, StabbingPredicate(x), -math.inf)

    def test_delete(self):
        elements = make_intervals(150, 11)
        index = SegmentTreeIntervalPrioritized(elements)
        current = list(elements)
        for e in elements[:70]:
            index.delete(e)
            current.remove(e)
        rng = random.Random(12)
        for x in stab_points(current, rng, 30):
            got = sorted_desc(index.query(StabbingPredicate(x), 0.0).elements)
            assert got == oracle_prioritized(current, StabbingPredicate(x), 0.0)

    def test_rebuild_keeps_answers(self):
        base = make_intervals(40, 13)
        index = SegmentTreeIntervalPrioritized(base)
        extra = make_intervals(150, 14, weight_offset=0.5)
        current = list(base)
        for e in extra:  # forces at least one grid rebuild (n > 2 n0)
            index.insert(e)
            current.append(e)
        rng = random.Random(15)
        for x in stab_points(current, rng, 25):
            got = sorted_desc(index.query(StabbingPredicate(x), -math.inf).elements)
            assert got == oracle_prioritized(current, StabbingPredicate(x), -math.inf)

    def test_em_mode_is_static(self):
        ctx = EMContext(B=8, M=32)
        index = SegmentTreeIntervalPrioritized(make_intervals(30, 16), ctx=ctx)
        with pytest.raises(TypeError, match="static"):
            index.insert(Element(Interval(0, 1), 0.5))


class TestEMMode:
    def test_matches_oracle_with_io_counting(self):
        ctx = EMContext(B=8, M=64)
        elements = make_intervals(200, 17)
        index = SegmentTreeIntervalPrioritized(elements, ctx=ctx)
        ctx.stats.reset()
        rng = random.Random(18)
        for x in stab_points(elements, rng, 30):
            tau = rng.uniform(0, 2000)
            got = sorted_desc(index.query(StabbingPredicate(x), tau).elements)
            assert got == oracle_prioritized(elements, StabbingPredicate(x), tau)
        assert ctx.stats.total > 0

    def test_output_term_is_blocked(self):
        """Reporting t elements from one node costs ~t/B extra I/Os."""
        B = 16
        ctx = EMContext(B=B, M=4 * B)
        # 512 intervals all containing x = 50.
        elements = [
            Element(Interval(0.0, 100.0 + i * 1e-9), float(i)) for i in range(512)
        ]
        index = SegmentTreeIntervalPrioritized(elements, ctx=ctx)
        ctx.drop_cache()
        ctx.stats.reset()
        result = index.query(StabbingPredicate(50.0), -math.inf)
        assert len(result.elements) == 512
        # Within a small constant of t/B (canonical lists + path blocks).
        assert ctx.stats.total <= 6 * (512 / B) + 64


class TestStaticMax:
    def test_matches_oracle(self):
        elements = make_intervals(250, 19)
        index = StaticIntervalStabbingMax(elements)
        rng = random.Random(20)
        for x in stab_points(elements, rng, 80):
            assert index.query(StabbingPredicate(x)) == oracle_max(
                elements, StabbingPredicate(x)
            )

    def test_empty(self):
        index = StaticIntervalStabbingMax([])
        assert index.query(StabbingPredicate(0.0)) is None

    def test_query_left_and_right_of_everything(self):
        elements = [Element(Interval(10, 20), 1.0)]
        index = StaticIntervalStabbingMax(elements)
        assert index.query(StabbingPredicate(5.0)) is None
        assert index.query(StabbingPredicate(25.0)) is None
        assert index.query(StabbingPredicate(10.0)) is not None

    def test_em_mode_uses_btree_predecessor(self):
        ctx = EMContext(B=16, M=64)
        elements = make_intervals(300, 21)
        index = StaticIntervalStabbingMax(elements, ctx=ctx)
        rng = random.Random(22)
        ctx.drop_cache()
        ctx.stats.reset()
        for x in stab_points(elements, rng, 20):
            assert index.query(StabbingPredicate(x)) == oracle_max(
                elements, StabbingPredicate(x)
            )
        # O(log_B n) per query: generous constant-factor envelope.
        per_query = ctx.stats.total / 20
        assert per_query <= 4 * math.log(600, 16) + 4

    def test_rebuild_updates(self):
        elements = make_intervals(60, 23)
        index = StaticIntervalStabbingMax(elements[:40])
        for e in elements[40:]:
            index.insert(e)
        index.delete(elements[0])
        current = elements[1:]
        rng = random.Random(24)
        for x in stab_points(current, rng, 20):
            assert index.query(StabbingPredicate(x)) == oracle_max(
                current, StabbingPredicate(x)
            )


class TestDynamicMax:
    def test_matches_oracle_through_updates(self):
        elements = make_intervals(200, 25)
        index = DynamicIntervalStabbingMax(elements[:120])
        current = elements[:120]
        for e in elements[120:]:
            index.insert(e)
            current.append(e)
        for e in elements[:50]:
            index.delete(e)
            current.remove(e)
        rng = random.Random(26)
        for x in stab_points(current, rng, 50):
            assert index.query(StabbingPredicate(x)) == oracle_max(
                current, StabbingPredicate(x)
            )

    def test_empty(self):
        index = DynamicIntervalStabbingMax([])
        assert index.query(StabbingPredicate(0.0)) is None


interval_strategy = st.builds(
    lambda a, b: Interval(min(a, b), max(a, b)),
    st.integers(0, 60),
    st.integers(0, 60),
)


@settings(max_examples=30, deadline=None)
@given(
    objs=st.lists(interval_strategy, min_size=1, max_size=60),
    x=st.integers(-5, 65),
    tau_rank=st.floats(0, 1),
    seed=st.integers(0, 100),
)
def test_property_prioritized_and_max(objs, x, tau_rank, seed):
    rng = random.Random(seed)
    weights = rng.sample(range(10 * len(objs)), len(objs))
    elements = [Element(o, float(w)) for o, w in zip(objs, weights)]
    tau = tau_rank * 10 * len(objs)
    predicate = StabbingPredicate(float(x))
    index = SegmentTreeIntervalPrioritized(elements)
    assert sorted_desc(index.query(predicate, tau).elements) == oracle_prioritized(
        elements, predicate, tau
    )
    static = StaticIntervalStabbingMax(elements)
    assert static.query(predicate) == oracle_max(elements, predicate)


# ----------------------------------------------------------------------
# The block-at-a-time scan against the record-at-a-time scan it replaced
# ----------------------------------------------------------------------
def record_at_a_time_query(index, predicate, tau, limit=None):
    """The oracle: one record per step, each block read on first touch."""
    x = predicate.x
    out = []
    for key, is_leaf in index._tree.path_nodes(x):
        index.ops.node_visits += 1
        if index.ctx is not None:
            block_id = index._node_blocks.get(key)
            if block_id is not None:
                index.ctx.read_block(block_id)
        for element in _scan_list(index, key, tau):
            if is_leaf and not index.interval_of(element).contains(x):
                continue
            out.append(element)
            if limit is not None and len(out) > limit:
                return PrioritizedResult(out, truncated=True)
    return PrioritizedResult(out, truncated=False)


def _scan_list(index, key, tau):
    if index._blocks is not None:
        segment = index._segments.get(key)
        if segment is None:
            return
        offset, length = segment
        for element in _scan_records(index._blocks, offset, offset + length):
            if element.weight < tau:
                return
            index.ops.scanned += 1
            yield element
        return
    for element in index._tree.lists.get(key) or ():
        if element.weight < tau:
            return
        index.ops.scanned += 1
        yield element


def _scan_records(array, start, stop):
    B = array.ctx.B
    position = start
    while position < stop:
        block_idx, offset = divmod(position, B)
        block = array.ctx.read_block(array._block_ids[block_idx])
        upper = min(stop - position + offset, len(block))
        for record in block[offset:upper]:
            yield record
        position += upper - offset


def _draw_query(data, index, B):
    """A stabbing point, a threshold and a limit aimed at block edges."""
    # On an endpoint, just inside or outside one, or anywhere.
    ends = [end for e in index._tree.assignments for end in (e.obj.lo, e.obj.hi)]
    x = data.draw(st.integers(-8, 220)) / 4
    if ends and data.draw(st.booleans()):
        x = data.draw(st.sampled_from(ends)) + data.draw(st.sampled_from([0, 0.25, -0.25]))
    edges = {"first": [], "above_first": [], "last": []}
    for key, _ in index._tree.path_nodes(x):
        lst = index._tree.lists.get(key)
        if not lst:
            continue
        # The slice edges of this list: block edges in EM mode, the
        # list's own ends in RAM mode.
        offset = index._segments[key][0] if index._blocks is not None else 0
        width = B if index._blocks is not None else len(lst)
        for position, element in enumerate(lst):
            absolute = offset + position
            if position == 0 or absolute % width == 0:
                edges["first"].append(element.weight)
                edges["above_first"].append(element.weight + 0.5)
            if position == len(lst) - 1 or (absolute + 1) % width == 0:
                edges["last"].append(element.weight)
    kind = data.draw(st.sampled_from(["-inf", "first", "above_first", "last"]))
    tau = data.draw(st.sampled_from(edges[kind])) if edges.get(kind) else -math.inf
    limit = data.draw(st.sampled_from([None, 0, 1, B - 1, B, B + 1, "random"]))
    if limit == "random":
        limit = data.draw(st.integers(0, 3 * B))
    return StabbingPredicate(x), tau, limit


def _intervals(spans, order):
    return [
        Element(Interval(lo, lo + width), float(weight))
        for (lo, width), weight in zip(spans, order)
    ]


span_lists = st.integers(1, 80).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 12)), min_size=n, max_size=n
    )
)


@settings(max_examples=60, deadline=None)
@given(
    spans=span_lists,
    B=st.sampled_from([2, 3, 4, 16]),
    frames=st.sampled_from([2, 4]),
    data=st.data(),
)
def test_block_loop_matches_record_scan_em(spans, B, frames, data):
    """Same answers, op counts and I/Os, query after query, one cache."""
    elements = _intervals(spans, data.draw(st.permutations(range(len(spans)))))
    ctx = EMContext(B=B, M=frames * B)
    twin_ctx = EMContext(B=B, M=frames * B)
    index = SegmentTreeIntervalPrioritized(elements, ctx=ctx)
    twin = SegmentTreeIntervalPrioritized(elements, ctx=twin_ctx)
    for _ in range(data.draw(st.integers(1, 8))):
        predicate, tau, limit = _draw_query(data, index, B)
        got = index.query(predicate, tau, limit)
        want = record_at_a_time_query(twin, predicate, tau, limit)
        assert got.elements == want.elements
        assert got.truncated == want.truncated
        assert index.ops == twin.ops
        assert ctx.stats == twin_ctx.stats


@settings(max_examples=60, deadline=None)
@given(
    spans=span_lists,
    extra=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 12)), max_size=10),
    B=st.sampled_from([2, 3, 4, 16]),
    data=st.data(),
)
def test_block_loop_matches_record_scan_ram(spans, extra, B, data):
    """RAM mode, with off-grid inserts that leave partial leaf lists."""
    elements = _intervals(spans, data.draw(st.permutations(range(len(spans)))))
    index = SegmentTreeIntervalPrioritized(elements)
    twin = SegmentTreeIntervalPrioritized(elements)
    for i, (lo, width) in enumerate(extra):
        element = Element(Interval(lo + 0.5, lo + width + 0.5), len(spans) + i + 0.5)
        index.insert(element)
        twin.insert(element)
    for _ in range(data.draw(st.integers(1, 8))):
        predicate, tau, limit = _draw_query(data, index, B)
        got = index.query(predicate, tau, limit)
        want = record_at_a_time_query(twin, predicate, tau, limit)
        assert got.elements == want.elements
        assert got.truncated == want.truncated
        assert index.ops == twin.ops
