"""Snapshot round trips: build -> snapshot -> restore -> identical answers.

Every serializable structure must come back *bit-for-bit*: 50 seeded
queries agree exactly with the pre-snapshot index, and (for dynamic
structures) subsequent updates evolve both copies identically because
the RNG state travels with the snapshot.
"""

import random

import pytest

from toy import RangePredicate, ToyMax, ToyPrioritized, make_toy_elements
from repro.core.problem import Element
from repro.core.theorem1 import WorstCaseTopKIndex
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.codec import flatten_state, unflatten_state
from repro.durability.snapshot import read_snapshot, write_snapshot
from repro.durability.store import DurableStore
from repro.geometry.primitives import Interval
from repro.resilience.errors import SerializationError
from repro.structures.interval_stabbing import (
    SegmentTreeIntervalPrioritized,
    StabbingPredicate,
    StaticIntervalStabbingMax,
)
from repro.structures.range1d import RangePredicate1D
from repro.structures.range1d_dynamic import DynamicRangeTreap

QUERIES = 50


def make_points(n, seed=0, universe=4000):
    rng = random.Random(seed)
    weights = rng.sample(range(10 * n), n)
    coords = rng.sample(range(universe), n)
    return [Element(coords[i], float(weights[i])) for i in range(n)]


def make_intervals(n, seed=0, universe=100):
    rng = random.Random(seed)
    weights = rng.sample(range(10 * n), n)
    out = []
    for i in range(n):
        a, b = sorted(rng.sample(range(universe), 2))
        out.append(Element(Interval(float(a), float(b)), float(weights[i])))
    return out


def through_disk(state):
    """Persist a state onto a disk, crash the machine, read it back.

    The reopened store has a cold cache, so every record really comes
    off the (simulated) platter.
    """
    store = DurableStore(B=8)
    entry = write_snapshot(store, state)
    store.flush()
    store.snapshots = [entry]
    store.commit_root()
    survivor = DurableStore.open(store.disk, B=8)
    assert survivor.snapshots == [entry]
    return read_snapshot(survivor, survivor.snapshots[0])


def range_queries(seed):
    rng = random.Random(seed)
    for _ in range(QUERIES):
        a, b = sorted((rng.uniform(-10, 4100), rng.uniform(-10, 4100)))
        yield a, b, rng.randint(1, 12)


class TestExpectedTopK:
    def build(self, n=300, seed=3):
        elements = make_toy_elements(n, seed=seed)
        return ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=seed), elements

    def test_restored_answers_match_bit_for_bit(self):
        index, _ = self.build()
        state = through_disk(index.snapshot_state())
        twin = ExpectedTopKIndex.restore(state, ToyPrioritized, ToyMax)
        assert twin.n == index.n
        for a, b, k in range_queries(11):
            assert twin.query(RangePredicate(a, b), k) == index.query(
                RangePredicate(a, b), k
            )

    def test_membership_survives(self):
        index, elements = self.build(n=60)
        twin = ExpectedTopKIndex.restore(
            unflatten_state(flatten_state(index.snapshot_state())),
            ToyPrioritized,
            ToyMax,
        )
        for element in elements:
            assert element in twin
        assert Element(99999, 1.0) not in twin

    def test_post_restore_updates_track_the_original(self):
        # The RNG state rides in the snapshot, so both copies make the
        # same sampling decisions for every subsequent update.
        index, _ = self.build(n=200)
        twin = ExpectedTopKIndex.restore(
            index.snapshot_state(), ToyPrioritized, ToyMax
        )
        fresh = make_toy_elements(40, seed=77, weight_offset=0.5)
        for element in fresh:
            index.insert(element)
            twin.insert(element)
        for element in fresh[::3]:
            index.delete(element)
            twin.delete(element)
        for a, b, k in range_queries(13):
            assert twin.query(RangePredicate(a, b), k) == index.query(
                RangePredicate(a, b), k
            )

    def test_wrong_format_rejected(self):
        index, _ = self.build(n=30)
        state = index.snapshot_state()
        state["format"] = "not-a-topk-snapshot"
        with pytest.raises(SerializationError, match="format"):
            ExpectedTopKIndex.restore(state, ToyPrioritized, ToyMax)

    def test_future_version_rejected(self):
        index, _ = self.build(n=30)
        state = index.snapshot_state()
        state["version"] = 99
        with pytest.raises(SerializationError, match="version"):
            ExpectedTopKIndex.restore(state, ToyPrioritized, ToyMax)


class TestWorstCaseTopK:
    def test_restored_answers_match_bit_for_bit(self):
        elements = make_toy_elements(300, seed=5)
        index = WorstCaseTopKIndex(elements, ToyPrioritized, seed=5)
        state = through_disk(index.snapshot_state())
        twin = WorstCaseTopKIndex.restore(state, ToyPrioritized)
        assert twin.n == index.n
        for a, b, k in range_queries(17):
            assert twin.query(RangePredicate(a, b), k) == index.query(
                RangePredicate(a, b), k
            )

    def test_coreset_hierarchy_is_reproduced(self):
        elements = make_toy_elements(220, seed=9)
        index = WorstCaseTopKIndex(elements, ToyPrioritized, seed=9)
        twin = WorstCaseTopKIndex.restore(index.snapshot_state(), ToyPrioritized)
        # The recorded level sets, not merely the answers, must match:
        # the restored index re-serializes to the identical state.
        assert twin.snapshot_state() == index.snapshot_state()


class TestDynamicRangeTreap:
    def test_restored_answers_match_bit_for_bit(self):
        treap = DynamicRangeTreap(make_points(250, seed=2), seed=2)
        state = through_disk(treap.snapshot_state())
        twin = DynamicRangeTreap.restore(state)
        assert twin.n == treap.n
        rng = random.Random(23)
        for _ in range(QUERIES):
            a, b = sorted((rng.uniform(-10, 4100), rng.uniform(-10, 4100)))
            p = RangePredicate1D(a, b)
            tau = rng.uniform(0, 2500)
            assert twin.query(p, tau).elements == treap.query(p, tau).elements
            assert twin.query(p) == treap.query(p)

    def test_post_restore_inserts_pick_identical_priorities(self):
        treap = DynamicRangeTreap(make_points(100, seed=4), seed=4)
        twin = DynamicRangeTreap.restore(treap.snapshot_state())
        for element in make_points(30, seed=41, universe=9000):
            treap.insert(element)
            twin.insert(element)
        # Identical priorities -> identical shapes -> identical states.
        assert twin.snapshot_state() == treap.snapshot_state()


class TestIntervalStructures:
    def test_segment_tree_round_trips(self):
        elements = make_intervals(180, seed=6)
        index = SegmentTreeIntervalPrioritized(elements)
        state = through_disk(index.snapshot_state())
        twin = SegmentTreeIntervalPrioritized.restore(state)
        rng = random.Random(29)
        for _ in range(QUERIES):
            p = StabbingPredicate(rng.uniform(-5, 105))
            tau = rng.uniform(0, 1200)
            assert twin.query(p, tau).elements == index.query(p, tau).elements

    def test_static_stabbing_max_round_trips(self):
        elements = make_intervals(180, seed=8)
        index = StaticIntervalStabbingMax(elements)
        state = through_disk(index.snapshot_state())
        twin = StaticIntervalStabbingMax.restore(state)
        rng = random.Random(31)
        for _ in range(QUERIES):
            p = StabbingPredicate(rng.uniform(-5, 105))
            assert twin.query(p) == index.query(p)
