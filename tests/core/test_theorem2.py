"""Tests for the Theorem 2 (expected, no-degradation) reduction."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_top_k
from repro.core.params import TuningParams
from repro.core.theorem2 import ExpectedTopKIndex
from toy import BrokenMax, LyingMax, RangePredicate, ToyMax, ToyPrioritized, make_toy_elements


def build(n=600, seed=0, max_factory=ToyMax, **kwargs):
    elements = make_toy_elements(n, seed)
    index = ExpectedTopKIndex(elements, ToyPrioritized, max_factory, seed=seed, **kwargs)
    return elements, index


def random_predicate(rng, n):
    a, b = sorted((rng.uniform(0, 10 * n), rng.uniform(0, 10 * n)))
    return RangePredicate(a, b)


class TestCorrectness:
    def test_exact_across_k(self):
        elements, index = build()
        rng = random.Random(1)
        for _ in range(40):
            p = random_predicate(rng, 600)
            for k in (1, 3, 17, 80, 400):
                assert index.query(p, k) == oracle_top_k(elements, p, k)

    def test_k_one_is_max_reporting(self):
        elements, index = build(n=300)
        rng = random.Random(2)
        for _ in range(25):
            p = random_predicate(rng, 300)
            expect = oracle_top_k(elements, p, 1)
            assert index.query(p, 1) == expect

    def test_k_zero(self):
        _, index = build(n=50)
        assert index.query(RangePredicate(0, 100), 0) == []

    def test_empty_dataset(self):
        index = ExpectedTopKIndex([], ToyPrioritized, ToyMax)
        assert index.query(RangePredicate(0, 1), 5) == []

    def test_k_beyond_ladder_scans(self):
        elements, index = build(n=400)
        before = index.stats.full_scans
        p = RangePredicate(-1, math.inf)
        result = index.query(p, 399)
        assert result == oracle_top_k(elements, p, 399)
        assert index.stats.full_scans > before

    def test_sorted_descending(self):
        elements, index = build(n=300)
        result = index.query(RangePredicate(0, math.inf), 40)
        weights = [e.weight for e in result]
        assert weights == sorted(weights, reverse=True)


class TestLadder:
    def test_ladder_heights(self):
        _, index = build(n=2000)
        assert index.num_levels == len(index.ladder_sample_sizes())
        # K_h <= n/4 with K_1 = B * log2(n) and ratio (1 + sigma).
        K1 = 2 * math.log2(2000)
        expected_h = int(math.log((2000 / 4) / K1) / math.log(1 + index.params.sigma)) + 1
        assert abs(index.num_levels - expected_h) <= 1

    def test_sample_sizes_decrease_in_expectation(self):
        _, index = build(n=4000)
        sizes = index.ladder_sample_sizes()
        assert sizes[0] > sizes[-1]

    def test_tiny_input_has_no_ladder(self):
        _, index = build(n=10)
        assert index.num_levels == 0  # every query scans

    def test_space_dominated_by_ground_plus_small_ladder(self):
        elements, index = build(n=3000)
        ground = index._ground.space_units()
        assert index.space_units() <= ground + 3 * sizes_sum(index)


def sizes_sum(index):
    return max(1, sum(index.ladder_sample_sizes()))


class TestFailureInjection:
    def test_broken_max_still_exact(self):
        """A max structure that never answers forces every round to fail;
        escalation must end in the exact full scan.  Pin ``columnar=False``
        so queries exercise the ladder rounds rather than the columnar
        answer (which never consults the max structure)."""
        elements, index = build(n=400, max_factory=BrokenMax, columnar=False)
        rng = random.Random(3)
        for _ in range(20):
            p = random_predicate(rng, 400)
            k = rng.choice([1, 5, 40])
            assert index.query(p, k) == oracle_top_k(elements, p, k)
        assert index.stats.fallbacks > 0

    def test_lying_max_still_exact(self):
        """A max structure probing the *minimum* gives thresholds that
        overshoot the cost monitor; rounds must detect and escalate.
        Pin ``columnar=False``, as above: the columnar answer never
        consults the max structure, so only the rounds can be lied to."""
        elements, index = build(n=400, max_factory=LyingMax, columnar=False)
        rng = random.Random(4)
        for _ in range(20):
            p = random_predicate(rng, 400)
            k = rng.choice([1, 5, 40])
            assert index.query(p, k) == oracle_top_k(elements, p, k)
        assert index.stats.threshold_fetches > 0


class TestUpdates:
    def test_insert_then_query(self):
        elements, index = build(n=200, seed=5)
        extra = make_toy_elements(80, seed=99, weight_offset=2000.0)
        current = list(elements)
        for e in extra:
            index.insert(e)
            current.append(e)
        rng = random.Random(6)
        for _ in range(20):
            p = random_predicate(rng, 300)
            assert index.query(p, 9) == oracle_top_k(current, p, 9)

    def test_delete_then_query(self):
        elements, index = build(n=300, seed=7)
        current = list(elements)
        for e in elements[:120]:
            index.delete(e)
            current.remove(e)
        rng = random.Random(8)
        for _ in range(20):
            p = random_predicate(rng, 300)
            assert index.query(p, 6) == oracle_top_k(current, p, 6)

    def test_insert_duplicate_raises(self):
        elements, index = build(n=50)
        with pytest.raises(KeyError):
            index.insert(elements[0])

    def test_delete_missing_raises(self):
        _, index = build(n=50)
        from repro.core.problem import Element

        with pytest.raises(KeyError):
            index.delete(Element(-12345, 0.5))

    def test_mixed_workload(self):
        elements, index = build(n=250, seed=9)
        pool = make_toy_elements(400, seed=123, weight_offset=2500.0)[250:]
        current = list(elements)
        rng = random.Random(10)
        for step, e in enumerate(pool):
            index.insert(e)
            current.append(e)
            if step % 3 == 0:
                victim = current.pop(rng.randrange(len(current)))
                index.delete(victim)
            if step % 10 == 0:
                p = random_predicate(rng, 400)
                assert index.query(p, 8) == oracle_top_k(current, p, 8)

    def test_rebuild_triggers_on_growth(self):
        elements, index = build(n=64, seed=11)
        built = index._built_n
        for e in make_toy_elements(200, seed=321, weight_offset=640.0)[64:]:
            index.insert(e)
        assert index._built_n > built  # at least one rebuild happened

    def test_update_requires_dynamic_structures(self):
        from repro.core.interfaces import OpCounter, PrioritizedResult, PrioritizedIndex
        from repro.core.problem import Element

        class StaticPrioritized(PrioritizedIndex):
            def __init__(self, elements):
                self.ops = OpCounter()
                self._elements = list(elements)

            @property
            def n(self):
                return len(self._elements)

            def query(self, predicate, tau, limit=None):
                out = [
                    e
                    for e in self._elements
                    if e.weight >= tau and predicate.matches(e.obj)
                ]
                return PrioritizedResult(out, truncated=False)

        elements = make_toy_elements(50, 12)
        index = ExpectedTopKIndex(elements, StaticPrioritized, ToyMax)
        with pytest.raises(TypeError, match="Dynamic"):
            index.insert(Element(-1, 0.25))


class TestPreconditions:
    def test_duplicate_weights_rejected_at_construction(self):
        from repro.core.problem import Element
        from repro.resilience.errors import ContractViolation

        tied = [Element(0, 5.0), Element(1, 5.0)]
        with pytest.raises(ContractViolation, match="distinct-weights"):
            ExpectedTopKIndex(tied, ToyPrioritized, ToyMax)

    def test_insert_colliding_weight_rejected(self):
        from repro.core.problem import Element
        from repro.resilience.errors import ContractViolation

        elements, index = build(n=60, seed=20)
        clash = Element(-99, elements[0].weight)  # new element, old weight
        with pytest.raises(ContractViolation, match="duplicates an indexed weight"):
            index.insert(clash)
        # The failed insert left no trace: a fresh weight still works.
        index.insert(Element(-99, elements[0].weight + 0.5))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(5, 200),
    seed=st.integers(0, 1000),
    k=st.integers(1, 250),
    qseed=st.integers(0, 1000),
)
def test_property_matches_oracle(n, seed, k, qseed):
    elements = make_toy_elements(n, seed)
    index = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=seed)
    rng = random.Random(qseed)
    p = random_predicate(rng, n)
    assert index.query(p, k) == oracle_top_k(elements, p, k)
