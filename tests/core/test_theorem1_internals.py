"""White-box tests for Theorem 1's core-set machinery.

The black-box correctness tests live in ``test_theorem1.py``; these
exercise the internal recursion paths directly — deep hierarchies, the
probe-rank arithmetic, and the doubling ladder's level selection.
"""

import math
import random

import pytest

from oracles import oracle_top_k
from repro.core.params import TuningParams
from repro.core.theorem1 import WorstCaseTopKIndex, _TopFStructure, ReductionStats
from toy import RangePredicate, ToyPrioritized, make_toy_elements


def deep_params():
    """Constants chosen to produce a multi-level hierarchy at n~2000."""
    return TuningParams(
        lam=1.0,
        coreset_rate_c=3.0,
        rank_threshold_c=2.0,
        small_k_factor=4.0,
        slack=4.0,
    )


class TestHierarchyDepth:
    def test_multi_level_recursion_is_exercised(self):
        # columnar=False: a columnar index answers from D's columns and
        # one ground probe, so only the structure path descends.
        elements = make_toy_elements(2000, 1)
        index = WorstCaseTopKIndex(
            elements, ToyPrioritized, params=deep_params(), B=2, seed=2,
            columnar=False,
        )
        assert index._small.hierarchy.depth >= 3
        # Broad queries force the recursion through the deeper levels.
        index.stats.reset()
        rng = random.Random(3)
        for _ in range(20):
            a = rng.uniform(0, 20000)
            p = RangePredicate(a, a + 15000)
            k = rng.randrange(1, index.f + 1)
            assert index.query(p, k) == oracle_top_k(elements, p, k)
        assert index.stats.threshold_fetches > 0

    def test_probe_rank_tracks_recorded_rates(self):
        elements = make_toy_elements(1500, 4)
        index = WorstCaseTopKIndex(
            elements, ToyPrioritized, params=deep_params(), B=2, seed=5
        )
        small = index._small
        for j in range(small.hierarchy.depth - 1):
            rank = small._probe_rank(j)
            rate = small.hierarchy.stats.rates[j + 1]
            assert rank == max(1, math.ceil(2.0 * small.f * rate))

    def test_bottom_level_has_no_index(self):
        elements = make_toy_elements(800, 6)
        index = WorstCaseTopKIndex(elements, ToyPrioritized, params=deep_params(), seed=7)
        assert index._small.indexes[-1] is None or (
            # Rate saturation may stop the chain early with an index.
            index._small.hierarchy.stats.rates[-1] >= 1.0
        )

    def test_ground_index_reused_at_level_zero(self):
        elements = make_toy_elements(600, 8)
        index = WorstCaseTopKIndex(elements, ToyPrioritized, params=deep_params(), seed=9)
        if index._small.indexes[0] is not None:
            assert index._small.indexes[0] is index._ground


class TestLadderSelection:
    def test_large_k_picks_minimal_level(self):
        elements = make_toy_elements(4000, 10)
        params = TuningParams(small_k_factor=1.0)
        index = WorstCaseTopKIndex(elements, ToyPrioritized, params=params, seed=11)
        f = index.f
        # For each ladder level i (1-based), k = 2^{i-1} f must select i.
        for i in range(1, len(index._ladder) + 1):
            k = (2 ** (i - 1)) * f
            if k <= f or k >= index.n / 2:
                continue
            expected_i = max(1, math.ceil(math.log2(k / f)) + 1)
            while (2 ** (expected_i - 1)) * f < k:
                expected_i += 1
            assert (2 ** (expected_i - 1)) * f >= k
            assert expected_i == i

    def test_ladder_rates_recorded(self):
        elements = make_toy_elements(2000, 12)
        index = WorstCaseTopKIndex(elements, ToyPrioritized, seed=13)
        assert len(index._ladder_rates) == len(index._ladder)
        assert all(0 < rate <= 1 for rate in index._ladder_rates)


class TestTopFStructureStandalone:
    def test_direct_use(self):
        elements = make_toy_elements(1000, 14)
        stats = ReductionStats()
        structure = _TopFStructure(
            elements, 16, ToyPrioritized, deep_params(), random.Random(15), stats
        )
        rng = random.Random(16)
        for _ in range(25):
            a = rng.uniform(0, 10000)
            p = RangePredicate(a, a + rng.uniform(100, 9000))
            expect = oracle_top_k(elements, p, 16)
            assert structure.top_f(p) == expect

    def test_space_units_sums_indexes(self):
        elements = make_toy_elements(400, 17)
        stats = ReductionStats()
        structure = _TopFStructure(
            elements, 8, ToyPrioritized, deep_params(), random.Random(18), stats
        )
        total = sum(
            index.space_units() for index in structure.indexes if index is not None
        )
        assert structure.space_units() == total
