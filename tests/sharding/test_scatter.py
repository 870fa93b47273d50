"""Scatter-gather: oracle exactness, threshold pruning, k-way merge."""

import random

from repro.core.problem import Element
from repro.sharding import merge_topk

from oracles import oracle_top_k
from sharding_util import (
    make_sharded,
    make_uniform_elements,
    make_zipf_elements,
    random_predicate,
)
from toy import RangePredicate


class TestMergeTopK:
    def test_matches_concatenate_and_sort(self):
        rng = random.Random(0)
        for trial in range(30):
            runs = []
            weight = 0
            for _ in range(rng.randrange(0, 5)):
                size = rng.randrange(0, 6)
                weights = []
                for _ in range(size):
                    weight += rng.randrange(1, 5)
                    weights.append(float(weight))
                runs.append(
                    [Element(i, w) for i, w in enumerate(reversed(weights))]
                )
            k = rng.randrange(0, 10)
            expected = sorted(
                (e for run in runs for e in run),
                key=lambda e: -e.weight,
            )[:k]
            assert merge_topk(runs, k) == expected

    def test_k_nonpositive_and_empty_runs(self):
        assert merge_topk([], 3) == []
        assert merge_topk([[Element(1, 1.0)]], 0) == []
        assert merge_topk([[], []], 2) == []

    def test_single_run_returns_fresh_prefix(self):
        run = [Element(1, 3.0), Element(2, 2.0), Element(3, 1.0)]
        out = merge_topk([run], 2)
        assert out == run[:2]
        assert out is not run


class TestExactness:
    def test_property_sweep_matches_oracle(self):
        """Random (elements, S, strategy, predicate, k) stay oracle-exact."""
        for seed in range(6):
            rng = random.Random(100 + seed)
            maker = make_uniform_elements if seed % 2 else make_zipf_elements
            elements = maker(72, seed=seed)
            num_shards = rng.choice([1, 2, 4, 8])
            strategy = rng.choice(["hash", "range"])
            idx = make_sharded(
                elements, num_shards=num_shards, strategy=strategy, seed=seed
            )
            for _ in range(12):
                predicate = random_predicate(rng, elements)
                k = rng.choice([1, 2, 3, 7, 20, len(elements)])
                assert idx.query(predicate, k) == oracle_top_k(
                    elements, predicate, k
                ), (seed, num_shards, strategy, predicate, k)
                # Each contacted shard is probed exactly once, for top-k.
                assert idx.stats.shard_probes == idx.stats.shards_contacted

    def test_trace_accounting_is_conserved(self):
        elements = make_uniform_elements(64, seed=9)
        idx = make_sharded(elements, num_shards=8, seed=9)
        rng = random.Random(9)
        for _ in range(10):
            idx.query(random_predicate(rng, elements), rng.randrange(1, 12))
        s = idx.stats
        # Every mapped shard per query is contacted, pruned, or empty.
        assert s.shards_contacted + s.shards_pruned + s.shards_empty == s.shard_slots
        assert s.max_probes == s.shard_slots
        assert s.shard_probes == s.shards_contacted
        assert s.escalations == 0

    def test_k_zero_returns_empty(self):
        elements = make_uniform_elements(20, seed=1)
        idx = make_sharded(elements, num_shards=2)
        assert idx.query(RangePredicate(0, 10**9), 0) == []


class TestPruning:
    def test_range_partitioning_prunes_skewed_weights(self):
        """Weight-aware bands concentrate top-k: few shards contacted."""
        elements = make_zipf_elements(160, seed=11)
        everything = RangePredicate(-10, 10 * len(elements) + 10)
        ranged = make_sharded(
            elements, num_shards=16, strategy="range", seed=11
        )
        hashed = make_sharded(elements, num_shards=16, strategy="hash", seed=11)
        for idx in (ranged, hashed):
            for k in (1, 2, 4, 8):
                assert idx.query(everything, k) == oracle_top_k(
                    elements, everything, k
                )
        assert ranged.stats.contact_ratio <= 0.5
        # The ordinal pruning rule sees *ranks*, so value skew only
        # helps when placement is weight-aware: range must beat hash.
        assert ranged.stats.contact_ratio < hashed.stats.contact_ratio

    def test_small_k_prunes_even_under_hash(self):
        elements = make_uniform_elements(160, seed=12)
        idx = make_sharded(elements, num_shards=16, strategy="hash", seed=12)
        everything = RangePredicate(-10, 10 * len(elements) + 10)
        for _ in range(8):
            assert len(idx.query(everything, 1)) == 1
        # k=1: only the globally heaviest shard is visited; the other
        # 15 are pruned by its exact bound.
        assert idx.stats.shards_contacted == idx.stats.queries
        assert idx.stats.contact_ratio <= 1 / 8
