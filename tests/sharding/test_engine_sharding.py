"""ServingEngine and ResilientTopKIndex over a sharded backend."""

import random

import pytest

from repro.ops.telemetry import TelemetryCollector
from repro.resilience.errors import InvalidConfiguration, ShardUnavailable
from repro.resilience.guard import GuardPolicy, ResilientTopKIndex
from repro.serving.engine import ServingEngine

from oracles import oracle_top_k
from sharding_util import (
    make_sharded,
    make_uniform_elements,
    make_zipf_elements,
    random_predicate,
)
from toy import RangePredicate

EVERYTHING = RangePredicate(-100, 10**9)


def make_engine(elements, num_shards=4, seed=51, **engine_kwargs):
    idx = make_sharded(elements, num_shards=num_shards, seed=seed)
    engine_kwargs.setdefault("pool_size", 2)
    engine_kwargs.setdefault("parallel_threshold", 3)
    return ServingEngine(idx, **engine_kwargs), idx


class TestEngineOverShards:
    def test_batch_answers_match_oracle(self):
        elements = make_uniform_elements(64, seed=51)
        with make_engine(elements)[0] as engine:
            rng = random.Random(51)
            requests = [
                (random_predicate(rng, elements), rng.randrange(1, 10))
                for _ in range(20)
            ]
            answers = engine.serve(requests)
            for (predicate, k), answer in zip(requests, answers):
                assert answer == oracle_top_k(elements, predicate, k)

    def test_parallel_fanout_used_for_wide_batches(self):
        elements = make_uniform_elements(64, seed=52)
        engine, idx = make_engine(elements, seed=52)
        with engine:
            requests = [
                (RangePredicate(i * 7, i * 7 + 200), 4) for i in range(12)
            ]
            answers = engine.serve(requests)
            for (predicate, k), answer in zip(requests, answers):
                assert answer == oracle_top_k(elements, predicate, k)
            assert engine.stats.parallel_batches >= 1
            assert idx.stats.parallel_batches >= 1

    def test_cache_stamped_by_router_epoch_and_lsn(self):
        elements = make_uniform_elements(48, seed=53)
        engine, idx = make_engine(elements, seed=53, pool_size=0)
        with engine:
            first = engine.query(EVERYTHING, 5)
            assert engine.query(EVERYTHING, 5) == first
            assert engine.cache.stats.hits >= 1
            # An update moves the summed LSN: the cached answer dies.
            extra = make_uniform_elements(1, seed=777)[0]
            if extra.weight not in idx._weights:
                idx.insert(extra)
                combined = elements + [extra]
            else:
                idx.delete(elements[0])
                combined = elements[1:]
            assert engine.query(EVERYTHING, 5) == oracle_top_k(
                combined, EVERYTHING, 5
            )

    def test_split_invalidates_cached_answers(self):
        elements = make_uniform_elements(48, seed=54)
        engine, idx = make_engine(elements, seed=54, pool_size=0)
        with engine:
            engine.query(EVERYTHING, 6)
            misses_before = engine.cache.stats.misses
            idx.split_shard()  # epoch bump -> every stamp is stale
            assert engine.query(EVERYTHING, 6) == oracle_top_k(
                elements, EVERYTHING, 6
            )
            assert engine.cache.stats.misses > misses_before

    def test_health_mirrors_sharding(self):
        # Sharding health stays on the index; the ops plane finds it
        # through the engine and reads it there.
        elements = make_uniform_elements(48, seed=55)
        engine, idx = make_engine(elements, seed=55, pool_size=0)
        with engine:
            collector = TelemetryCollector(engine=engine)
            assert collector.sharded is idx
            engine.query(EVERYTHING, 4)
            assert idx.router.num_shards == 4
            assert collector.collect(1).shard_sizes == idx.router.shard_sizes()
            idx.split_shard()
            engine.query(EVERYTHING, 4)
            assert idx.router.num_shards == 5
            assert idx.stats.splits == 1
            assert 0.0 < idx.stats.contact_ratio <= 1.0
            assert len(collector.collect(2).shards_alive) == 5

    def test_index_partial_default_holds_off_the_partial_rung(self):
        # An index built with allow_partial=True serves what the
        # surviving shards hold; the engine, with no brownout ladder,
        # must not override that default into ShardUnavailable.
        elements = make_zipf_elements(48, seed=44)
        idx = make_sharded(elements, num_shards=3, seed=44, allow_partial=True)
        victim = idx.router.shard_for(max(elements, key=lambda e: e.weight))
        victim.machine.mark_dead()

        def refuse(shard, trace=None):
            raise ShardUnavailable("durable record gone", shard=shard.name)

        idx._recover_shard = refuse
        surviving = [
            e
            for name, shard in idx.router.shards.items()
            if name != victim.name
            for e in shard.elements
        ]
        with ServingEngine(idx, pool_size=0, cache_capacity=0) as engine:
            [answer] = engine.serve([(EVERYTHING, 10)])
            assert answer == oracle_top_k(surviving, EVERYTHING, 10)
            assert engine.last_drain_meta[-1].partial_suspect
            assert engine.stats.partial_served == 1

    def test_read_kwargs_rejected_for_sharded_backend(self):
        idx = make_sharded(make_uniform_elements(16, seed=58), seed=58)
        with pytest.raises(InvalidConfiguration, match="read_kwargs"):
            ServingEngine(idx, read_kwargs={"mode": "primary"})


class TestGuardOverShards:
    def test_guard_mirrors_sharding_health(self):
        elements = make_uniform_elements(48, seed=56)
        idx = make_sharded(elements, num_shards=4, seed=56)
        guard = ResilientTopKIndex(
            idx,
            elements=elements,
            policy=GuardPolicy(spot_check_rate=1.0),
        )
        collector = TelemetryCollector(guard=guard)
        assert collector.sharded is idx
        answer, report = guard.query_with_report(EVERYTHING, 6)
        assert answer == oracle_top_k(elements, EVERYTHING, 6)
        assert not report.degraded
        sample = collector.collect(1)
        assert sample.queries == 1
        assert sample.shard_sizes == idx.router.shard_sizes()
        assert len(sample.shards_alive) == idx.router.num_shards == 4

    def test_unavailable_shard_degrades_to_scan_rung(self):
        elements = make_uniform_elements(48, seed=57)
        idx = make_sharded(elements, num_shards=3, seed=57)
        guard = ResilientTopKIndex(
            idx,
            elements=elements,
            policy=GuardPolicy(spot_check_rate=0.0),
        )
        top = max(elements, key=lambda e: e.weight)
        victim = idx.router.shard_for(top)
        victim.machine.mark_dead()

        def refuse(shard, trace=None):
            raise ShardUnavailable("durable record gone", shard=shard.name)

        idx._recover_shard = refuse
        answer, report = guard.query_with_report(EVERYTHING, 6)
        assert answer == oracle_top_k(elements, EVERYTHING, 6)
        assert report.degraded
        assert report.rung_unavailable == 1
        assert report.answered_by == "scan"
