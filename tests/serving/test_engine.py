"""ServingEngine: admission, caching, dispatch, and where its counters live."""

from __future__ import annotations

import pytest

from repro.core.problem import top_k_of
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.durable import DurableTopKIndex
from repro.ops.telemetry import TelemetryCollector
from repro.resilience import AdmissionRejected, SimulatedCrash
from repro.serving import QueryRequest, ServingEngine
from toy import RangePredicate, ToyMax, ToyPrioritized

from serving_util import make_elements, make_engine, make_requests


def oracle(elements, requests):
    return [top_k_of(elements, r.predicate, r.k) for r in requests]


class TestExactness:
    def test_serve_matches_oracle(self):
        elements = make_elements()
        requests = make_requests(50, seed=1)
        with make_engine(elements) as engine:
            assert engine.serve(requests) == oracle(elements, requests)

    def test_repeat_batches_hit_cache_and_stay_exact(self):
        elements = make_elements()
        requests = make_requests(30, seed=2)
        expected = oracle(elements, requests)
        with make_engine(elements) as engine:
            assert engine.serve(requests) == expected
            hits_before = engine.cache.stats.hits
            assert engine.serve(requests) == expected
            assert engine.cache.stats.hits > hits_before

    def test_query_single_request_path(self):
        elements = make_elements()
        p = RangePredicate(0.0, 300.0)
        with make_engine(elements) as engine:
            assert engine.query(p, 5) == top_k_of(elements, p, 5)

    def test_updates_invalidate_cached_answers(self):
        elements = make_elements()
        requests = make_requests(20, seed=3)
        with make_engine(elements) as engine:
            engine.serve(requests)  # warm
            extras = make_elements(4, seed=91, weight_offset=10_000.0)
            for extra in extras:
                engine.backend.insert(extra)
            assert engine.serve(requests) == oracle(
                elements + extras, requests
            )

    def test_raw_reduction_backend_batches_without_cache(self):
        # No LSN source at all: the cache must disable itself (a cached
        # answer could never be invalidated), batching still serves.
        elements = make_elements()

        class Plain:
            def __init__(self, inner):
                self.inner = inner
                self.n = inner.n

            def query(self, predicate, k, **kwargs):
                return self.inner.query(predicate, k, **kwargs)

        backend = Plain(
            ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=3)
        )
        requests = make_requests(20, seed=4)
        with ServingEngine(backend) as engine:
            assert not engine.cache.enabled
            assert engine.serve(requests) == oracle(elements, requests)
            assert engine.serve(requests) == oracle(elements, requests)
            assert engine.cache.stats.lookups == 0

    def test_durable_backend_caches_by_applied_lsn(self):
        elements = make_elements()
        durable = DurableTopKIndex(
            ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=3)
        )
        requests = make_requests(20, seed=5)
        with ServingEngine(durable) as engine:
            assert engine._pool is None  # not sharded, no fan-out pool
            assert engine.serve(requests) == oracle(elements, requests)
            assert engine.serve(requests) == oracle(elements, requests)
            assert engine.cache.stats.hits > 0
            extra = make_elements(1, seed=55, weight_offset=20_000.0)[0]
            durable.insert(extra)
            assert engine.serve(requests) == oracle(
                elements + [extra], requests
            )


class TestAdmission:
    def test_shed_beyond_max_pending(self):
        elements = make_elements()
        with make_engine(elements, max_pending=3) as engine:
            p = RangePredicate(0.0, 479.0)
            for _ in range(3):
                engine.submit(p, 2)
            with pytest.raises(AdmissionRejected) as excinfo:
                engine.submit(p, 2)
            assert excinfo.value.pending == 3
            assert engine.stats.load_sheds == 1
            # The queued requests survive the shed and drain exactly.
            answers = engine.drain()
            assert answers == [top_k_of(elements, p, 2)] * 3
            assert engine.pending == 0

    def test_drain_chunks_by_max_batch(self):
        elements = make_elements()
        requests = make_requests(25, seed=6)
        with make_engine(elements, max_batch=4) as engine:
            assert engine.serve(requests) == oracle(elements, requests)
            assert engine.stats.batches == 7  # ceil(25 / 4)


class TestParallelDispatch:
    def test_worker_crash_falls_back_to_cluster_path(self):
        # A replica-set backend is read only through its own query, so
        # a follower crash mid-batch is the cluster's to handle: its
        # quorum read marks the machine dead once and the survivors
        # serve every answer exactly.
        elements = make_elements(n=64, seed=13)
        requests = make_requests(48, seed=8)
        with make_engine(
            elements, parallel_threshold=1, pool_size=3, cache_capacity=0
        ) as engine:
            cluster = engine.backend
            victim = next(
                r for r in cluster.replicas if not r.is_primary
            )
            original = victim.durable.query

            def crashing(*args, **kwargs):
                raise SimulatedCrash("injected mid-batch")

            victim.durable.query = crashing
            try:
                assert engine.serve(requests) == oracle(elements, requests)
            finally:
                victim.durable.query = original
            assert cluster.stats.follower_deaths == 1

    def test_pool_disabled_serves_serially(self):
        elements = make_elements()
        requests = make_requests(20, seed=9)
        with make_engine(
            elements, pool_size=0, parallel_threshold=1
        ) as engine:
            assert engine._pool is None
            assert engine.serve(requests) == oracle(elements, requests)
            assert engine.stats.parallel_batches == 0


class TestFailoverEpoch:
    def test_promotion_invalidates_cached_answers(self):
        elements = make_elements()
        requests = make_requests(20, seed=10)
        with make_engine(elements) as engine:
            cluster = engine.backend
            engine.serve(requests)  # warm at epoch 0
            epoch_before = cluster.commit_epoch
            cluster.primary.mark_dead()
            cluster.stats.primary_crashes += 1
            assert engine.serve(requests) == oracle(elements, requests)
            assert cluster.commit_epoch == epoch_before + 1
            assert engine.cache.stats.epoch_invalidations > 0

    def test_staleness_budget_serves_bounded_lag(self):
        elements = make_elements()
        p = RangePredicate(0.0, 479.0)
        extras = make_elements(3, seed=71, weight_offset=30_000.0)
        with make_engine(elements, max_staleness=2) as engine:
            stale = engine.query(p, 4)
            assert stale == top_k_of(elements, p, 4)
            # Two updates: within the budget, the stale answer may serve.
            for extra in extras[:2]:
                engine.backend.insert(extra)
            assert engine.query(p, 4) == stale
            assert engine.cache.stats.hits >= 1
            # A third update exceeds the budget: fresh answer required.
            engine.backend.insert(extras[2])
            assert engine.query(p, 4) == top_k_of(elements + extras, p, 4)


class TestHealthMirroring:
    # Serving and replication counters stay with their owners; the ops
    # plane finds the cluster through the engine and reads them there.
    def test_summary_carries_serving_and_replication_counters(self):
        elements = make_elements()
        requests = make_requests(30, seed=11)
        with make_engine(elements) as engine:
            collector = TelemetryCollector(engine=engine)
            assert collector.cluster is engine.backend
            engine.serve(requests)
            engine.serve(requests)
            assert engine.stats.queries == 60
            assert engine.cache.stats.hits > 0
            assert engine.stats.qps > 0
            assert engine.stats.avg_latency_seconds > 0
            sample = collector.collect(1)
            assert sample.served_queries == engine.stats.queries
            assert sample.serving_avg_latency == engine.stats.avg_latency_seconds
            assert set(sample.replica_lag) == {
                r.name for r in engine.backend.replicas
            }
