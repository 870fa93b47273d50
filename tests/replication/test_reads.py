"""Read modes: primary and quorum — staleness bounds and fallbacks."""

import pytest

from conftest import elem, make_cluster
from repro.core.problem import top_k_of
from repro.ops.telemetry import TelemetryCollector
from repro.resilience import ResilientTopKIndex
from repro.resilience.errors import InvalidConfiguration
from toy import RangePredicate


def expected(n, k, lo=0, hi=10_000):
    return top_k_of([elem(i) for i in range(n)], RangePredicate(lo, hi), k)


class TestModes:
    def test_primary_mode_is_authoritative(self, cluster):
        answer = cluster.query(RangePredicate(0, 10_000), 5, mode="primary")
        assert answer == expected(40, 5)

    def test_quorum_mode_is_exact(self, cluster):
        for i in range(40, 50):
            cluster.insert(elem(i))
        answer = cluster.query(RangePredicate(0, 10_000), 7, mode="quorum")
        assert answer == expected(50, 7)
        assert cluster.stats.quorum_reads == 1
        assert cluster.stats.quorum_mismatches == 0

    def test_unknown_mode_raises(self, cluster):
        with pytest.raises(InvalidConfiguration, match="unknown read mode"):
            cluster.query(RangePredicate(0, 100), 3, mode="gossip")

    def test_negative_staleness_rejected_at_build(self):
        with pytest.raises(InvalidConfiguration, match="max_staleness"):
            make_cluster(max_staleness=-1)


class TestStaleness:
    def stale_followers(self, cluster):
        """Advance the primary *without* shipping: durable follower lag."""
        cluster.primary.durable.insert(elem(990))
        return cluster.primary

    def test_quorum_falls_back_to_the_primary_when_followers_lag(self, cluster):
        self.stale_followers(cluster)
        answer = cluster.query(
            RangePredicate(0, 10_000), 3, mode="quorum", max_staleness=0
        )
        assert [e.obj for e in answer] == [990, 39, 38]
        assert cluster.stats.stale_fallbacks == 2  # both followers refused
        assert cluster.stats.degraded_reads == 1  # one answer < majority

    def test_staleness_budget_admits_lagging_followers(self, cluster):
        self.stale_followers(cluster)
        answer = cluster.query(
            RangePredicate(0, 10_000), 3, mode="quorum", max_staleness=5
        )
        # Followers may serve within the bound; their (stale) answers
        # disagree with the primary's, which wins on freshness.
        assert [e.obj for e in answer] == [990, 39, 38]
        assert cluster.stats.stale_fallbacks == 0
        assert cluster.stats.quorum_mismatches == 1


class TestDivergenceAtReadTime:
    def test_quorum_counts_mismatches_and_the_primary_wins(self, cluster):
        cluster.align()
        rogue = [r for r in cluster.replicas if not r.is_primary][0]
        rogue.durable.inner.insert(elem(999))  # silent divergence
        answer = cluster.query(RangePredicate(0, 10_000), 5, mode="quorum")
        assert cluster.stats.quorum_mismatches == 1
        assert 999 not in [e.obj for e in answer]  # rogue out-voted
        assert answer == expected(40, 5)


class TestGuardIntegration:
    # Replication health stays on the cluster; the ops plane finds the
    # cluster through the guard and reads each counter there.
    def test_health_summary_mirrors_replication(self, cluster):
        guard = ResilientTopKIndex(
            cluster, elements=[elem(i) for i in range(40)]
        )
        collector = TelemetryCollector(guard=guard)
        assert collector.cluster is cluster
        answer = guard.query(RangePredicate(0, 10_000), 5)
        assert answer == expected(40, 5)
        sample = collector.collect(1)
        assert sample.promotions == cluster.stats.promotions == 0
        assert sample.replica_lag == cluster.replica_lag()
        assert set(sample.replica_lag) == {r.name for r in cluster.replicas}
        cluster.primary.plan.schedule_crash(at_io=1)
        cluster.insert(elem(40))  # crash -> failover
        guard.query(RangePredicate(0, 10_000), 5)
        assert cluster.stats.promotions == 1
        assert collector.collect(2).promotions == 1

    def test_scrub_repairs_surface_in_health(self, cluster):
        guard = ResilientTopKIndex(cluster)
        collector = TelemetryCollector(guard=guard)
        cluster.primary.durable.insert(elem(990))  # durable follower lag
        from test_antientropy import corrupt_snapshot_block

        victim = [r for r in cluster.replicas if not r.is_primary][0]
        corrupt_snapshot_block(victim)
        cluster.scrub()
        guard.query(RangePredicate(0, 10_000), 3)
        assert cluster.stats.scrub_repairs == 1
        sample = collector.collect(1)
        assert sample.scrub_repairs == 1
        assert all(lag == 0 for lag in sample.replica_lag.values())
