"""WAL shipping: incremental tails, durable acks, lazy apply."""

import pytest

from conftest import elem, make_cluster
from repro.durability.wal import read_committed
from toy import RangePredicate


class TestShipping:
    def test_every_update_is_durable_on_every_follower(self, cluster):
        for i in range(40, 60):
            cluster.insert(elem(i))
        for i in range(5):
            cluster.delete(elem(i))
        for replica in cluster.replicas:
            assert replica.durable_lsn == 25
        assert cluster.stats.records_shipped == 50  # 25 records x 2 followers
        assert cluster.stats.acks == 50

    def test_followers_apply_lazily_by_default(self, cluster):
        for i in range(40, 50):
            cluster.insert(elem(i))
        for follower in (r for r in cluster.replicas if not r.is_primary):
            assert follower.durable_lsn == 10
            assert follower.applied_lsn == 0
            assert follower.durable.inner.n == 40  # memory untouched

    def test_shipped_tail_matches_the_primary_log(self, cluster):
        for i in range(40, 52):
            cluster.insert(elem(i))
        primary = cluster.primary
        follower = [r for r in cluster.replicas if not r.is_primary][0]
        ours, _ = read_committed(follower.store, follower.durable.wal.head)
        theirs, _ = read_committed(primary.store, primary.durable.wal.head)
        flat = lambda groups: [(r.lsn, r.op, r.element) for g in groups for r in g]
        assert flat(ours) == flat(theirs)

    def test_reshipping_is_idempotent(self, cluster):
        for i in range(40, 45):
            cluster.insert(elem(i))
        follower = [r for r in cluster.replicas if not r.is_primary][0]
        groups, _ = read_committed(
            cluster.primary.store, cluster.primary.durable.wal.head
        )
        assert follower.durable.apply_shipped(groups) == 0  # all duplicates
        assert follower.durable_lsn == 5

    def test_reads_per_update_stay_flat_as_the_log_grows(self, cluster):
        # A ship reads only the primary's blocks no earlier ship read,
        # so the 400th update since the checkpoint costs what the 2nd
        # did; a walk from the chain's head cost O(updates) reads.
        def durability_reads():
            return sum(r.store.ctx.stats.reads for r in cluster.replicas)

        cost = {}
        for update in range(1, 401):
            before = durability_reads()
            cluster.insert(elem(39 + update))
            cost[update] = durability_reads() - before
        assert cost[2] == cost[400]

    def test_align_equalises_applied_lsns(self, cluster):
        for i in range(40, 55):
            cluster.insert(elem(i))
        cluster.align()
        lsns = {r.applied_lsn for r in cluster.replicas}
        assert lsns == {15}
        assert all(r.durable.inner.n == 55 for r in cluster.replicas)

    def test_replica_lag_reports_applied_lag(self, cluster):
        for i in range(40, 48):
            cluster.insert(elem(i))
        lag = cluster.replica_lag()
        assert lag[cluster.primary.name] == 0
        for follower in (r for r in cluster.replicas if not r.is_primary):
            assert lag[follower.name] == 8
        cluster.align()
        assert set(cluster.replica_lag().values()) == {0}


class TestShipFaults:
    def test_faulty_follower_catches_up_on_the_next_ship(self):
        from repro.replication import FailoverPolicy

        cluster = make_cluster(
            failover_policy=FailoverPolicy(max_consecutive_faults=100)
        )
        follower = [r for r in cluster.replicas if not r.is_primary][0]
        follower.plan.write_fail_rate = 1.0
        follower.plan.arm()
        cluster.insert(elem(40))
        assert cluster.stats.ship_failures >= 1
        assert follower.durable_lsn < 1  # the ack never landed
        follower.plan.write_fail_rate = 0.0
        cluster.insert(elem(41))
        assert follower.durable_lsn == 2  # resumed exactly, no gap
        cluster.align()
        assert follower.state_digest() == cluster.primary.state_digest()

    def test_dead_follower_is_skipped_not_fatal(self, cluster):
        follower = [r for r in cluster.replicas if not r.is_primary][0]
        follower.plan.schedule_crash(at_io=1)
        for i in range(40, 50):
            cluster.insert(elem(i))
        assert not follower.alive
        assert cluster.stats.follower_deaths == 1
        live_followers = [
            r for r in cluster.replicas if r.alive and not r.is_primary
        ]
        assert all(r.durable_lsn == 10 for r in live_followers)

    def test_checkpoint_runs_cluster_wide(self, cluster):
        for i in range(40, 50):
            cluster.insert(elem(i))
        cluster.checkpoint()
        for replica in cluster.replicas:
            assert replica.durable.checkpoints >= 2  # initial + this one
            assert replica.applied_lsn == 10
        answer = cluster.query(RangePredicate(0, 100), 3, mode="quorum")
        assert [e.obj for e in answer] == [49, 48, 47]
