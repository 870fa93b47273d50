"""Epoch-fenced leases: self-demotion, stale-epoch rejects, resync.

Also home of two satellite regressions:

* ship retry after an indeterminate transport timeout must dedupe (the
  record lands exactly once), and a transport failure is never a
  machine fault (no streak, no death);
* ``replace_replica`` evicts the replaced machine's fault streak.
"""

from __future__ import annotations

import pytest

from net_util import LEASE_TTL, elem, make_cluster, make_fenced
from repro.core.problem import Element, top_k_of
from repro.net import MSG_WAL_SHIP, NetworkFabric
from repro.replication.replica import ROLE_FOLLOWER, Replica
from repro.resilience.errors import (
    FencedError,
    PartitionedError,
    ReplicaUnavailable,
    TransientIOError,
)
from repro.serving import ServingEngine
from toy import RangePredicate


def isolate_primary(cluster, fabric, horizon=100 * LEASE_TTL):
    names = [r.name for r in cluster.replicas]
    primary = cluster.primary.name
    fabric.isolate(
        primary, [n for n in names if n != primary],
        start=fabric.now, end=fabric.now + horizon,
    )
    return primary


class TestLeases:
    def test_healthy_cluster_renews_and_writes(self):
        cluster, fabric = make_fenced()
        for i in range(6):
            fabric.advance(LEASE_TTL // 2)
            cluster.insert(elem(100 + i))
        assert cluster.stats.lease_renewals >= 3
        assert cluster.stats.lease_expirations == 0
        assert cluster.commit_epoch == 0

    def test_isolated_primary_demotes_and_majority_elects(self):
        cluster, fabric = make_fenced()
        old_primary = isolate_primary(cluster, fabric)
        fabric.advance(LEASE_TTL + 1)
        cluster.insert(elem(100))
        # The write landed on a NEW primary under a bumped epoch; the
        # deposed machine is a read-only follower now.
        assert cluster.primary.name != old_primary
        assert cluster.commit_epoch == 1
        deposed = next(r for r in cluster.replicas if r.name == old_primary)
        assert deposed.role == ROLE_FOLLOWER
        assert cluster.stats.lease_expirations == 1
        assert cluster.failover.lease_holder == cluster.primary.name

    def test_election_waits_out_the_deposed_lease(self):
        cluster, fabric = make_fenced()
        isolate_primary(cluster, fabric)
        expires = cluster.failover.lease_expires
        fabric.advance(LEASE_TTL + 1)
        cluster.insert(elem(100))
        # Promotion never happened inside the old grant's window.
        assert fabric.now >= expires

    def test_no_promotion_into_the_minority(self):
        cluster, fabric = make_fenced()
        # Kill the primary outright, then cut the two survivors apart:
        # neither follower can reach a quorum of the live set.
        primary = cluster.primary
        primary.mark_dead()
        f1, f2 = [r for r in cluster.replicas if r is not primary]
        fabric.partition(f1.name, f2.name, start=fabric.now, end=None)
        with pytest.raises(ReplicaUnavailable):
            cluster.insert(elem(100))
        # Heal and the election goes through.
        fabric.heal()
        fabric.advance(LEASE_TTL + 1)
        cluster.insert(elem(100))
        assert cluster.primary in (f1, f2)

    def test_minority_stranded_write_fails_definitely(self):
        cluster, fabric = make_fenced(num_replicas=3)
        primary = isolate_primary(cluster, fabric)
        # Inside the grant window the primary still thinks it leads,
        # but no follower can ack: the write must not be acknowledged.
        with pytest.raises(PartitionedError) as err:
            cluster.insert(elem(100))
        assert not err.value.indeterminate  # compensated: definite
        assert cluster.stats.quorum_ack_failures == 1
        assert cluster.stats.write_compensations == 1
        # The stranded primary serves no phantom: its own state was
        # compensated back.
        stranded = next(r for r in cluster.replicas if r.name == primary)
        assert Element(100, 1100.0) not in stranded.durable.inner

    def test_primary_mode_engine_batch_needs_the_lease(self):
        # An engine reads a replica set only through ReplicaSet.query,
        # pool or no pool: a primary-mode batch takes the lease proof,
        # so the isolated primary demotes itself and the majority
        # elects before anything is served.
        cluster, fabric = make_fenced()
        elements = [elem(i) for i in range(40)]
        requests = [
            (RangePredicate(lo, lo + 15), k)
            for lo, k in [(0, 3), (5, 5), (10, 2), (20, 4), (0, 7)]
        ]
        engine = ServingEngine(
            cluster,
            read_kwargs={"mode": "primary"},
            pool_size=2,
            parallel_threshold=1,
            cache_capacity=0,
        )
        with engine:
            isolate_primary(cluster, fabric)
            fabric.advance(3 * LEASE_TTL)
            answers = engine.serve(requests)
        assert answers == [top_k_of(elements, p, k) for p, k in requests]
        assert cluster.stats.lease_expirations == 1
        assert cluster.stats.promotions == 1


class TestFencedRejects:
    def test_stale_epoch_envelope_bounces(self):
        cluster, fabric = make_fenced()
        isolate_primary(cluster, fabric)
        fabric.advance(LEASE_TTL + 1)
        cluster.insert(elem(100))  # forces election, epoch 1
        assert cluster.commit_epoch == 1
        fabric.heal()
        target = next(r for r in cluster.replicas if not r.is_primary)
        with pytest.raises(FencedError):
            fabric.send(
                "ghost", target.name, MSG_WAL_SHIP, [],
                epoch=0, key=("ghost", 1),
            )
        assert fabric.stats.fenced_rejects == 1
        assert fabric.stats.stale_epoch_applies == 0

    def test_divergent_tail_resynced_not_spliced(self):
        cluster, fabric = make_fenced()
        old_name = isolate_primary(cluster, fabric)
        old_primary = next(r for r in cluster.replicas if r.name == old_name)
        # Unacknowledged records pile up on the stranded primary (as if
        # written just before the partition was noticed).
        old_primary.durable.insert(elem(200))
        old_primary.durable.insert(elem(201))
        fabric.advance(LEASE_TTL + 1)
        cluster.insert(elem(100))  # majority side elects, epoch 1
        new_primary = cluster.primary
        assert new_primary.name != old_name
        fabric.heal()
        resyncs_before = cluster.stats.resyncs
        cluster.insert(elem(101))
        # The deposed machine's dead-epoch tail would have spliced by
        # LSN; it must be thrown away by full resync instead.
        assert cluster.stats.resyncs == resyncs_before + 1
        rejoined = next(r for r in cluster.replicas if r.name == old_name)
        rejoined.durable.replay_unapplied()
        assert rejoined.state_digest() == new_primary.state_digest()
        assert Element(200, 1200.0) not in rejoined.durable.inner

    def test_stale_follower_cannot_serve_quorum_reads(self):
        cluster, fabric = make_fenced()
        old_name = isolate_primary(cluster, fabric)
        fabric.advance(LEASE_TTL + 1)
        cluster.insert(elem(100))
        # Partition still up: the deposed follower never heard epoch 1,
        # so quorum reads must skip it rather than let its (possibly
        # divergent) state out-vote the majority.
        stale = next(r for r in cluster.replicas if r.name == old_name)
        assert stale.fence_epoch < cluster.commit_epoch
        fallbacks = cluster.stats.stale_fallbacks
        answer = cluster.query(
            RangePredicate(0, 1000), 5, mode="quorum", max_staleness=0
        )
        assert any(e.weight == 1100.0 for e in answer)
        assert cluster.stats.stale_fallbacks > fallbacks


class TestShipRetrySatellite:
    def test_partitioned_error_is_not_a_transient_io_error(self):
        assert not issubclass(PartitionedError, TransientIOError)

    def test_ship_timeout_retry_applies_exactly_once(self):
        """Reply-drop on a WAL ship; the retry must dedupe, not re-apply."""
        cluster, fabric = make_fenced()
        real_send = fabric.send
        state = {"dropped": False}

        def flaky_send(src, dst, kind, payload=None, epoch=0, key=None):
            if kind == MSG_WAL_SHIP and not state["dropped"]:
                state["dropped"] = True
                real_send(src, dst, kind, payload, epoch=epoch, key=key)
                raise PartitionedError(
                    "reply lost", src=src, dst=dst, indeterminate=True
                )
            return real_send(src, dst, kind, payload, epoch=epoch, key=key)

        fabric.send = flaky_send
        cluster.insert(elem(100))
        assert state["dropped"]
        assert cluster.stats.ship_retries == 1
        assert fabric.stats.duplicates_detected == 1
        # Exactly once: every machine sits at the same durable LSN and
        # holds exactly one copy.
        lsns = {r.durable_lsn for r in cluster.replicas}
        assert len(lsns) == 1
        for replica in cluster.replicas:
            replica.durable.replay_unapplied()
        digests = {r.state_digest() for r in cluster.replicas}
        assert len(digests) == 1

    def test_transport_failure_feeds_no_streak_and_kills_nobody(self):
        fabric = NetworkFabric(seed=0)
        cluster = make_cluster(fabric=fabric)  # unfenced: ships best-effort
        follower = next(r for r in cluster.replicas if not r.is_primary)
        fabric.partition(
            cluster.primary.name, follower.name, start=0, end=None,
            symmetric=False,
        )
        for i in range(6):
            cluster.insert(elem(100 + i))
        assert follower.alive
        assert cluster.failover.fault_streak(follower.name) == 0
        assert cluster.stats.ship_timeouts == 6
        assert cluster.stats.follower_deaths == 0
        # Heal: the durable-LSN watermark resumes shipping exactly
        # where it left off.
        fabric.heal()
        cluster.insert(elem(110))
        assert follower.durable_lsn == cluster.primary.durable_lsn


class TestStreakEvictionSatellite:
    def test_evict_drops_departed_names(self):
        cluster, _ = make_fenced()
        controller = cluster.failover
        controller.note_fault("replica-1", TransientIOError("x"))
        controller.note_fault("ghost-machine", TransientIOError("x"))
        gone = controller.evict({r.name for r in cluster.replicas})
        assert gone == ["ghost-machine"]
        assert controller.fault_streak("replica-1") == 1

    def test_replace_replica_resets_the_newcomers_streak(self):
        cluster, _ = make_fenced()
        controller = cluster.failover
        target = next(r for r in cluster.replicas if not r.is_primary)
        controller.note_fault(target.name, TransientIOError("x"))
        controller.note_fault(target.name, TransientIOError("x"))
        assert controller.fault_streak(target.name) == 2
        replacement = Replica(
            target.name,
            cluster.build_fn([elem(i) for i in range(40)]),
            B=8,
            next_lsn=target.durable_lsn + 1,
        )
        cluster.replace_replica(target, replacement)
        # One anti-entropy swap must not condemn the new machine for
        # its predecessor's sins.
        assert controller.fault_streak(target.name) == 0

    def test_scrub_repair_clears_streak_end_to_end(self):
        cluster, fabric = make_fenced()
        controller = cluster.failover
        victim = next(r for r in cluster.replicas if not r.is_primary)
        controller.note_fault(victim.name, TransientIOError("x"))
        controller.note_fault(victim.name, TransientIOError("x"))
        # Corrupt the victim's in-memory state so the digest diverges.
        victim.durable.inner.insert(Element(999, 9999.0))
        report = cluster.scrub(repair=True)
        assert victim.name in report.repaired
        assert controller.fault_streak(victim.name) == 0
