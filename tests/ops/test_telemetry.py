"""TelemetryCollector: deltas, gauges, reset robustness, discovery."""

from types import SimpleNamespace

from repro.ops.telemetry import TelemetryCollector, _counter_delta
from repro.resilience.guard import HealthReport, HealthSummary

from ops_util import replicated_stack, sharded_stack


def report(**fields) -> HealthReport:
    fields.setdefault("attempts", 1)
    return HealthReport(**fields)


class TestCounterDelta:
    def test_monotone(self):
        assert _counter_delta(7, 3) == 4

    def test_reset_falls_back_to_current(self):
        # A reboot swaps in fresh stats; the delta must not go negative.
        assert _counter_delta(2, 10) == 2


def guard_collector():
    """A collector over a bare guard-shaped object: health, no backend."""
    guard = SimpleNamespace(health=HealthSummary(), primary=None)
    return guard.health, TelemetryCollector(guard=guard)


class TestHealthSnapshotDelta:
    def test_delta_since_previous(self):
        health, collector = guard_collector()
        health.record(report())
        collector.collect(1)
        health.record(report(transient_faults=1))
        sample = collector.collect(2)
        assert sample.queries == 1
        assert sample.transient_faults == 1

    def test_delta_without_previous_is_totals(self):
        health, collector = guard_collector()
        health.record(report())
        assert collector.collect(1).queries == 1

    def test_delta_survives_reset(self):
        health, collector = guard_collector()
        health.record(report())
        health.record(report())
        collector.collect(1)
        health.reset()
        health.record(report())
        # Totals went 2 -> 1; robust delta reports the post-reset count.
        assert collector.collect(2).queries == 1

    def test_snapshot_is_detached(self):
        health = HealthSummary()
        snap = health.snapshot()
        health.record(report())
        assert snap["queries"] == 0


class TestCollector:
    def test_discovers_cluster_from_guard(self):
        _, _, cluster, guard, _, _ = replicated_stack()
        collector = TelemetryCollector(guard=guard)
        assert collector.cluster is cluster
        sample = collector.collect(1)
        assert set(sample.machines) == {"replica-0", "replica-1", "replica-2"}
        assert sample.primary == "replica-0"
        assert all(sample.replicas_alive.values())

    def test_machine_counters_are_per_tick_deltas(self):
        elements, pool, cluster, guard, plan, probes = replicated_stack(
            read_fail_rate=0.5, write_fail_rate=0.5, seed=21,
            max_consecutive_faults=1000,
        )
        collector = TelemetryCollector(guard=guard)
        collector.collect(1)
        plan.arm()
        for element in pool[:4]:
            cluster.insert(element)
        faulted = collector.collect(2).machines["replica-0"].faults
        assert faulted > 0
        plan.disarm()
        # No I/O between samples: the delta returns to zero.
        assert collector.collect(3).machines["replica-0"].faults == 0

    def test_sharded_machines_are_labelled_by_shard(self):
        _, _, sharded, guard, _ = sharded_stack()
        collector = TelemetryCollector(guard=guard)
        assert collector.sharded is sharded
        sample = collector.collect(1)
        assert set(sample.machines) == set(sharded.router.shards)
        assert set(sample.shards_alive) == set(sharded.router.shards)
        assert not sample.topology_in_flux

    def test_durable_lag_gauge(self):
        elements, pool, cluster, guard, _, _ = replicated_stack()
        collector = TelemetryCollector(guard=guard)
        lag = collector.collect(1).replica_durable_lag
        assert set(lag) == {"replica-0", "replica-1", "replica-2"}
        assert all(value == 0 for value in lag.values())
