"""Flash storage rules through the ops plane: detect, plan, self-heal."""

from toy import RangePredicate, ToyMax, ToyPrioritized, make_toy_elements
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.durable import DurableTopKIndex
from repro.durability.store import DurableStore
from repro.em.model import EMContext
from repro.flash.disk import FlashDisk
from repro.flash.ftl import FlashConfig
from repro.ops.detector import SCOPE_SUBSYSTEM, AnomalyDetector, DetectorPolicy
from repro.ops.mitigation import LEVER_COMPACT, MitigationPlanner
from repro.ops.operator import Operator, OperatorPolicy
from repro.ops.telemetry import TelemetryCollector
from repro.resilience.guard import ResilientTopKIndex

from ops_util import sample
from test_mitigation import incident


def kinds(anomalies):
    return [a.kind for a in anomalies]


class TestWriteAmpSpikeRule:
    def test_fires_on_high_write_amplification(self):
        det = AnomalyDetector(DetectorPolicy(write_amp_max=2.0, write_amp_min_writes=32))
        out = det.observe(sample(
            1, flash_host_writes=40, flash_device_writes=100, storage_write_amp=2.5,
        ))
        assert kinds(out) == ["write_amp_spike"]
        assert out[0].scope == (SCOPE_SUBSYSTEM, "storage")
        assert out[0].metric == "storage_write_amp"

    def test_quiet_below_write_volume_floor(self):
        # A huge ratio over a handful of writes is noise, not a spike.
        det = AnomalyDetector(DetectorPolicy(write_amp_max=2.0, write_amp_min_writes=32))
        out = det.observe(sample(
            1, flash_host_writes=4, flash_device_writes=40, storage_write_amp=10.0,
        ))
        assert kinds(out) == []

    def test_zero_threshold_disables_the_rule(self):
        det = AnomalyDetector(DetectorPolicy(write_amp_max=0.0))
        out = det.observe(sample(
            1, flash_host_writes=500, flash_device_writes=5000,
            storage_write_amp=10.0,
        ))
        assert kinds(out) == []


class TestWearImbalanceRule:
    def test_fires_when_one_block_runs_hot(self):
        det = AnomalyDetector(DetectorPolicy(wear_imbalance_ratio=3.0, wear_mean_floor=2.0))
        out = det.observe(sample(1, flash_max_wear=12, flash_mean_wear=3.0))
        assert kinds(out) == ["wear_imbalance"]
        assert out[0].scope == (SCOPE_SUBSYSTEM, "storage")

    def test_quiet_during_early_life(self):
        # max/mean is unstable while the device is barely worn.
        det = AnomalyDetector(DetectorPolicy(wear_imbalance_ratio=3.0, wear_mean_floor=2.0))
        assert kinds(det.observe(sample(1, flash_max_wear=4, flash_mean_wear=0.5))) == []

    def test_balanced_wear_is_quiet(self):
        det = AnomalyDetector(DetectorPolicy(wear_imbalance_ratio=3.0, wear_mean_floor=2.0))
        assert kinds(det.observe(sample(1, flash_max_wear=9, flash_mean_wear=8.0))) == []


class FakeStore:
    def __init__(self):
        self.compactions = 0

    def compact_store(self):
        self.compactions += 1
        return 7


class TestStorageLadder:
    def test_flash_incident_gets_compaction(self):
        store = FakeStore()
        planner = MitigationPlanner(stores={"storage": store})
        inc = incident((SCOPE_SUBSYSTEM, "storage"), kind="write_amp_spike")
        action = planner.plan(inc)
        assert action.lever == LEVER_COMPACT
        assert "7 dead blocks trimmed" in action.apply()
        assert store.compactions == 1

    def test_wear_imbalance_also_maps_to_compaction(self):
        planner = MitigationPlanner(stores={"storage": FakeStore()})
        inc = incident((SCOPE_SUBSYSTEM, "storage"), kind="wear_imbalance")
        assert planner.plan(inc).lever == LEVER_COMPACT

    def test_no_store_means_no_ladder(self):
        planner = MitigationPlanner()
        inc = incident((SCOPE_SUBSYSTEM, "storage"), kind="write_amp_spike")
        assert planner.plan(inc) is None


def flash_stack():
    """A flash-backed durable index behind a guard, pool sized so that
    steady manifest accretion drives write amplification up within a
    few dozen control ticks."""
    disk = FlashDisk(config=FlashConfig(
        pages_per_block=8, capacity_pages=112, overprovision=0.1,
    ))
    ctx = EMContext(B=8, disk=disk)
    store = DurableStore(ctx=ctx, B=8)
    elements = make_toy_elements(24, seed=1)
    inner = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=3)
    durable = DurableTopKIndex(inner, store=store, commit_interval=4)
    guard = ResilientTopKIndex(durable)
    return guard, durable, list(elements)


class TestCollectorDiscovery:
    def test_guard_reachable_durable_becomes_storage_source(self):
        guard, durable, _ = flash_stack()
        collector = TelemetryCollector(guard=guard)
        assert collector.storage is durable
        tick = collector.collect(1)
        ledger = durable.store.disk.flash_stats
        assert tick.flash_host_writes == ledger.host_writes > 0
        assert tick.flash_max_wear == durable.store.disk.ftl.max_wear

    def test_second_collect_reports_the_window_not_the_total(self):
        guard, durable, live = flash_stack()
        collector = TelemetryCollector(guard=guard)
        collector.collect(1)
        quiet = collector.collect(2)
        assert quiet.flash_host_writes == 0
        durable.insert(make_toy_elements(4, seed=9, weight_offset=0.5)[0])
        durable.checkpoint()
        busy = collector.collect(3)
        assert busy.flash_host_writes > 0


class TestSelfHealing:
    def test_write_amp_incident_is_compacted_and_resolved(self):
        guard, durable, live = flash_stack()
        operator = Operator(
            guard=guard,
            policy=OperatorPolicy(cooldown_ticks=1, clear_ticks=2),
            detector_policy=DetectorPolicy(
                write_amp_max=1.5, write_amp_min_writes=8,
            ),
            probes=[(RangePredicate(0.0, 2500.0), 5)],
        )
        # One pre-drawn pool keeps churn weights distinct from each
        # other and (via the offset) from the 24 base elements.
        pool = iter(make_toy_elements(12 * 80, seed=7, weight_offset=0.25))
        opened = resolved = None
        compactions_before = durable.store.compactions
        for tick in range(1, 81):
            for _ in range(12):
                victim = live.pop(0)
                durable.delete(victim)
                fresh = next(pool)
                durable.insert(fresh)
                live.append(fresh)
            durable.checkpoint()
            guard.query(RangePredicate(0.0, 2500.0), 5)
            report = operator.tick()
            for inc in report.opened:
                if inc.kind == "write_amp_spike" and opened is None:
                    opened = tick
            for inc in report.resolved:
                if inc.kind == "write_amp_spike":
                    resolved = tick
            if resolved is not None:
                break
        assert opened is not None, "write amplification never tripped the rule"
        assert resolved is not None, "the incident never closed"
        assert durable.store.compactions > compactions_before
        record = next(
            m
            for inc in operator.log.incidents
            for m in inc.mitigations
            if m.lever == LEVER_COMPACT
        )
        assert record.fired and record.verified
        assert "store compacted" in record.outcome
