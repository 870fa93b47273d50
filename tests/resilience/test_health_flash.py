"""HealthSummary flash mirroring: wiring through the guard, and the
record_flash / record / snapshot race the summary's lock must close."""

import threading

from toy import RangePredicate, ToyMax, ToyPrioritized, make_toy_elements
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.durable import DurableTopKIndex
from repro.durability.store import DurableStore
from repro.em.model import EMContext, IOStats
from repro.flash.disk import FlashDisk
from repro.flash.ftl import FlashConfig
from repro.resilience.guard import HealthReport, HealthSummary, ResilientTopKIndex


def flash_guard():
    disk = FlashDisk(config=FlashConfig(pages_per_block=8))
    ctx = EMContext(B=8, disk=disk)
    store = DurableStore(ctx=ctx, B=8)
    inner = ExpectedTopKIndex(
        make_toy_elements(30, seed=1), ToyPrioritized, ToyMax, seed=3
    )
    durable = DurableTopKIndex(inner, store=store, commit_interval=4)
    return ResilientTopKIndex(durable), durable


class TestGuardWiring:
    def test_queries_mirror_flash_gauges_into_health(self):
        guard, durable = flash_guard()
        for element in make_toy_elements(16, seed=2, weight_offset=0.5):
            durable.insert(element)
        durable.checkpoint()
        guard.query(RangePredicate(0, 2500), 5)
        health = guard.health
        io = durable.durability_io
        assert health.flash_write_amp == io.write_amplification >= 1.0
        assert health.flash_max_wear == io.flash_max_wear
        assert health.flash_mean_wear == io.flash_mean_wear
        assert health.flash_erases == io.flash_erases

    def test_plain_backend_keeps_flash_fields_zero(self):
        inner = ExpectedTopKIndex(
            make_toy_elements(20, seed=1), ToyPrioritized, ToyMax, seed=3
        )
        guard = ResilientTopKIndex(inner)
        guard.query(RangePredicate(0, 2500), 3)
        assert guard.health.flash_write_amp == 0.0
        assert guard.health.flash_max_wear == 0

    def test_snapshot_and_delta_carry_flash_fields(self):
        guard, durable = flash_guard()
        guard.query(RangePredicate(0, 2500), 5)
        before = guard.health.snapshot()
        assert "flash_write_amp" in before
        for element in make_toy_elements(8, seed=4, weight_offset=0.7):
            durable.insert(element)
        guard.query(RangePredicate(0, 2500), 5)
        window = guard.health.delta(before)
        assert window["flash_write_amp"] >= 0.0


class TestConcurrency:
    def test_record_flash_races_record_and_snapshot(self):
        # Regression for the mirror path: record_flash runs on the query
        # path while serving workers fold HealthReports and the ops
        # plane snapshots — all three must serialise on the summary
        # lock, never observing a half-written mirror.
        summary = HealthSummary()
        io = IOStats()
        io.flash_host_writes = 100
        io.flash_device_writes = 150
        io.flash_erases = 9
        io.flash_max_wear = 4
        io.flash_mean_wear = 2.5
        rounds = 300
        snapshots = []
        errors = []

        def mirror():
            try:
                for _ in range(rounds):
                    summary.record_flash(io)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        def fold():
            try:
                for _ in range(rounds):
                    summary.record(HealthReport(attempts=1))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def observe():
            try:
                for _ in range(rounds):
                    snapshots.append(summary.snapshot())
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=fn)
            for fn in (mirror, mirror, fold, fold, observe, observe)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert summary.queries == 2 * rounds
        assert summary.flash_write_amp == io.write_amplification == 1.5
        # Every snapshot saw the mirror either untouched or complete.
        for snap in snapshots:
            assert snap["flash_write_amp"] in (0.0, 1.5)
            assert snap["flash_max_wear"] in (0, 4)
