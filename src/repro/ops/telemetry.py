"""Periodic telemetry: the control plane's view of one simulated tick.

The ops subsystem never inspects live objects mid-decision — it works
from :class:`TelemetrySample` records, each a frozen snapshot of *one
tick* of cluster life: query-path counter **deltas** (how many faults,
retries, degradations happened since the previous sample), per-machine
:class:`~repro.resilience.faults.FaultStats` deltas keyed by the
machine labels the fault plans already carry, and point-in-time
**gauges** (which replicas/shards are alive, per-replica lag, queue
depth, shard sizes).  Ticks are simulated — a sample is taken whenever
:meth:`TelemetryCollector.collect` is called, typically once per
:meth:`~repro.ops.operator.Operator.tick` — so the whole pipeline
stays deterministic and wall-clock-free, like the EM model it watches.

:class:`TelemetryCollector` adapts whatever subset of the stack exists:
a :class:`~repro.resilience.guard.ResilientTopKIndex` (query-path
health from :meth:`HealthSummary.snapshot`), a
:class:`~repro.replication.cluster.ReplicaSet`, a
:class:`~repro.sharding.sharded.ShardedTopKIndex`, and/or a
:class:`~repro.serving.engine.ServingEngine`.  Backends reachable from
the guard or engine — including a durable store, whose flash device
feeds the storage fields — are discovered automatically.  Each counter
is read from the one layer that keeps it; the collector keeps only the
previous sample's totals, so a delta is ``current - previous`` (or
``current`` after a reset, see :func:`_counter_delta`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple


def _counter_delta(current: float, previous: float) -> float:
    """Monotone-counter delta, robust to resets (reboots swap stats)."""
    return current - previous if current >= previous else current


#: Query-path counters read from the guard's health summary.
_GUARD_COUNTERS = (
    "queries",
    "degraded_queries",
    "retries",
    "transient_faults",
    "corrupt_blocks",
    "contract_violations",
    "budget_exhaustions",
    "rung_unavailable",
    "spot_check_failures",
)
#: Per-machine fault-plan counters, one :class:`MachineDelta` field each.
_MACHINE_COUNTERS = (
    "faults", "corruptions", "crashes", "reads", "writes", "latency_units",
)


@dataclass(frozen=True)
class MachineDelta:
    """One machine's fault-plan activity since the previous sample."""

    machine: str
    alive: bool
    faults: int = 0        # read + write faults
    corruptions: int = 0
    crashes: int = 0
    reads: int = 0
    writes: int = 0
    latency_units: int = 0


@dataclass(frozen=True)
class TelemetrySample:
    """Everything the detector sees about one tick (module docstring).

    Integer fields named like counters are **deltas** since the
    previous sample; mappings and floats suffixed ``_gauge``-style
    (lag, aliveness, sizes, queue depth, latency) are current values.
    """

    tick: int
    # --- query path (guard health deltas) ---
    queries: int = 0
    degraded_queries: int = 0
    retries: int = 0
    transient_faults: int = 0
    corrupt_blocks: int = 0
    contract_violations: int = 0
    budget_exhaustions: int = 0
    rung_unavailable: int = 0
    spot_check_failures: int = 0
    # --- per-machine fault plans ---
    machines: Dict[str, MachineDelta] = field(default_factory=dict)
    # --- replication ---
    primary: str = ""
    replicas_alive: Dict[str, bool] = field(default_factory=dict)
    replica_lag: Dict[str, int] = field(default_factory=dict)
    replica_durable_lag: Dict[str, int] = field(default_factory=dict)
    promotions: int = 0
    follower_deaths: int = 0
    primary_crashes: int = 0
    ship_failures: int = 0
    scrub_repairs: int = 0
    # --- network / fencing (deltas except the partition gauge) ---
    ship_timeouts: int = 0
    fenced_rejects: int = 0
    lease_expirations: int = 0
    partitions_active: int = 0
    # --- sharding ---
    shards_alive: Dict[str, bool] = field(default_factory=dict)
    shard_sizes: Dict[str, int] = field(default_factory=dict)
    shard_losses: int = 0
    shard_recoveries: int = 0
    partial_answers: int = 0
    stale_map_retries: int = 0
    topology_in_flux: bool = False
    # --- serving ---
    served_queries: int = 0
    load_sheds: int = 0
    queue_sheds: int = 0
    deadline_sheds: int = 0
    queue_depth: int = 0
    brownout_level: int = 0
    serving_avg_latency: float = 0.0
    # --- end-to-end latency distribution (loadgen-fed gauges; 0 when
    # --- no latency source is wired) ---
    p50_latency: float = 0.0
    p99_latency: float = 0.0
    p999_latency: float = 0.0
    # --- flash-backed durable storage (deltas; wear and WA are gauges,
    # --- with the WA computed over exactly this tick's write deltas) ---
    flash_host_writes: int = 0
    flash_device_writes: int = 0
    flash_erases: int = 0
    flash_gc_copies: int = 0
    flash_gc_stalls: int = 0
    flash_trims: int = 0
    storage_write_amp: float = 0.0
    flash_max_wear: int = 0
    flash_mean_wear: float = 0.0


class TelemetryCollector:
    """Turn live stack objects into a :class:`TelemetrySample` stream.

    Pass whichever of ``guard`` / ``cluster`` / ``sharded`` / ``engine``
    the deployment has; a cluster, sharded index or durable store
    reachable as the guard's primary (or the engine's backend) is
    discovered automatically, so ``TelemetryCollector(guard=g)`` usually
    suffices.  Every counter is read from the layer that keeps it —
    ``guard.health``, ``cluster.stats``, ``fabric.stats``,
    ``sharded.stats``, ``engine.stats``, the fault plans' stats and the
    storage's flash device — and turned into a per-tick delta against
    the previous sample's totals.
    """

    def __init__(
        self,
        guard=None,
        cluster=None,
        sharded=None,
        engine=None,
        latency_source=None,
    ) -> None:
        from repro.durability.durable import DurableTopKIndex
        from repro.flash.disk import FlashDisk
        from repro.replication.cluster import ReplicaSet
        from repro.sharding.sharded import ShardedTopKIndex

        self.guard = guard
        self.engine = engine
        #: Optional zero-arg callable returning a mapping with any of
        #: ``p50``/``p99``/``p999`` — end-to-end latency quantiles from
        #: an external observer (canonically the loadgen harness's
        #: sliding window).  The engine's own ``avg_latency`` measures
        #: service time only; queueing delay is visible *only* from the
        #: client side, which is why SLO detection needs this feed.
        self.latency_source = latency_source
        backends = []
        if guard is not None:
            backends.append(guard.primary)
        if engine is not None:
            backends.append(engine.backend)

        def discover(kind):
            return next((b for b in backends if isinstance(b, kind)), None)

        self.cluster = cluster if cluster is not None else discover(ReplicaSet)
        self.sharded = (
            sharded if sharded is not None else discover(ShardedTopKIndex)
        )
        #: The :class:`~repro.durability.durable.DurableTopKIndex` the
        #: flash rules call ``"storage"`` (and ``compact_store`` fixes);
        #: its device ledger feeds the ``flash_*`` fields when the
        #: store sits on a :class:`~repro.flash.disk.FlashDisk`.
        self.storage = discover(DurableTopKIndex)
        disk = self.storage.store.disk if self.storage is not None else None
        self._flash = disk if isinstance(disk, FlashDisk) else None
        self._prev: Dict[Any, int] = {}

    # ------------------------------------------------------------------
    def _machine_plans(self) -> List[Tuple[str, bool, object]]:
        """Every (label, alive, FaultPlan) pair reachable from the stack."""
        out: List[Tuple[str, bool, object]] = []
        seen = set()

        def add(label: str, alive: bool, plan) -> None:
            if plan is None or label in seen:
                return
            seen.add(label)
            out.append((label, alive, plan))

        clusters = [self.cluster] if self.cluster is not None else []
        if self.sharded is not None:
            from repro.replication.cluster import ReplicaSet

            for shard in self.sharded.router.shards.values():
                if shard.machine is not None:
                    add(shard.name, shard.machine.alive, shard.machine.plan)
                elif isinstance(shard.backend, ReplicaSet):
                    clusters.append(shard.backend)
        for cluster in clusters:
            for replica in cluster.replicas:
                add(replica.name, replica.alive, replica.plan)
        return out

    # ------------------------------------------------------------------
    def collect(self, tick: int) -> TelemetrySample:
        """One tick's sample; the collector keeps the previous totals."""
        # Cumulative totals read from their owners this tick, keyed by
        # sample field (or ``(machine, field)``); deltas come after.
        totals: Dict[Any, int] = {}
        fields: Dict[str, Any] = {"tick": tick}

        if self.guard is not None:
            health = self.guard.health.snapshot()
            for name in _GUARD_COUNTERS:
                totals[name] = health[name]

        alive: Dict[str, bool] = {}
        for label, is_alive, plan in self._machine_plans():
            stats = plan.stats
            alive[label] = is_alive
            totals[label, "faults"] = stats.read_faults + stats.write_faults
            totals[label, "corruptions"] = stats.corruptions
            totals[label, "crashes"] = stats.crashes
            totals[label, "reads"] = stats.reads_seen
            totals[label, "writes"] = stats.writes_seen
            totals[label, "latency_units"] = stats.latency_units

        if self.cluster is not None:
            cluster = self.cluster
            stats = cluster.stats
            fabric = getattr(cluster, "fabric", None)
            totals["promotions"] = stats.promotions
            totals["follower_deaths"] = stats.follower_deaths
            totals["primary_crashes"] = stats.primary_crashes
            totals["ship_failures"] = stats.ship_failures
            totals["scrub_repairs"] = stats.scrub_repairs
            if fabric is not None:
                totals["ship_timeouts"] = stats.ship_timeouts
                totals["fenced_rejects"] = fabric.stats.fenced_rejects
                totals["lease_expirations"] = fabric.stats.lease_expirations
                fields["partitions_active"] = fabric.active_partitions()
            fields["primary"] = cluster.replicas[cluster.primary_index].name
            fields["replicas_alive"] = {
                r.name: r.alive for r in cluster.replicas
            }
            fields["replica_lag"] = cluster.replica_lag()
            head = max(r.durable_lsn for r in cluster.replicas)
            fields["replica_durable_lag"] = {
                r.name: max(0, head - r.durable_lsn) for r in cluster.replicas
            }

        if self.sharded is not None:
            sharded = self.sharded
            stats = sharded.stats
            totals["shard_losses"] = stats.shard_losses
            totals["shard_recoveries"] = stats.shard_recoveries
            totals["partial_answers"] = stats.partial_answers
            totals["stale_map_retries"] = stats.stale_map_retries
            fields["shards_alive"] = {
                shard.name: shard.alive
                for shard in sharded.router.shards.values()
            }
            fields["shard_sizes"] = sharded.router.shard_sizes()
            fields["topology_in_flux"] = sharded.router.in_flux

        if self.engine is not None:
            engine = self.engine
            totals["served_queries"] = engine.stats.queries
            totals["load_sheds"] = engine.stats.load_sheds
            totals["queue_sheds"] = engine.stats.queue_sheds
            totals["deadline_sheds"] = engine.stats.deadline_sheds
            fields["queue_depth"] = engine.pending
            fields["serving_avg_latency"] = engine.stats.avg_latency_seconds
            brownout = getattr(engine, "brownout", None)
            if brownout is not None:
                fields["brownout_level"] = brownout.level

        disk = self._flash
        if disk is not None:
            ledger = disk.flash_stats
            totals["flash_host_writes"] = ledger.host_writes
            totals["flash_device_writes"] = ledger.device_writes
            totals["flash_erases"] = ledger.erases
            totals["flash_gc_copies"] = ledger.gc_page_copies
            totals["flash_gc_stalls"] = ledger.gc_stalls
            totals["flash_trims"] = ledger.trims
            fields["flash_max_wear"] = disk.ftl.max_wear
            fields["flash_mean_wear"] = disk.ftl.mean_wear

        deltas = {
            key: int(_counter_delta(value, self._prev.get(key, 0)))
            for key, value in totals.items()
        }
        self._prev = totals
        fields.update(
            (key, value) for key, value in deltas.items() if isinstance(key, str)
        )
        fields["machines"] = {
            label: MachineDelta(
                machine=label,
                alive=is_alive,
                **{name: deltas[label, name] for name in _MACHINE_COUNTERS},
            )
            for label, is_alive in alive.items()
        }
        if disk is not None:
            host = deltas["flash_host_writes"]
            # WA over exactly this tick's window — the detector sees
            # the *current* churn, not a lifetime average diluted by
            # a long healthy past.
            fields["storage_write_amp"] = (
                deltas["flash_device_writes"] / host if host > 0 else 0.0
            )

        if self.latency_source is not None:
            quantiles = self.latency_source() or {}
            fields["p50_latency"] = float(quantiles.get("p50", 0.0))
            fields["p99_latency"] = float(quantiles.get("p99", 0.0))
            fields["p999_latency"] = float(quantiles.get("p999", 0.0))

        return TelemetrySample(**fields)


__all__ = ["TelemetrySample", "TelemetryCollector", "MachineDelta"]
