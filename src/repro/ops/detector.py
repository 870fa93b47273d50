"""Streaming anomaly detection over the telemetry time series.

The :class:`AnomalyDetector` consumes one :class:`TelemetrySample` per
tick and emits :class:`Anomaly` records.  Every rule is deterministic —
fixed thresholds plus EWMA baselines over simulated ticks, no wall
clock, no RNG — so a fixed (workload, fault plan) pair reproduces the
identical anomaly stream.  The rule set mirrors the failure modes PRs
1–5 made injectable:

``fault_spike``
    A machine's per-tick fault delta exceeds both an absolute floor and
    a multiple of its EWMA baseline — the signature of a fault storm.
``corruption_drip``
    A machine's corruption count over a sliding window of ticks crosses
    a cumulative floor, with fresh corruption this tick — slow-drip bit
    rot that per-tick thresholds would never see.
``machine_crash``
    A machine recorded a crash this tick.
``replica_down`` / ``shard_down``
    Aliveness gauges: a cluster replica or a shard machine is dead.
``lag_growth``
    A replica's *durable* lag (missed ships — unlike applied lag this
    is zero for a healthy lazy follower) is over bound and has not
    shrunk for a configurable number of ticks.
``rung_burst``
    The guard fell past its primary rung (``rung_unavailable`` /
    ``degraded_queries``) more than the floor allows in one tick.
``staleness_suspect``
    Failed contract spot-checks this tick — the one symptom whose
    mitigation is serving-side (flush suspect cached answers).
``shed_spike`` / ``queue_depth`` / ``latency_regression``
    Serving-side pressure: load sheds this tick, queue depth over
    bound, or average latency over both an absolute floor and a
    multiple of its EWMA baseline.
``hot_shard``
    One shard holds more than ``imbalance_ratio`` times the mean shard
    size — the rebalance trigger.
``slo_breach``
    The client-observed p99 latency gauge (loadgen-fed; includes
    queueing delay the server-side mean cannot see) exceeds the
    configured SLO.  Disabled while ``p99_slo`` is 0.
``queue_growth``
    The pending-queue gauge has *strictly grown* for
    ``queue_growth_ticks`` consecutive ticks above a floor — the
    open-loop signature of offered load exceeding capacity, visible
    well before ``queue_depth``'s absolute bound trips.
``shed_rate_spike``
    Sheds as a fraction of offered work this tick (sheds / (sheds +
    served)) crossed ``shed_rate_ratio`` with at least
    ``shed_rate_min_sheds`` absolute sheds — admission control doing
    so much turning-away that capacity, not noise, is the story.
``ack_timeout_spike``
    WAL-ship transport timeouts this tick crossed the floor — the
    network-partition signature that is *not* a machine fault (ship
    timeouts feed no failure-detector streak), so nothing else fires.
``epoch_reject_spike``
    Stale-epoch envelopes rejected this tick — a deposed primary (or a
    partition-stranded client of one) is still talking.  The fencing
    *worked*; the anomaly is that it had to.
``write_amp_spike``
    The flash-backed store's per-tick write amplification (device page
    programs per logical host write, over this tick's deltas) crossed
    ``write_amp_max`` with at least ``write_amp_min_writes`` host
    writes behind it — garbage collection is churning relocations
    because the durable store has accumulated dead blocks since its
    last compaction.
    The remedy is the ``compact_store`` lever.
``wear_imbalance``
    The most-erased flash block's wear exceeds
    ``wear_imbalance_ratio`` times the mean (once the mean is past a
    floor) — erase load is concentrating instead of leveling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.ops.telemetry import TelemetrySample

Scope = Tuple[str, str]  # (scope type, identifier)

SCOPE_MACHINE = "machine"
SCOPE_REPLICA = "replica"
SCOPE_SHARD = "shard"
SCOPE_SUBSYSTEM = "subsystem"


@dataclass(frozen=True)
class DetectorPolicy:
    """Thresholds and baselines for every rule (module docstring)."""

    ewma_alpha: float = 0.3          # EWMA smoothing for baselines
    warmup_ticks: int = 2            # EWMA rules stay silent this long
    fault_spike_min: int = 3         # absolute per-tick fault floor
    fault_spike_factor: float = 4.0  # ... and this multiple of baseline
    corruption_min: int = 3          # window total to call it a drip
    corruption_window: int = 10      # sliding window length, in ticks
    lag_bound: int = 5               # durable-lag LSNs before suspicion
    lag_flat_ticks: int = 2          # ...held or growing this long
    rung_burst_min: int = 2          # degradations per tick
    latency_units_min: int = 12      # injected latency units per tick
    shed_min: int = 1                # load sheds per tick
    queue_depth_max: int = 256      # pending requests gauge
    latency_floor: float = 0.05      # seconds; absolute p99-proxy floor
    latency_factor: float = 3.0      # ... and this multiple of baseline
    imbalance_ratio: float = 4.0     # max shard size over mean
    p99_slo: float = 0.0             # client p99 SLO (same units as the
                                     # latency source feed); 0 disables
    queue_growth_ticks: int = 3      # consecutive strictly-growing ticks
    queue_growth_min: int = 16       # ...once depth is past this floor
    shed_rate_ratio: float = 0.1     # sheds / (sheds + served) per tick
    shed_rate_min_sheds: int = 4     # absolute shed floor for the ratio
    ack_timeout_min: int = 2         # ship transport timeouts per tick
    epoch_reject_min: int = 1        # stale-epoch rejects per tick
    write_amp_max: float = 2.0       # per-tick device/host writes; 0 disables
    write_amp_min_writes: int = 32   # host-write floor before WA is judged
    wear_imbalance_ratio: float = 3.0  # max/mean block wear; 0 disables
    wear_mean_floor: float = 2.0     # mean erases/block before wear is judged


@dataclass(frozen=True)
class Anomaly:
    """One rule firing on one tick."""

    tick: int
    kind: str
    scope: Scope
    metric: str
    value: float
    threshold: float
    detail: str = ""


class _Ewma:
    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.value: Optional[float] = None

    def update(self, x: float) -> float:
        """Fold ``x`` in; returns the baseline *before* this update."""
        before = self.value if self.value is not None else 0.0
        if self.value is None:
            self.value = float(x)
        else:
            self.value = self.alpha * x + (1 - self.alpha) * self.value
        return before


class AnomalyDetector:
    """Stateful, deterministic rule engine over telemetry samples."""

    def __init__(self, policy: Optional[DetectorPolicy] = None) -> None:
        self.policy = policy if policy is not None else DetectorPolicy()
        self._ticks_seen = 0
        self._fault_baseline: Dict[str, _Ewma] = {}
        self._corruption_window: Dict[str, Deque[int]] = {}
        self._lag_history: Dict[str, Deque[int]] = {}
        self._latency_baseline = _Ewma(self.policy.ewma_alpha)
        self._queue_history: Deque[int] = deque(
            maxlen=self.policy.queue_growth_ticks + 1
        )

    # ------------------------------------------------------------------
    def observe(self, sample: TelemetrySample) -> List[Anomaly]:
        """Fold one sample in; returns every anomaly it triggers."""
        policy = self.policy
        self._ticks_seen += 1
        warm = self._ticks_seen > policy.warmup_ticks
        out: List[Anomaly] = []

        def flag(kind: str, scope: Scope, metric: str, value: float,
                 threshold: float, detail: str = "") -> None:
            out.append(Anomaly(
                tick=sample.tick, kind=kind, scope=scope, metric=metric,
                value=float(value), threshold=float(threshold), detail=detail,
            ))

        # --- per-machine fault plans -----------------------------------
        for label in sorted(sample.machines):
            delta = sample.machines[label]
            baseline = self._fault_baseline.setdefault(
                label, _Ewma(policy.ewma_alpha)
            ).update(delta.faults)
            spike_bar = max(
                policy.fault_spike_min, policy.fault_spike_factor * baseline
            )
            if warm and delta.faults >= spike_bar:
                flag(
                    "fault_spike", (SCOPE_MACHINE, label), "machine_faults",
                    delta.faults, spike_bar,
                    f"ewma baseline {baseline:.2f}",
                )
            window = self._corruption_window.setdefault(
                label, deque(maxlen=policy.corruption_window)
            )
            window.append(delta.corruptions)
            if delta.corruptions > 0 and sum(window) >= policy.corruption_min:
                flag(
                    "corruption_drip", (SCOPE_MACHINE, label),
                    "machine_corruptions", sum(window), policy.corruption_min,
                    f"{delta.corruptions} fresh this tick",
                )
            if delta.crashes > 0:
                flag(
                    "machine_crash", (SCOPE_MACHINE, label),
                    "machine_crashes", delta.crashes, 1,
                )
            if delta.latency_units >= policy.latency_units_min:
                # A brownout raises nothing the streak policy can see —
                # counted latency is the only trace it leaves.
                flag(
                    "latency_storm", (SCOPE_MACHINE, label),
                    "machine_latency_units", delta.latency_units,
                    policy.latency_units_min,
                )

        # --- replication gauges ----------------------------------------
        for name in sorted(sample.replicas_alive):
            if not sample.replicas_alive[name]:
                flag("replica_down", (SCOPE_REPLICA, name), "replica_alive", 0, 1)
        for name in sorted(sample.replica_durable_lag):
            lag = sample.replica_durable_lag[name]
            history = self._lag_history.setdefault(
                name, deque(maxlen=policy.lag_flat_ticks + 1)
            )
            history.append(lag)
            if (
                lag >= policy.lag_bound
                and len(history) > policy.lag_flat_ticks
                and all(
                    later >= earlier
                    for earlier, later in zip(history, list(history)[1:])
                )
            ):
                flag(
                    "lag_growth", (SCOPE_REPLICA, name), "durable_lag",
                    lag, policy.lag_bound,
                    f"not shrinking for {policy.lag_flat_ticks} ticks",
                )

        # --- network / fencing -----------------------------------------
        if sample.ship_timeouts >= policy.ack_timeout_min:
            flag(
                "ack_timeout_spike", (SCOPE_SUBSYSTEM, "network"),
                "ship_timeouts", sample.ship_timeouts,
                policy.ack_timeout_min,
                f"{sample.partitions_active} partitioned links",
            )
        if sample.fenced_rejects >= policy.epoch_reject_min:
            flag(
                "epoch_reject_spike", (SCOPE_SUBSYSTEM, "network"),
                "fenced_rejects", sample.fenced_rejects,
                policy.epoch_reject_min,
                f"{sample.lease_expirations} lease expirations this tick",
            )

        # --- flash-backed durable storage ------------------------------
        if (
            policy.write_amp_max > 0.0
            and sample.flash_host_writes >= policy.write_amp_min_writes
            and sample.storage_write_amp >= policy.write_amp_max
        ):
            flag(
                "write_amp_spike", (SCOPE_SUBSYSTEM, "storage"),
                "storage_write_amp", sample.storage_write_amp,
                policy.write_amp_max,
                f"{sample.flash_device_writes} device / "
                f"{sample.flash_host_writes} host writes this tick",
            )
        if (
            policy.wear_imbalance_ratio > 0.0
            and sample.flash_mean_wear >= policy.wear_mean_floor
            and sample.flash_max_wear
            >= policy.wear_imbalance_ratio * sample.flash_mean_wear
        ):
            flag(
                "wear_imbalance", (SCOPE_SUBSYSTEM, "storage"),
                "flash_max_wear", sample.flash_max_wear,
                policy.wear_imbalance_ratio * sample.flash_mean_wear,
                f"mean wear {sample.flash_mean_wear:.2f} erases/block",
            )

        # --- query path -------------------------------------------------
        degradations = sample.rung_unavailable + sample.degraded_queries
        if degradations >= policy.rung_burst_min:
            flag(
                "rung_burst", (SCOPE_SUBSYSTEM, "query"), "degradations",
                degradations, policy.rung_burst_min,
            )
        if sample.spot_check_failures > 0:
            flag(
                "staleness_suspect", (SCOPE_SUBSYSTEM, "serving"),
                "spot_check_failures", sample.spot_check_failures, 1,
            )

        # --- sharding gauges -------------------------------------------
        for name in sorted(sample.shards_alive):
            if not sample.shards_alive[name]:
                flag("shard_down", (SCOPE_SHARD, name), "shard_alive", 0, 1)
        if len(sample.shard_sizes) >= 2:
            sizes = sample.shard_sizes
            mean = sum(sizes.values()) / len(sizes)
            hottest = max(sorted(sizes), key=lambda name: sizes[name])
            if mean > 0 and sizes[hottest] >= policy.imbalance_ratio * mean:
                flag(
                    "hot_shard", (SCOPE_SHARD, hottest), "shard_size",
                    sizes[hottest], policy.imbalance_ratio * mean,
                    f"mean {mean:.1f}",
                )

        # --- serving pressure ------------------------------------------
        if sample.load_sheds >= policy.shed_min:
            flag(
                "shed_spike", (SCOPE_SUBSYSTEM, "serving"), "load_sheds",
                sample.load_sheds, policy.shed_min,
            )
        if sample.queue_depth > policy.queue_depth_max:
            flag(
                "queue_depth", (SCOPE_SUBSYSTEM, "serving"), "queue_depth",
                sample.queue_depth, policy.queue_depth_max,
            )
        latency_baseline = self._latency_baseline.update(
            sample.serving_avg_latency
        )
        latency_bar = max(
            policy.latency_floor, policy.latency_factor * latency_baseline
        )
        if warm and sample.serving_avg_latency >= latency_bar:
            flag(
                "latency_regression", (SCOPE_SUBSYSTEM, "serving"),
                "avg_latency", sample.serving_avg_latency, latency_bar,
                f"ewma baseline {latency_baseline:.4f}s",
            )

        # --- SLO rules (loadgen-fed overload signatures) ----------------
        if policy.p99_slo > 0.0 and sample.p99_latency > policy.p99_slo:
            flag(
                "slo_breach", (SCOPE_SUBSYSTEM, "serving"), "p99_latency",
                sample.p99_latency, policy.p99_slo,
                f"p50 {sample.p50_latency:.4g}, p999 {sample.p999_latency:.4g}",
            )
        self._queue_history.append(sample.queue_depth)
        history = list(self._queue_history)
        if (
            len(history) > policy.queue_growth_ticks
            and sample.queue_depth >= policy.queue_growth_min
            and all(
                later > earlier
                for earlier, later in zip(history, history[1:])
            )
        ):
            flag(
                "queue_growth", (SCOPE_SUBSYSTEM, "serving"), "queue_depth",
                sample.queue_depth, history[0],
                f"strictly growing for {policy.queue_growth_ticks} ticks",
            )
        offered = sample.load_sheds + sample.served_queries
        if (
            offered > 0
            and sample.load_sheds >= policy.shed_rate_min_sheds
            and sample.load_sheds / offered >= policy.shed_rate_ratio
        ):
            flag(
                "shed_rate_spike", (SCOPE_SUBSYSTEM, "serving"), "shed_rate",
                sample.load_sheds / offered, policy.shed_rate_ratio,
                f"{sample.load_sheds} sheds / {offered} offered",
            )

        return out


__all__ = [
    "AnomalyDetector",
    "DetectorPolicy",
    "Anomaly",
    "Scope",
    "SCOPE_MACHINE",
    "SCOPE_REPLICA",
    "SCOPE_SHARD",
    "SCOPE_SUBSYSTEM",
]
