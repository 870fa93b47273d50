"""Mitigation planning: existing levers only, state-aware escalation.

The planner owns **no new repair machinery** — every lever is a public
method PRs 2–5 already shipped (plus the thin operator plumbing this PR
added around them):

=================  ====================================================
``force_failover``  :meth:`ReplicaSet.force_failover` — move traffic
                    off a degraded-but-alive primary.
``reboot_replica``  :meth:`ReplicaSet.recover_replica` — power-cycle a
                    machine onto a fresh context over its own disk
                    (snapshot + WAL tail); adoption attaches a fresh,
                    disarmed fault plan, so this is the lever that
                    actually clears a machine whose environment keeps
                    injecting faults.
``scrub``           :meth:`ReplicaSet.scrub(repair=True)` — anti-
                    entropy digest comparison + resync; also the lag
                    lever, since it aligns every live replica first.
``recover_shard``   :meth:`ShardedTopKIndex.recover_shard` — proactive
                    reboot of a dead shard, off the query path.
``rebalance``       :meth:`ShardedTopKIndex.rebalance` — move buckets
                    off a hot shard.
``flush_cache``     :meth:`ServingEngine.flush_cache` — drop cached
                    answers on staleness suspicion.
``split_shard``     :meth:`ShardedTopKIndex.split_shard` — scale *out*:
                    one more shard means one more parallel server, the
                    overload lever (targets the largest still-splittable
                    shard at fire time).
``recover_replica`` :meth:`ReplicaSet.recover_replica` on the first
                    dead replica — restore lost serving fan-out.
``heal_partition``  :meth:`NetworkFabric.heal` — clear every scheduled
                    partition window (reconnect the topology; loss and
                    reorder rates stay, they are hardware).
``compact_store``   :meth:`DurableTopKIndex.compact_store` — checkpoint,
                    then compact the durable store: fold its manifest
                    and discard every dead block (a TRIM on flash); the
                    write-amplification / wear lever.
=================  ====================================================

Planning is **state-aware**: the same blamed machine gets
``force_failover`` while it is an alive primary, ``scrub`` first when
the dominant symptom is corruption, and ``reboot_replica`` once it is
dead (or once gentler rungs failed to quiet the symptoms).  Because the
ladder is rebuilt from *live* state on every escalation (a failover
turns the blamed primary into a follower, a reboot revives a dead
machine), the planner walks it by skipping levers this incident already
pulled rather than indexing by rung; when nothing unattempted remains
it returns ``None`` and the operator marks the incident exhausted
rather than thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.ops.detector import (
    SCOPE_MACHINE,
    SCOPE_REPLICA,
    SCOPE_SHARD,
    SCOPE_SUBSYSTEM,
)
from repro.ops.incidents import Incident

LEVER_FAILOVER = "force_failover"
LEVER_REBOOT = "reboot_replica"
LEVER_SCRUB = "scrub"
LEVER_RECOVER_SHARD = "recover_shard"
LEVER_REBALANCE = "rebalance"
LEVER_FLUSH_CACHE = "flush_cache"
LEVER_SPLIT_SHARD = "split_shard"
LEVER_RECOVER_REPLICA = "recover_replica"
LEVER_HEAL = "heal_partition"
LEVER_COMPACT = "compact_store"

_CORRUPTION_KINDS = ("corruption_drip",)
_LAG_KINDS = ("lag_growth",)
# Network-scope symptoms: first reconnect the topology; if the rejects
# persist after a heal, a deposed-but-talking primary needs deposing
# *again* via a forced failover (which re-announces the epoch).
_PARTITION_KINDS = ("ack_timeout_spike", "epoch_reject_spike")
# Subsystem symptoms whose root cause is capacity, not state: the
# remedy is scale-out, and flushing the cache would make them *worse*.
_OVERLOAD_KINDS = (
    "slo_breach",
    "queue_growth",
    "shed_rate_spike",
    "shed_spike",
    "queue_depth",
    "latency_regression",
)
# Storage-scope symptoms from a flash-backed durable store: the store's
# layout (dead segments, concentrated erase load), not its machine, is
# sick — the remedy is a compaction, never a reboot or cache flush.
_FLASH_KINDS = ("write_amp_spike", "wear_imbalance")


@dataclass
class PlannedAction:
    """One lever, bound to its target, ready to fire."""

    lever: str
    target: str
    apply: Callable[[], str]  # returns a short outcome description


class MitigationPlanner:
    """Blame + live state -> the next lever on the escalation ladder."""

    def __init__(
        self, cluster=None, sharded=None, engine=None, fabric=None,
        stores=None,
    ) -> None:
        self.cluster = cluster
        self.sharded = sharded
        self.engine = engine
        if fabric is None and cluster is not None:
            fabric = getattr(cluster, "fabric", None)
        self.fabric = fabric
        #: Mapping ``label -> DurableTopKIndex`` (anything exposing
        #: ``compact_store()``); ``"storage"`` matches the scope the
        #: flash detector rules blame.
        self.stores = dict(stores) if stores else {}

    # ------------------------------------------------------------------
    # Ladder construction
    # ------------------------------------------------------------------
    def _machine_ladder(self, incident: Incident, replica) -> List[str]:
        kinds = {a.kind for a in incident.anomalies}
        corruption = bool(kinds.intersection(_CORRUPTION_KINDS))
        if replica is None:
            return []
        if not replica.alive:
            # A dead machine has exactly one way back: reboot from its
            # disk.  Scrub afterwards if symptoms somehow persist.
            return [LEVER_REBOOT, LEVER_SCRUB]
        if corruption:
            # In-flight corruption first gets the cheap integrity pass;
            # if the drip continues, the machine itself is sick — reboot
            # replaces its (inherited!) fault environment wholesale.
            return [LEVER_SCRUB, LEVER_REBOOT]
        if replica.is_primary:
            return [LEVER_FAILOVER, LEVER_REBOOT, LEVER_SCRUB]
        return [LEVER_REBOOT, LEVER_SCRUB]

    def _shard_ladder(self, incident: Incident, shard) -> List[str]:
        if shard is None:
            return []
        if not shard.alive:
            return [LEVER_RECOVER_SHARD]
        kinds = {a.kind for a in incident.anomalies}
        if "hot_shard" in kinds:
            return [LEVER_REBALANCE]
        return [LEVER_RECOVER_SHARD]

    def _subsystem_ladder(self, incident: Incident) -> List[str]:
        kinds = {a.kind for a in incident.anomalies}
        if kinds.intersection(_FLASH_KINDS):
            return [LEVER_COMPACT] if self.stores else []
        if kinds.intersection(_PARTITION_KINDS):
            ladder = []
            if self.fabric is not None:
                ladder.append(LEVER_HEAL)
            if self.cluster is not None:
                ladder.append(LEVER_FAILOVER)
            return ladder
        if kinds.intersection(_OVERLOAD_KINDS):
            # Overload is a capacity problem: scale out (each split adds
            # one parallel server), even the load across what exists,
            # recover lost fan-out.  The cache lever stays OFF this
            # ladder — under overload the cache *is* the capacity, and
            # flushing it turns a brownout into a blackout.
            ladder: List[str] = []
            if (
                self.sharded is not None
                and self.sharded.splittable_shard() is not None
            ):
                ladder.append(LEVER_SPLIT_SHARD)
            if self.sharded is not None:
                ladder.append(LEVER_REBALANCE)
            if self.cluster is not None and any(
                not r.alive for r in self.cluster.replicas
            ):
                ladder.append(LEVER_RECOVER_REPLICA)
            return ladder
        if self.engine is None:
            return []
        return [LEVER_FLUSH_CACHE]

    # ------------------------------------------------------------------
    def plan(self, incident: Incident) -> Optional[PlannedAction]:
        """The next unattempted lever on the live ladder, or ``None``."""
        scope_type, scope_id = incident.scope
        if scope_type in (SCOPE_MACHINE, SCOPE_REPLICA):
            replica = self._find_replica(scope_id)
            ladder = self._machine_ladder(incident, replica)
            if scope_type == SCOPE_REPLICA and set(
                a.kind for a in incident.anomalies
            ) <= set(_LAG_KINDS):
                # Pure lag on a live replica: align/resync is the fix.
                ladder = [LEVER_SCRUB, LEVER_REBOOT]
        elif scope_type == SCOPE_SHARD:
            shard = (
                self.sharded.router.shards.get(scope_id)
                if self.sharded is not None
                else None
            )
            ladder = self._shard_ladder(incident, shard)
        elif scope_type == SCOPE_SUBSYSTEM:
            ladder = self._subsystem_ladder(incident)
        else:
            ladder = []
        attempted = {
            m.lever for m in incident.mitigations if m.lever != "(deferred)"
        }
        # split_shard is the one repeatable rung: every pull targets a
        # *fresh* donor (the currently-largest splittable shard), so its
        # mere presence on the live ladder — which already requires a
        # splittable shard to remain — means another pull adds capacity.
        remaining = [
            lever
            for lever in ladder
            if lever not in attempted or lever == LEVER_SPLIT_SHARD
        ]
        if not remaining:
            return None
        return self._bind(remaining[0], scope_id)

    def _find_replica(self, name: str):
        if self.cluster is None:
            return None
        return next(
            (r for r in self.cluster.replicas if r.name == name), None
        )

    # ------------------------------------------------------------------
    # Lever bindings
    # ------------------------------------------------------------------
    def _bind(self, lever: str, target: str) -> PlannedAction:
        if lever == LEVER_FAILOVER:
            def apply() -> str:
                successor = self.cluster.force_failover()
                return f"primary moved to {successor.name}"
        elif lever == LEVER_REBOOT:
            def apply() -> str:
                reborn = self.cluster.recover_replica(target)
                return f"{reborn.name} rebooted from disk, lag 0"
        elif lever == LEVER_SCRUB:
            def apply() -> str:
                report = self.cluster.scrub(repair=True)
                return (
                    f"scrubbed: {len(report.repaired)} repaired, "
                    f"{len(report.divergent)} divergent"
                )
        elif lever == LEVER_RECOVER_SHARD:
            def apply() -> str:
                rebooted = self.sharded.recover_shard(target)
                return "shard rebooted" if rebooted else "shard already healthy"
        elif lever == LEVER_REBALANCE:
            def apply() -> str:
                moves = self.sharded.rebalance()
                return f"{len(moves)} rebalance actions"
        elif lever == LEVER_FLUSH_CACHE:
            def apply() -> str:
                dropped = self.engine.flush_cache()
                return f"{dropped} cached answers dropped"
        elif lever == LEVER_SPLIT_SHARD:
            def apply() -> str:
                name = self.sharded.splittable_shard()
                if name is None:
                    return "no splittable shard remains"
                donor, newborn = self.sharded.split_shard(name)
                return f"split {donor} -> {newborn} (+1 server)"
        elif lever == LEVER_HEAL:
            def apply() -> str:
                healed = self.fabric.heal()
                self.fabric.flush_all_holdback()
                return f"{healed} links reconnected"
        elif lever == LEVER_COMPACT:
            def apply() -> str:
                store = self.stores.get(target)
                if store is None:
                    store = self.stores[sorted(self.stores)[0]]
                trimmed = store.compact_store()
                return f"store compacted, {trimmed} dead blocks trimmed"
        elif lever == LEVER_RECOVER_REPLICA:
            def apply() -> str:
                dead = next(
                    (r for r in self.cluster.replicas if not r.alive), None
                )
                if dead is None:
                    return "no dead replica to recover"
                reborn = self.cluster.recover_replica(dead.name)
                return f"{reborn.name} recovered, fan-out restored"
        else:  # pragma: no cover - planner only emits known levers
            raise ValueError(f"unknown lever {lever!r}")
        return PlannedAction(lever=lever, target=target, apply=apply)


__all__ = [
    "MitigationPlanner",
    "PlannedAction",
    "LEVER_FAILOVER",
    "LEVER_REBOOT",
    "LEVER_SCRUB",
    "LEVER_RECOVER_SHARD",
    "LEVER_REBALANCE",
    "LEVER_FLUSH_CACHE",
    "LEVER_SPLIT_SHARD",
    "LEVER_RECOVER_REPLICA",
    "LEVER_HEAL",
    "LEVER_COMPACT",
]
