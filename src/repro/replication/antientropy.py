"""Anti-entropy: detect silent divergence between replicas and repair it.

Replication by WAL shipping keeps replicas convergent *if their disks
stay honest* — but disks rot.  The scrubber closes that gap with two
independent checks, run over every live replica:

* a **local seal walk** (:meth:`DurableStore.fingerprints`): every
  block the replica's durable root references is read raw off the disk
  and its embedded seal verified.  A failed seal is local, physical
  damage — bit rot or a torn write the durable root still points at;
* a **cross-replica state digest**: a CRC over the full in-memory
  state (RNG stream included).  Replicas built identically and fed the
  same op sequence are bit-for-bit equal, so after the scrub barrier
  aligns applied LSNs any digest disagreement is real divergence —
  even when every block seal passes (e.g. a block swapped for a stale
  but well-sealed copy).

The reference state is the majority digest among replicas whose seal
walk came back clean (ties prefer the primary, then the smallest
digest).  Every divergent replica is **repaired by resync**: the
source's newest snapshot is read and restored, the source's committed
WAL tail past the snapshot is replayed onto it, and a fresh machine is
built around the result, joining the cluster at the next LSN.  The
repaired replica is then bit-for-bit equal to the source — which the
digest re-check (and the tests) verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.durability.recovery import apply_record
from repro.durability.snapshot import read_snapshot
from repro.durability.wal import read_committed
from repro.net.fabric import MSG_RESYNC
from repro.replication.replica import Replica
from repro.resilience.errors import PartitionedError, SnapshotIntegrityError
from repro.resilience.faults import FaultPlan


@dataclass
class ScrubReport:
    """What one anti-entropy pass saw and did."""

    replicas_checked: List[str] = field(default_factory=list)
    bad_blocks: Dict[str, List[int]] = field(default_factory=dict)
    digests: Dict[str, int] = field(default_factory=dict)
    reference_digest: Optional[int] = None
    divergent: List[str] = field(default_factory=list)
    repaired: List[str] = field(default_factory=list)
    records_resynced: int = 0

    @property
    def clean(self) -> bool:
        """Whether every replica matched the reference state."""
        return not self.divergent


class AntiEntropyScrubber:
    """Walks replica disks, compares states, resyncs the divergent."""

    def __init__(self, restore_fn) -> None:
        self.restore_fn = restore_fn
        self.scrubs = 0
        self.repairs = 0
        self.records_resynced = 0

    # ------------------------------------------------------------------
    def scrub(self, cluster, repair: bool = True) -> ScrubReport:
        """One full anti-entropy pass over ``cluster``'s live replicas.

        Starts with the cluster's alignment barrier (commit + ship +
        apply everywhere) so every live replica sits at the same applied
        LSN — without it, honest replication lag would read as
        divergence.  Then fingerprints and digests, elects the
        reference, and (with ``repair``) resyncs every divergent
        replica from a clean source.
        """
        cluster.align()
        live = [r for r in cluster.replicas if r.alive]
        report = ScrubReport(replicas_checked=[r.name for r in live])
        for replica in live:
            fingerprints = replica.store.fingerprints()
            report.bad_blocks[replica.name] = sorted(
                block_id
                for block_id, (_, seal_ok) in fingerprints.items()
                if not seal_ok
            )
            report.digests[replica.name] = replica.state_digest()

        clean = [r for r in live if not report.bad_blocks[r.name]]
        if not clean:
            # Every live replica has physical damage: no trustworthy
            # source exists, so nothing can be repaired from within the
            # cluster.  (The rebuild rung may still recover from disk.)
            report.divergent = [r.name for r in live]
            self.scrubs += 1
            return report

        primary = cluster.replicas[cluster.primary_index]
        reference = self._reference_digest(report, clean, primary)
        report.reference_digest = reference
        divergent = [
            r
            for r in live
            if report.bad_blocks[r.name] or report.digests[r.name] != reference
        ]
        report.divergent = [r.name for r in divergent]

        if repair and divergent:
            source = self._pick_source(report, clean, primary, reference)
            for replica in divergent:
                if replica is source:
                    continue
                try:
                    report.records_resynced += self.repair(
                        cluster, replica, source
                    )
                except PartitionedError:
                    # Unreachable across a partition: stays divergent
                    # (and listed as such) until a later scrub after
                    # the heal.
                    continue
                report.repaired.append(replica.name)
        self.scrubs += 1
        return report

    @staticmethod
    def _reference_digest(
        report: ScrubReport, clean: List[Replica], primary: Replica
    ) -> int:
        """Majority digest among clean replicas (primary breaks ties)."""
        counts: Dict[int, int] = {}
        for replica in clean:
            digest = report.digests[replica.name]
            counts[digest] = counts.get(digest, 0) + 1
        best = max(counts.values())
        candidates = [d for d, c in counts.items() if c == best]
        primary_digest = report.digests.get(primary.name)
        if primary.name in {r.name for r in clean} and primary_digest in candidates:
            return primary_digest
        return min(candidates)

    @staticmethod
    def _pick_source(
        report: ScrubReport,
        clean: List[Replica],
        primary: Replica,
        reference: int,
    ) -> Replica:
        """A clean replica holding the reference state (prefer primary)."""
        matching = [r for r in clean if report.digests[r.name] == reference]
        for replica in matching:
            if replica is primary:
                return replica
        return min(matching, key=lambda r: r.name)

    # ------------------------------------------------------------------
    def repair(self, cluster, target: Replica, source: Replica) -> int:
        """Resync ``target`` from ``source``: snapshot + WAL tail.

        Reads the source's newest durable snapshot, restores it,
        replays the source's committed log past the snapshot's
        ``last_lsn``, and swaps a fresh machine holding the result into
        the cluster at ``target``'s slot (same name, same role, a new
        disk — the damaged one is retired).  The rebuilt replica joins
        the cluster's LSN sequence exactly where the source's committed
        history ends.  Returns the number of WAL records resynced.
        """
        fabric = getattr(cluster, "fabric", None)
        if fabric is not None and source.name != target.name:
            # A resync is bulk traffic source -> target: probe the link
            # with one envelope before moving anything, so a partitioned
            # target fails here (PartitionedError) with the cluster
            # untouched rather than mid-swap.
            fabric.send(
                source.name,
                target.name,
                MSG_RESYNC,
                None,
                epoch=getattr(cluster, "commit_epoch", 0),
                key=("resync", source.name, target.name, source.durable_lsn),
            )
        if not source.store.snapshots:
            raise SnapshotIntegrityError(
                f"source replica {source.name!r} has no snapshot to resync from"
            )
        state = read_snapshot(source.store, source.store.snapshots[0])
        inner = self.restore_fn(state["index"])
        last_lsn = state.get("last_lsn", 0)
        groups, _ = read_committed(
            source.store, source.durable.wal.head, after_lsn=last_lsn
        )
        resynced = 0
        for group in groups:
            for record in group:
                apply_record(inner, record)
                resynced += 1
        old_plan = target.plan
        replacement = Replica(
            target.name,
            inner,
            B=target.B,
            M=target.M,
            commit_interval=target.commit_interval,
            # A fresh machine inherits the chaos *environment* (rates,
            # seed, arm state) but not the old machine's crash schedule
            # or crashed flag — the dead hardware is retired with it.
            fault_plan=FaultPlan(
                seed=old_plan.seed,
                read_fail_rate=old_plan.read_fail_rate,
                write_fail_rate=old_plan.write_fail_rate,
                corrupt_rate=old_plan.corrupt_rate,
                read_latency=old_plan.read_latency,
                write_latency=old_plan.write_latency,
                armed=old_plan.armed,
                machine=target.name,
            ),
            next_lsn=source.durable_lsn + 1,
        )
        # The replacement holds the source's current-epoch state, so it
        # rejoins fully fenced — old-epoch envelopes bounce off it.
        replacement.fence_epoch = getattr(cluster, "commit_epoch", 0)
        replacement.log_epoch = getattr(cluster, "commit_epoch", 0)
        cluster.replace_replica(target, replacement)
        self.repairs += 1
        self.records_resynced += resynced
        return resynced


__all__ = ["AntiEntropyScrubber", "ScrubReport"]
