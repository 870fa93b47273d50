"""`ReplicaSet`: a replicated top-k service over N simulated machines.

The set is N independent :class:`~repro.replication.replica.Replica`
machines — each with its own disk, fault plan, durable store, and
index — coordinated by three mechanisms:

* **synchronous WAL shipping** — every update goes to the primary's
  durable log first; the committed tail is then shipped to each live
  follower via the incremental
  :func:`~repro.durability.wal.read_committed` (``after_lsn`` = the
  follower's own durable LSN) and spliced onto the follower's log with
  :meth:`DurableTopKIndex.apply_shipped`.  A follower's acknowledgement
  is its *own durable commit*, so any record the set ever acknowledged
  is durable on every follower that acked it — promotion by highest
  durable LSN therefore never loses an acknowledged write.  Followers
  apply **lazily**: records are durable immediately but folded into
  the in-memory index only when a freshness-bounded read, a
  checkpoint, or a promotion demands it;
* **deterministic failover** — a :class:`SimulatedCrash` on the
  primary (or a condemned fault streak, per
  :class:`~repro.replication.failover.FailoverPolicy`) triggers
  promotion of the surviving follower with the highest durable LSN
  (ties break on name), which replays its committed-but-unapplied tail
  before admitting operations.  The interrupted update is retried on
  the new primary idempotently — a membership check detects whether
  the record made it across before the crash;
* **anti-entropy** — :meth:`scrub` delegates to the
  :class:`~repro.replication.antientropy.AntiEntropyScrubber`, walking
  block seals per replica and state digests across replicas, and
  resyncing any divergent machine from a clean source.

Reads come in two modes, and :meth:`ReplicaSet.query` is the one way
anything reads the set: ``primary`` (authoritative; fenced, it needs
the same lease proof as a write) and ``quorum`` (the default: a
majority of live replicas must answer within the staleness bound;
disagreement is counted and left for the scrubber).  A follower whose
applied LSN trails the bound first catches up from its own durable
log; if it is *durably* behind (missed ships), the read falls back to
the primary.

Degradation ladder: healthy quorum → degraded reads (fewer live
replicas than a majority — served and counted, never silently) →
**rebuild from the durable record** (every machine dead: the disk with
the highest durable LSN is mounted fresh and recovered via
:func:`~repro.durability.recovery.recover_index`, becoming the new
primary of a one-machine set).

**Network + fencing** (PR 8): all WAL shipping, lease renewal, and
anti-entropy resync traffic crosses a
:class:`~repro.net.fabric.NetworkFabric` in typed envelopes carrying
idempotency keys — a default fabric is perfect, so the pre-PR-8
behaviour is unchanged; a chaos fabric drops, duplicates, reorders,
delays, and partitions per directed link.  Transport failures
(:class:`~repro.resilience.errors.PartitionedError`) are *never*
machine faults: they feed no failure-detector streak and kill no
follower.  With ``lease_ttl > 0`` the set is **fenced**: the commit
epoch doubles as a fencing token stamped on every envelope, stale
epochs are rejected at delivery, the primary must renew a counted
virtual-time lease against a quorum before acknowledging (a write that
cannot reach a quorum is rolled back and refused — or surfaced as
indeterminate when even the rollback's fate is unknown), a primary
whose lease lapses demotes itself to read-only, and elections promote
only quorum-reachable followers after waiting out the deposed holder's
lease — split-brain is structurally impossible, not just unlikely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.interfaces import TopKIndex
from repro.core.problem import Element, Predicate
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.durable import DurableTopKIndex
from repro.durability.wal import OP_DELETE, OP_INSERT, read_committed
from repro.net.fabric import (
    MSG_LEASE_RENEW,
    MSG_RESYNC,
    MSG_WAL_SHIP,
    Message,
    NetworkFabric,
)
from repro.replication.antientropy import AntiEntropyScrubber, ScrubReport
from repro.replication.failover import FailoverController, FailoverPolicy
from repro.replication.replica import ROLE_FOLLOWER, ROLE_PRIMARY, Replica
from repro.resilience.errors import (
    FailoverError,
    FencedError,
    InvalidConfiguration,
    PartitionedError,
    RecoveryError,
    ReplicaUnavailable,
    SimulatedCrash,
    SnapshotIntegrityError,
    TransientIOError,
    WALShippingGap,
)
from repro.resilience.faults import FaultPlan

READ_PRIMARY = "primary"
READ_QUORUM = "quorum"
_READ_MODES = (READ_PRIMARY, READ_QUORUM)


class _StaleRead(ReplicaUnavailable):
    """Internal: a follower could not reach the freshness bound."""


@dataclass
class ReplicationStats:
    """Counters of everything the replica set did."""

    inserts: int = 0
    deletes: int = 0
    groups_shipped: int = 0
    records_shipped: int = 0
    acks: int = 0
    ship_failures: int = 0
    primary_crashes: int = 0
    follower_deaths: int = 0
    promotions: int = 0
    failover_records_replayed: int = 0
    quorum_reads: int = 0
    quorum_mismatches: int = 0
    degraded_reads: int = 0
    stale_fallbacks: int = 0
    scrubs: int = 0
    scrub_repairs: int = 0
    records_resynced: int = 0
    resyncs: int = 0
    rebuilds: int = 0
    forced_failovers: int = 0
    replica_reboots: int = 0
    # Network / fencing (PR 8).
    ship_timeouts: int = 0         # transport-level ship failures (not deaths)
    ship_retries: int = 0          # idempotent re-sends after a timeout
    lease_renewals: int = 0
    lease_expirations: int = 0     # self-demotions of a quorum-less primary
    quorum_ack_failures: int = 0   # writes that could not reach a majority
    write_compensations: int = 0   # failed writes rolled back on the primary


class ReplicaSet(TopKIndex):
    """A top-k index served by N replicated machines (module docstring).

    Parameters
    ----------
    elements:
        The initial set ``D``.
    build_fn:
        ``elements -> TopKIndex``.  **Must be deterministic**: every
        replica is built by calling it on the same elements, and
        replication correctness (and anti-entropy's digest comparison)
        rests on identically-built replicas staying bit-for-bit equal
        under the same op sequence.
    restore_fn:
        ``state dict -> TopKIndex`` — the recovery/resync counterpart.
    num_replicas / names / fault_plans:
        Cluster shape; plans default to disarmed per-machine plans.
    B / M / commit_interval:
        Per-machine durable store parameters.
    max_staleness:
        The per-replica staleness bound (in LSNs behind the primary's
        applied LSN) a serving replica may carry.
    fabric:
        The :class:`~repro.net.fabric.NetworkFabric` carrying all
        inter-replica traffic.  Omitted, a private perfect fabric is
        created — identical behaviour to direct calls.
    lease_ttl:
        ``> 0`` turns on epoch-fenced leases with this TTL in fabric
        clock units (module docstring); ``0`` (default) keeps the
        pre-fencing semantics bit-for-bit.
    """

    def __init__(
        self,
        elements: Sequence[Element],
        build_fn: Callable[[List[Element]], TopKIndex],
        restore_fn: Callable[[dict], TopKIndex],
        num_replicas: int = 3,
        B: int = 16,
        M: Optional[int] = None,
        commit_interval: int = 1,
        max_staleness: int = 0,
        failover_policy: Optional[FailoverPolicy] = None,
        fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
        names: Optional[Sequence[str]] = None,
        fabric: Optional[NetworkFabric] = None,
        lease_ttl: int = 0,
    ) -> None:
        if num_replicas < 1:
            raise InvalidConfiguration(
                f"num_replicas must be >= 1, got {num_replicas}"
            )
        if max_staleness < 0:
            raise InvalidConfiguration(
                f"max_staleness must be >= 0, got {max_staleness}"
            )
        names = (
            list(names)
            if names is not None
            else [f"replica-{i}" for i in range(num_replicas)]
        )
        plans: List[Optional[FaultPlan]] = (
            list(fault_plans) if fault_plans is not None else [None] * num_replicas
        )
        if len(names) != num_replicas or len(plans) != num_replicas:
            raise InvalidConfiguration(
                "names and fault_plans must match num_replicas"
            )
        if len(set(names)) != num_replicas:
            raise InvalidConfiguration("replica names must be distinct")
        self.build_fn = build_fn
        self.restore_fn = restore_fn
        self.B = B
        self.M = M
        self.commit_interval = commit_interval
        self.max_staleness = max_staleness
        elements = list(elements)
        self.replicas: List[Replica] = [
            Replica(
                names[i],
                build_fn(list(elements)),
                B=B,
                M=M,
                commit_interval=commit_interval,
                fault_plan=plans[i],
            )
            for i in range(num_replicas)
        ]
        self.replicas[0].role = ROLE_PRIMARY
        self.primary_index = 0
        self.failover = FailoverController(failover_policy)
        self.scrubber = AntiEntropyScrubber(restore_fn)
        self.stats = ReplicationStats()
        # Bumped on every promotion/rebuild.  A new primary may hold a
        # *lower* applied LSN than its predecessor (an uncommitted tail
        # died with the old machine), so LSN comparison alone cannot
        # validate cached answers across failovers — the epoch can.
        # With fencing on it doubles as the fencing token.
        self.commit_epoch = 0
        if lease_ttl < 0:
            raise InvalidConfiguration(
                f"lease_ttl must be >= 0, got {lease_ttl}"
            )
        self.fabric = fabric if fabric is not None else NetworkFabric(seed=0)
        self.lease_ttl = lease_ttl
        self._fenced = lease_ttl > 0
        self._ship_retries = 1
        # Highest LSN the current epoch inherited.  A rejoining replica
        # whose durable log extends past this while its fence epoch is
        # stale holds a divergent tail from a dead epoch — it must be
        # resynced, never spliced.
        self._epoch_base_lsn = 0
        for name in names:
            self.fabric.register(name, self._net_receive)
        if self._fenced:
            self.failover.configure_lease(lease_ttl)
            self.failover.grant_lease(self.primary.name, self.fabric.now)

    # ------------------------------------------------------------------
    # Membership / health surface
    # ------------------------------------------------------------------
    @property
    def primary(self) -> Replica:
        return self.replicas[self.primary_index]

    @property
    def live_replicas(self) -> List[Replica]:
        return [r for r in self.replicas if r.alive]

    def replica_lag(self) -> Dict[str, int]:
        """Per-replica LSN lag behind the primary's applied state.

        Live replicas report their *applied* lag (what a read would
        see); dead machines report their *durable* lag (what a rebuild
        from their disk would lose).
        """
        primary = self.primary
        head = (
            primary.applied_lsn
            if primary.alive
            else max(r.durable_lsn for r in self.replicas)
        )
        return {
            r.name: max(0, head - (r.applied_lsn if r.alive else r.durable_lsn))
            for r in self.replicas
        }

    @property
    def n(self) -> int:
        return self._require_primary().durable.n

    def space_units(self) -> int:
        """Total space across live machines — replication is not free."""
        return sum(r.durable.space_units() for r in self.live_replicas)

    def __contains__(self, element: Element) -> bool:
        inner = self._require_primary().durable.inner
        if hasattr(type(inner), "__contains__"):
            return element in inner
        raise TypeError(f"{type(inner).__name__} does not support membership")

    # ------------------------------------------------------------------
    # Network delivery (the fabric's endpoint handler for every replica)
    # ------------------------------------------------------------------
    def _net_receive(self, message: Message):
        """Apply one delivered envelope at its destination replica.

        Fencing happens *here*, at the resource: a fenced cluster
        refuses any envelope whose epoch trails the epoch in force —
        ZooKeeper-style fencing tokens checked by the storage fabric —
        so a deposed primary's late or retried traffic can never mutate
        a follower, even one that has not yet heard of the new epoch.
        """
        replica = next(
            (r for r in self.replicas if r.name == message.dst), None
        )
        if replica is None:
            raise ReplicaUnavailable(
                f"no replica named {message.dst!r}", replica=message.dst
            )
        if self._fenced and message.epoch < self.commit_epoch:
            raise FencedError(
                f"{message.kind!r} from {message.src!r} carries stale epoch "
                f"{message.epoch} < {self.commit_epoch}",
                epoch=message.epoch,
                current=self.commit_epoch,
            )
        replica.require_alive()
        if self._fenced:
            replica.fence_epoch = max(replica.fence_epoch, message.epoch)
        if message.kind == MSG_WAL_SHIP:
            appended = replica.durable.apply_shipped(message.payload)
            if appended:
                replica.log_epoch = max(replica.log_epoch, message.epoch)
                if message.epoch < self.commit_epoch:
                    # Only reachable unfenced: the ablation's smoking gun.
                    self.fabric.stats.stale_epoch_applies += 1
            return appended
        if message.kind == MSG_LEASE_RENEW:
            return replica.durable_lsn
        if message.kind == MSG_RESYNC:
            return True
        raise InvalidConfiguration(
            f"unknown message kind {message.kind!r}"
        )

    def _electable(self, candidates: List[Replica]) -> List[Replica]:
        """Raft-style eligibility: a majority must *vote* for the winner.

        Reachability alone is not enough — under an asymmetric cut the
        most caught-up follower can be unreachable while a stale one
        still sees a quorum, and promoting the stale one would truncate
        quorum-acknowledged records at the next resync.  So each live
        peer grants its vote only to a candidate whose log is at least
        as up to date as its own, compared by ``(log_epoch,
        durable_lsn)``: any elected log then covers every record some
        majority acknowledged, because the ack majority and the vote
        majority always intersect.  The epoch leads the comparison so a
        deposed primary's compensation-inflated LSN cannot outrank (or
        veto) the current epoch's logs.
        """
        live = self.live_replicas
        needed = len(live) // 2 + 1
        eligible = []
        for candidate in candidates:
            ticket = (candidate.log_epoch, candidate.durable_lsn)
            votes = 0
            for peer in live:
                if peer is candidate:
                    votes += 1
                elif (
                    not self.fabric.blocked(candidate.name, peer.name)
                    and (peer.log_epoch, peer.durable_lsn) <= ticket
                ):
                    votes += 1
            if votes >= needed:
                eligible.append(candidate)
        return eligible

    def _ensure_lease(self, primary: Replica) -> None:
        """Renew (or enforce the lapse of) the primary's fenced lease.

        Renewal is a quorum heartbeat over the fabric.  Failing to
        renew is tolerated while the old grant lives; once the TTL runs
        out with no quorum in sight the primary **demotes itself to a
        read-only follower** and raises :class:`FencedError` — the
        self-fencing half of the split-brain guarantee (the other half
        is the election's wait for this very lease to lapse).
        """
        controller = self.failover
        now = self.fabric.now
        if controller.lease_valid(primary.name, now) and (
            controller.lease_expires - now > controller.lease_ttl // 2
        ):
            return
        others = [r for r in self.replicas if r is not primary and r.alive]
        grants = 1  # the primary's own vote
        for peer in others:
            try:
                self.fabric.send(
                    primary.name,
                    peer.name,
                    MSG_LEASE_RENEW,
                    epoch=self.commit_epoch,
                    key=("lease", primary.name, peer.name, self.fabric.now),
                )
            except (PartitionedError, ReplicaUnavailable, TransientIOError):
                continue
            grants += 1
        if grants >= (len(others) + 1) // 2 + 1:
            controller.grant_lease(primary.name, self.fabric.now)
            self.stats.lease_renewals += 1
            return
        if controller.lease_valid(primary.name, self.fabric.now):
            # Renewal failed but the old grant has not lapsed yet; the
            # primary may keep serving until the TTL runs out.
            return
        primary.role = ROLE_FOLLOWER
        self.stats.lease_expirations += 1
        self.fabric.stats.lease_expirations += 1
        raise FencedError(
            f"primary {primary.name!r} could not renew its lease "
            f"(expired t={controller.lease_expires}, now t={self.fabric.now});"
            " demoted to read-only",
            epoch=self.commit_epoch,
            current=self.commit_epoch,
        )

    def _announce_epoch(self, successor: Replica) -> None:
        """Best-effort fence of every reachable follower at promotion.

        Marks the new epoch on whoever can hear it so fenced reads know
        which replicas rejoined; followers beyond a partition stay at
        their stale epoch and are fenced out of serving until a ship at
        the current epoch reaches them.
        """
        successor.fence_epoch = self.commit_epoch
        for follower in self.live_replicas:
            if follower is successor:
                continue
            try:
                self.fabric.send(
                    successor.name,
                    follower.name,
                    MSG_LEASE_RENEW,
                    epoch=self.commit_epoch,
                    key=("fence", successor.name, follower.name,
                         self.commit_epoch),
                )
            except (PartitionedError, ReplicaUnavailable, FencedError,
                    TransientIOError):
                continue

    # ------------------------------------------------------------------
    # Primary election / degradation ladder
    # ------------------------------------------------------------------
    def _require_primary(self) -> Replica:
        primary = self.replicas[self.primary_index]
        if primary.alive and primary.is_primary:
            return primary
        return self._elect()

    def _elect(self) -> Replica:
        """Promote the best surviving follower (or rebuild from disk).

        Fenced clusters add two safeguards: only a follower that can
        reach a quorum of live replicas may stand (promoting into the
        minority side of a partition is exactly the split-brain the
        leases exist to prevent), and the deposed holder's lease must
        lapse before the epoch turns — two valid leaseholders never
        coexist.
        """
        while True:
            candidates = [r for r in self.replicas if r.alive and not r.is_primary]
            if self._fenced and candidates:
                eligible = self._electable(candidates)
                if not eligible:
                    raise ReplicaUnavailable(
                        "no follower can win an election quorum; refusing "
                        "to promote into the minority side of a partition"
                    )
                candidates = eligible
            try:
                successor = self.failover.pick_successor(candidates)
            except FailoverError:
                return self._rebuild_from_durable()
            if self._promote(successor):
                return successor

    def _promote(self, successor: Replica) -> bool:
        """Make ``successor`` the primary of the next epoch.

        Fenced, the deposed holder's lease is waited out first.  The
        successor replays its committed-but-unapplied tail; then every
        other primary is demoted, the commit epoch is bumped, and
        (fenced) the successor is granted the lease and announces the
        epoch.  Returns ``False`` when the successor faulted during
        replay — marked dead on a crash or a condemned streak — so the
        caller picks again.
        """
        if self._fenced:
            self.fabric.advance_to(self.failover.lease_expires)
        try:
            replayed = self.failover.promote(successor)
        except SimulatedCrash:
            successor.mark_dead()
            self.stats.follower_deaths += 1
            return False
        except TransientIOError as exc:
            if self.failover.note_fault(successor.name, exc):
                successor.mark_dead()
                self.stats.follower_deaths += 1
            return False
        for replica in self.replicas:
            if replica is not successor and replica.is_primary:
                replica.role = ROLE_FOLLOWER
        self.primary_index = self.replicas.index(successor)
        self.stats.promotions += 1
        self.stats.failover_records_replayed += replayed
        self.commit_epoch += 1
        self._epoch_base_lsn = successor.durable_lsn
        successor.log_epoch = self.commit_epoch
        if self._fenced:
            self.failover.grant_lease(successor.name, self.fabric.now)
            self._announce_epoch(successor)
        return True

    def _on_primary_death(self, primary: Replica) -> Replica:
        primary.mark_dead()
        self.stats.primary_crashes += 1
        return self._elect()

    def _rebuild_from_durable(self) -> Replica:
        """Last rung: every machine is dead; recover the best disk.

        Disks survive their machines.  The disk with the highest
        durable LSN is mounted with a fresh context and taken through
        the full recovery sequence (snapshot → replay → audit →
        rebuild fallback); the result becomes the primary of what is
        now a one-machine set, resuming the cluster's LSN sequence.
        """
        candidates = sorted(
            self.replicas, key=lambda r: (-r.durable_lsn, r.name)
        )
        last_error: Optional[Exception] = None
        for casualty in candidates:
            try:
                durable = DurableTopKIndex.recover(
                    casualty.disk,
                    self.restore_fn,
                    self.build_fn,
                    B=self.B,
                    M=self.M,
                    commit_interval=self.commit_interval,
                )
            except (RecoveryError, SnapshotIntegrityError) as exc:
                last_error = exc
                continue
            reborn = Replica.adopt(casualty.name, durable)
            reborn.role = ROLE_PRIMARY
            slot = self.replicas.index(casualty)
            self.replicas[slot] = reborn
            self.primary_index = slot
            self.stats.rebuilds += 1
            self.commit_epoch += 1
            self._epoch_base_lsn = reborn.durable_lsn
            reborn.fence_epoch = self.commit_epoch
            reborn.log_epoch = self.commit_epoch
            if self._fenced:
                self.fabric.advance_to(self.failover.lease_expires)
                self.failover.grant_lease(reborn.name, self.fabric.now)
            self.failover.note_success(reborn.name)
            return reborn
        raise ReplicaUnavailable(
            "every replica is down and no durable record is recoverable"
        ) from last_error

    def replace_replica(self, old: Replica, new: Replica) -> None:
        """Swap a rebuilt machine into ``old``'s slot (same role).

        Failure-detector hygiene rides along: fault streaks for names
        no longer in the cluster are evicted, and the newcomer starts
        with a clean streak — the machine behind the name is new, and
        its predecessor's sins must not condemn it.
        """
        slot = self.replicas.index(old)
        new.role = old.role
        self.replicas[slot] = new
        if new.name != old.name:
            self.fabric.register(new.name, self._net_receive)
        self.failover.evict({r.name for r in self.replicas})
        self.failover.note_success(new.name)

    # ------------------------------------------------------------------
    # Operator levers (pulled by the repro.ops control plane)
    # ------------------------------------------------------------------
    def force_failover(self) -> Replica:
        """Depose the current primary *without* killing it.

        The same election machinery that runs on a primary crash —
        highest durable LSN among live followers wins, the successor
        replays its committed-but-unapplied tail, the commit epoch is
        bumped — but the old primary survives as a follower and keeps
        its data.  This is the gentle lever for a degraded-but-alive
        primary (a fault storm, creeping latency): traffic moves off the
        sick machine while it stays in rotation for resync or a later
        reboot.  Raises :class:`FailoverError` when no live follower
        exists to take over.
        """
        old = self.replicas[self.primary_index]
        while True:
            candidates = [
                r for r in self.replicas if r.alive and not r.is_primary
            ]
            if not candidates:
                raise FailoverError(
                    "force_failover needs a live follower to promote"
                )
            if self._fenced:
                candidates = self._electable(candidates)
                if not candidates:
                    raise FailoverError(
                        "force_failover: no follower can win an election "
                        "quorum; refusing to promote into the minority "
                        "side of a partition"
                    )
            successor = self.failover.pick_successor(candidates)
            if not self._promote(successor):
                continue
            self.stats.forced_failovers += 1
            if old.alive:
                # The deposed primary's streak starts clean under its
                # new, lighter follower duty.
                self.failover.note_success(old.name)
            return successor

    def recover_replica(self, name: str) -> Replica:
        """Reboot one machine from its own disk (snapshot + WAL tail).

        A dead machine is simply mounted fresh; a live one is
        power-cycled first (its primary role, if any, fails over before
        the reboot).  Adoption attaches a fresh, **disarmed** fault
        plan — a reboot is how an operator clears a machine whose
        environment keeps injecting faults, where an anti-entropy
        repair would inherit the sick machine's plan.  The reborn
        follower is aligned to the primary before returning, so it
        rejoins at zero lag.
        """
        try:
            casualty = next(r for r in self.replicas if r.name == name)
        except StopIteration:
            raise InvalidConfiguration(f"no replica named {name!r}") from None
        if casualty.alive:
            if casualty.is_primary:
                self._on_primary_death(casualty)
            else:
                casualty.mark_dead()
                self.stats.follower_deaths += 1
            # A primary death above may already have rebuilt this very
            # slot (last-disk-standing election); if so, we are done.
            casualty = next(r for r in self.replicas if r.name == name)
            if casualty.alive:
                self.stats.replica_reboots += 1
                return casualty
        durable = DurableTopKIndex.recover(
            casualty.disk,
            self.restore_fn,
            self.build_fn,
            B=self.B,
            M=self.M,
            commit_interval=self.commit_interval,
        )
        reborn = Replica.adopt(name, durable)
        reborn.role = ROLE_FOLLOWER
        self.replicas[self.replicas.index(casualty)] = reborn
        self.stats.replica_reboots += 1
        self.failover.note_success(name)
        self.align()
        return reborn

    # ------------------------------------------------------------------
    # Writes: primary-first, ship-per-commit, idempotent retry
    # ------------------------------------------------------------------
    def insert(self, element: Element) -> None:
        self.stats.inserts += 1
        self._update(OP_INSERT, element)

    def delete(self, element: Element) -> None:
        self.stats.deletes += 1
        self._update(OP_DELETE, element)

    def _update(self, op: str, element: Element) -> None:
        retrying = False
        fence_retries = 0
        while True:
            primary = self._require_primary()
            try:
                if self._fenced:
                    # Lease first: a primary that cannot prove it still
                    # holds the lease must not even log the record.
                    self._ensure_lease(primary)
                if retrying and self._already_applied(primary, op, element):
                    # The record crossed before the crash (it is on the
                    # freshest follower, which is now primary) — the op
                    # is done; just make sure it propagates.
                    self._ship_quorum(primary)
                    return
                if op == OP_INSERT:
                    primary.durable.insert(element)
                else:
                    primary.durable.delete(element)
                self.failover.note_success(primary.name)
                self._ship_quorum(primary, op=op, element=element)
                return
            except FencedError:
                # The lease lapsed and the primary self-demoted; a new
                # election (possible only where a quorum is reachable)
                # retries the op under the next epoch.  Bounded: each
                # retry consumes a fresh election, and elections cannot
                # outnumber the machines.
                fence_retries += 1
                if fence_retries > len(self.replicas) + 2:
                    raise
                retrying = True
            except SimulatedCrash:
                self._on_primary_death(primary)
                retrying = True
            except TransientIOError as exc:
                if self.failover.note_fault(primary.name, exc):
                    self._on_primary_death(primary)
                retrying = True

    @staticmethod
    def _already_applied(replica: Replica, op: str, element: Element) -> bool:
        inner = replica.durable.inner
        if not hasattr(type(inner), "__contains__"):
            return False
        present = element in inner
        return present if op == OP_INSERT else not present

    def _ship_quorum(
        self,
        primary: Replica,
        op: Optional[str] = None,
        element: Optional[Element] = None,
    ) -> None:
        """Ship, then enforce the quorum-ack contract of a fenced write.

        Unfenced clusters keep the pre-network contract: best-effort
        shipping, success as soon as the primary logged the record.  A
        fenced cluster only acknowledges a write once a majority holds
        it durably; when shipping cannot reach a majority (a partition
        stranding the primary with a minority), the write is
        **compensated** — the inverse op is logged and shipped so the
        minority side never serves a value the client was told failed —
        and the client sees a *definite* failure.  Only when the
        compensation itself cannot be confirmed does the client get an
        indeterminate verdict (``PartitionedError(indeterminate=True)``,
        the history checker's ``info``).
        """
        acked, needed = self._ship(primary)
        if not self._fenced or acked >= needed:
            return
        self.stats.quorum_ack_failures += 1
        if op is None or element is None:
            # Nothing to unwind (idempotent re-ship of an old record):
            # the caller's op may or may not be majority-durable.
            raise PartitionedError(
                "write could not reach a majority", indeterminate=True
            )
        inverse = OP_DELETE if op == OP_INSERT else OP_INSERT
        try:
            if inverse == OP_INSERT:
                primary.durable.insert(element)
            else:
                primary.durable.delete(element)
        except SimulatedCrash:
            primary.mark_dead()
            self.stats.primary_crashes += 1
            raise PartitionedError(
                "write could not reach a majority and the compensating "
                "record crashed the primary",
                indeterminate=True,
            ) from None
        except TransientIOError:
            raise PartitionedError(
                "write could not reach a majority and the compensating "
                "record could not be logged",
                indeterminate=True,
            ) from None
        self.stats.write_compensations += 1
        acked2, _ = self._ship(primary)
        if acked2 >= acked:
            # The compensation reached everyone the original did: no
            # replica anywhere holds the op un-reverted, so the failure
            # is definite.
            raise PartitionedError(
                "write could not reach a majority (compensated)",
                indeterminate=False,
            )
        raise PartitionedError(
            "write could not reach a majority; compensation reached "
            "fewer replicas than the original",
            indeterminate=True,
        )

    def _ship(self, primary: Replica) -> tuple:
        """Ship the primary's committed tail to every live follower.

        Returns ``(acked, needed)`` — machines (primary included) that
        durably hold the tail vs. the majority threshold.  A crash
        while *reading* the primary's log is the primary's death and
        propagates to the caller; a fault on a *follower* only costs
        that follower (dead or skipped until the next ship — its
        durable LSN watermark makes re-shipping resume exactly where it
        left off).  A :class:`PartitionedError` is a property of the
        *link*, not the machine: it never feeds the failure detector's
        streak and never condemns the follower.
        """
        # Complete any group commit whose flush faulted transiently.
        primary.durable.commit()
        committed = primary.durable.committed_lsn
        acked = 1  # the primary's own log
        for follower in list(self.replicas):
            if follower is primary or not follower.alive:
                continue
            if (
                self._fenced
                and follower.log_epoch < self.commit_epoch
                and follower.durable_lsn > self._epoch_base_lsn
            ):
                # The follower carries records from a dead epoch past
                # the fork point (a deposed primary rejoining): its
                # tail would splice by LSN but diverge by content.
                # Full snapshot resync, checked *before* the watermark
                # skip — such a follower can look "caught up".
                self.stats.resyncs += 1
                try:
                    self.scrubber.repair(self, follower, primary)
                except PartitionedError:
                    self.stats.ship_failures += 1
                    self.stats.ship_timeouts += 1
                    continue
                except (RecoveryError, SnapshotIntegrityError):
                    self.stats.ship_failures += 1
                    continue
                acked += 1
                continue
            if follower.durable_lsn >= committed:
                acked += 1
                continue
            groups, _ = read_committed(
                primary.store,
                primary.durable.wal.head,
                after_lsn=follower.durable_lsn,
            )
            try:
                appended = self._ship_groups(primary, follower, groups)
            except PartitionedError:
                # Link trouble, not machine trouble: no streak, no
                # death.  The watermark resumes the ship after heal.
                self.stats.ship_failures += 1
                self.stats.ship_timeouts += 1
                continue
            except ReplicaUnavailable:
                continue
            except SimulatedCrash:
                follower.mark_dead()
                self.stats.follower_deaths += 1
                continue
            except TransientIOError as exc:
                self.stats.ship_failures += 1
                if self.failover.note_fault(follower.name, exc):
                    follower.mark_dead()
                    self.stats.follower_deaths += 1
                continue
            except WALShippingGap:
                # The tail no longer splices (the primary checkpointed
                # past this follower's watermark): full snapshot resync.
                self.stats.resyncs += 1
                try:
                    self.scrubber.repair(self, follower, primary)
                except PartitionedError:
                    self.stats.ship_failures += 1
                    self.stats.ship_timeouts += 1
                    continue
                acked += 1
                continue
            if appended:
                self.stats.groups_shipped += len(groups)
                self.stats.records_shipped += appended
                self.stats.acks += 1
            self.failover.note_success(follower.name)
            acked += 1
        needed = len(self.live_replicas) // 2 + 1
        return acked, needed

    def _ship_groups(self, primary: Replica, follower: Replica, groups) -> int:
        """One WAL-ship envelope over the fabric, idempotently retried.

        The idempotency key is derived from the *content* of the ship
        (epoch + both watermarks), so a retry after an indeterminate
        transport verdict reuses the same key and a duplicate delivery
        is absorbed by the receiver's dedupe cache rather than applied
        twice.
        """
        key = (
            "ship",
            primary.name,
            follower.name,
            self.commit_epoch,
            follower.durable_lsn,
            primary.durable.committed_lsn,
        )
        attempt = 0
        while True:
            try:
                return self.fabric.send(
                    primary.name,
                    follower.name,
                    MSG_WAL_SHIP,
                    groups,
                    epoch=self.commit_epoch,
                    key=key,
                )
            except PartitionedError as exc:
                if exc.indeterminate and attempt < self._ship_retries:
                    # A transport timeout: the ship *may* have landed.
                    # Retrying with the same key is safe — if it did,
                    # the dedupe cache answers for it.
                    attempt += 1
                    self.stats.ship_retries += 1
                    continue
                raise

    # ------------------------------------------------------------------
    # Alignment barrier (scrub / checkpoint substrate)
    # ------------------------------------------------------------------
    def align(self) -> None:
        """Commit + ship + apply everywhere.

        After this, every live replica's applied LSN equals the
        primary's — honest replication lag is zero, so any remaining
        state difference is genuine divergence (the scrubber's
        precondition).
        """
        while True:
            primary = self._require_primary()
            try:
                self._ship(primary)
                break
            except SimulatedCrash:
                self._on_primary_death(primary)
            except TransientIOError as exc:
                if self.failover.note_fault(primary.name, exc):
                    self._on_primary_death(primary)
        for replica in self.live_replicas:
            try:
                replica.durable.replay_unapplied()
            except SimulatedCrash:
                if replica.is_primary:
                    self._on_primary_death(replica)
                else:
                    replica.mark_dead()
                    self.stats.follower_deaths += 1
            except TransientIOError as exc:
                if self.failover.note_fault(replica.name, exc):
                    replica.mark_dead()
                    self.stats.follower_deaths += 1

    def checkpoint(self) -> None:
        """Checkpoint every live machine (primary first, then followers)."""
        self.align()
        for replica in [self.primary] + [
            r for r in self.live_replicas if not r.is_primary
        ]:
            if not replica.alive:
                continue
            try:
                replica.durable.checkpoint()
            except SimulatedCrash:
                if replica.is_primary:
                    self._on_primary_death(replica)
                else:
                    replica.mark_dead()
                    self.stats.follower_deaths += 1
            except TransientIOError as exc:
                if self.failover.note_fault(replica.name, exc):
                    replica.mark_dead()
                    self.stats.follower_deaths += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_stamp(self) -> tuple:
        """``(commit_epoch, primary applied LSN)`` — the cache version.

        Cached answers stamped with an older epoch are unconditionally
        invalid (a failover happened; the LSN sequence may have stepped
        backwards); within an epoch the LSN distance bounds staleness.
        """
        # Electing first matters: a pending promotion bumps the epoch,
        # and the stamp must carry the post-promotion value.
        primary = self._require_primary()
        return (self.commit_epoch, primary.applied_lsn)

    def query(
        self,
        predicate: Predicate,
        k: int,
        mode: str = READ_QUORUM,
        max_staleness: Optional[int] = None,
        **kwargs,
    ) -> List[Element]:
        if mode not in _READ_MODES:
            raise InvalidConfiguration(f"unknown read mode {mode!r}")
        staleness = (
            self.max_staleness if max_staleness is None else max_staleness
        )
        if mode == READ_PRIMARY:
            return self._query_primary(predicate, k, kwargs)
        return self._query_quorum(predicate, k, staleness, kwargs)

    def _query_primary(self, predicate: Predicate, k: int, kwargs: dict) -> List[Element]:
        fence_retries = 0
        while True:
            primary = self._require_primary()
            try:
                if self._fenced:
                    # Linearizable reads need the same lease proof as
                    # writes: a deposed primary stranded in a minority
                    # must not serve a read that misses newer-epoch
                    # writes on the majority side.
                    self._ensure_lease(primary)
                return primary.durable.query(predicate, k, **kwargs)
            except FencedError:
                fence_retries += 1
                if fence_retries > len(self.replicas) + 2:
                    raise
            except SimulatedCrash:
                self._on_primary_death(primary)

    def _serve(
        self,
        replica: Replica,
        required_lsn: int,
        predicate: Predicate,
        k: int,
        kwargs: dict,
    ) -> List[Element]:
        """One replica's answer, no staler than ``required_lsn``.

        A lazily-applying replica first catches up from its own durable
        log; if it is *durably* short of the bound (ships it never
        acked), it cannot serve and the read falls elsewhere.
        """
        replica.require_alive()
        if (
            self._fenced
            and not replica.is_primary
            and replica.log_epoch < self.commit_epoch
            and replica.durable_lsn > self._epoch_base_lsn
        ):
            # A dead-epoch tail past the fork point (a deposed primary
            # rejoining): its applied LSN can look *fresher* than the
            # truth while its content is wrong.  It cannot serve until
            # resynced — and merely having heard the new epoch over a
            # half-open link does not clear it.
            raise _StaleRead(
                f"replica {replica.name!r} log epoch "
                f"{replica.log_epoch} < commit epoch {self.commit_epoch} "
                "with a divergent tail",
                replica=replica.name,
            )
        if replica.applied_lsn < required_lsn:
            replica.durable.replay_unapplied()
        if replica.applied_lsn < required_lsn:
            raise _StaleRead(
                f"replica {replica.name!r} applied lsn {replica.applied_lsn} "
                f"< required {required_lsn}",
                replica=replica.name,
            )
        return replica.durable.query(predicate, k, **kwargs)

    def _query_quorum(
        self, predicate: Predicate, k: int, staleness: int, kwargs: dict
    ) -> List[Element]:
        """Majority read: over half the live replicas must agree to serve.

        Answers are collected in deterministic order (primary, then
        followers by name); the freshest answer wins.  Any disagreement
        between collected answers is counted for the scrubber.  Fewer
        live answers than a majority is a *degraded* read — still
        served (from what survives), never silently.
        """
        self.stats.quorum_reads += 1
        primary = self._require_primary()
        required = primary.applied_lsn - staleness
        order = [primary] + sorted(
            (r for r in self.live_replicas if not r.is_primary),
            key=lambda r: r.name,
        )
        needed = len(self.live_replicas) // 2 + 1
        answers: List[tuple] = []
        for replica in order:
            try:
                answer = self._serve(replica, required, predicate, k, kwargs)
            except _StaleRead:
                self.stats.stale_fallbacks += 1
                continue
            except SimulatedCrash:
                if replica.is_primary:
                    primary = self._on_primary_death(replica)
                else:
                    replica.mark_dead()
                    self.stats.follower_deaths += 1
                continue
            except TransientIOError as exc:
                if self.failover.note_fault(replica.name, exc):
                    replica.mark_dead()
                    self.stats.follower_deaths += 1
                continue
            answers.append(
                (replica.applied_lsn, replica.is_primary, replica.name, answer)
            )
            if len(answers) >= needed:
                break
        if not answers:
            self.stats.degraded_reads += 1
            return self._query_primary(predicate, k, kwargs)
        if len(answers) < needed:
            self.stats.degraded_reads += 1
        # Freshest answer wins; on equal freshness the primary's answer
        # is authoritative (a divergent follower must not out-vote it).
        freshest = max(answers, key=lambda entry: (entry[0], entry[1], entry[2]))
        if any(entry[3] != freshest[3] for entry in answers):
            self.stats.quorum_mismatches += 1
        return freshest[3]

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------
    def scrub(self, repair: bool = True) -> ScrubReport:
        """One anti-entropy pass (see :mod:`repro.replication.antientropy`)."""
        self.stats.scrubs += 1
        report = self.scrubber.scrub(self, repair=repair)
        self.stats.scrub_repairs += len(report.repaired)
        self.stats.records_resynced += report.records_resynced
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        roles = ", ".join(
            f"{r.name}:{r.role[0]}{'' if r.alive else '(dead)'}"
            for r in self.replicas
        )
        return f"ReplicaSet({roles}, committed={self.primary.durable_lsn})"


def replicated_index(
    elements: Sequence[Element],
    prioritized_factory,
    max_factory,
    num_replicas: int = 3,
    B: int = 2,
    store_B: int = 16,
    seed: int = 0,
    **cluster_kwargs,
) -> ReplicaSet:
    """A :class:`ReplicaSet` over canonical Theorem 2 replicas.

    The build function pins the seed, so every replica constructs an
    identical index — the determinism replication correctness (and the
    scrubber's digest comparison) requires.  ``B`` is the Theorem 2
    block size; ``store_B`` the durable store's.
    """

    def build_fn(elems: List[Element]) -> ExpectedTopKIndex:
        return ExpectedTopKIndex(
            elems, prioritized_factory, max_factory, B=B, seed=seed
        )

    def restore_fn(state: dict) -> ExpectedTopKIndex:
        return ExpectedTopKIndex.restore(state, prioritized_factory, max_factory)

    return ReplicaSet(
        elements, build_fn, restore_fn, num_replicas=num_replicas, B=store_B,
        **cluster_kwargs,
    )


__all__ = [
    "ReplicaSet",
    "ReplicationStats",
    "replicated_index",
    "READ_PRIMARY",
    "READ_QUORUM",
]
