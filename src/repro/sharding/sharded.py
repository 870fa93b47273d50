"""`ShardedTopKIndex`: one logical top-k index over S shard machines.

The last scaling axis: every prior layer (durability, replication,
serving) multiplies machines behind *one* copy of ``D``; this one
partitions ``D`` itself.  A :class:`~repro.sharding.partitioner.Partitioner`
places elements into virtual buckets, a
:class:`~repro.sharding.router.ShardRouter` maps buckets to shards
under an epoch-stamped map, and a
:class:`~repro.sharding.scatter.ScatterGatherExecutor` answers queries
with max-probe threshold pruning — every shard an independent machine:
either one :class:`~repro.durability.durable.DurableTopKIndex` on its
own simulated disk, or a whole
:class:`~repro.replication.cluster.ReplicaSet`.

**Updates** route through the map to one shard and follow the PR-3
write discipline: the shard's WAL commits the op before the
coordinator mirrors it into the routing summary (membership + max
structure), and a :class:`SimulatedCrash` mid-update triggers
recover-from-disk plus an idempotent retry (membership check first).

**Online splits and merges** rebalance a hot topology without a stop.
The whole change runs inside the router's ``topology_change`` window:

1. on entry the router's epoch is bumped (in-flight scatter-gathers
   planned against the old epoch will discard and retry) *and* the map
   is latched **in flux** — new snapshots and routes block until the
   final map is published, so a query can neither plan nor validate
   against half-moved shard contents;
2. the donor is checkpointed (snapshot + WAL truncation — the durable
   baseline a crash rolls back to);
3. a split builds the recipient machine from the moving bucket's
   elements (durable from birth: the wrapper checkpoints at
   construction); a merge WAL-inserts the donor's elements into the
   survivor;
4. the moving elements are WAL-deleted from the donor one committed
   record at a time; a crash mid-stream recovers the donor from its
   disk (snapshot + replayed tail) and resumes idempotently;
5. the new map is installed — one more epoch bump, releasing the
   latch — and only then do queries route to the new topology.

Failure atomicity: the recipient is built (durably) *before* any
element leaves the donor, so if the donor's disk proves unrecoverable
mid-handover the new map is installed anyway — every moving element
stays reachable on the recipient, the dead donor degrades through the
ordinary shard-loss ladder, and :class:`ShardUnavailable` surfaces to
the caller.  A change that fails before the recipient exists aborts
cleanly: the latch is released, routes are unchanged, and the entry
epoch bump already forced overlapping queries to retry.

**Shard loss ladder** (the degradation story at shard granularity):
a replicated shard fails over inside its own replica set; a durable
shard that crashes is recovered from its surviving disk on the spot;
if recovery is impossible the query either raises
:class:`~repro.resilience.errors.ShardUnavailable` or — with
``allow_partial`` — serves what the surviving shards hold, flagged via
``last_partial`` and counted in :class:`ShardingStats.partial_answers`
(``sharded.stats``, where the ops plane's
:class:`~repro.ops.telemetry.TelemetryCollector` reads it).

**Serving integration**: the index exposes ``read_stamp()`` (epoch =
router epoch + shard failover epochs, LSN = summed applied LSNs) so
the LSN-versioned result cache works unchanged, and
:meth:`batch_groups` fans a batch's predicate groups out across a
thread pool — each worker runs whole scatter-gathers, every machine
touch under its shard's lock, with every shard's reduction probe-memo
window (``batched()``) open for the batch's duration.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.interfaces import TopKIndex
from repro.core.problem import Element, Predicate, require_distinct_weights
from repro.durability.durable import DurableTopKIndex
from repro.net.fabric import MSG_PROBE, Message, NetworkFabric
from repro.replication.cluster import ReplicaSet
from repro.replication.replica import Replica
from repro.resilience.errors import (
    ContractViolation,
    InvalidConfiguration,
    PartitionedError,
    RecoveryError,
    ReplicaUnavailable,
    ShardUnavailable,
    SimulatedCrash,
    SnapshotIntegrityError,
    TransientIOError,
)
from repro.resilience.faults import FaultPlan
from repro.sharding.partitioner import DEFAULT_BUCKETS, Partitioner
from repro.sharding.router import Shard, ShardMap, ShardRouter
from repro.sharding.scatter import ProbeTrace, ScatterGatherExecutor


@dataclass
class ShardingStats:
    """Counters of everything the sharded index did."""

    queries: int = 0
    inserts: int = 0
    deletes: int = 0
    shard_slots: int = 0       # sum over queries of shards in the map
    max_probes: int = 0
    shard_probes: int = 0      # top-k probes run (one per contacted shard)
    shards_contacted: int = 0  # distinct shards probed per query, summed
    shards_pruned: int = 0     # shards skipped by the running threshold
    shards_empty: int = 0      # shards whose bound probe matched nothing
    escalations: int = 0       # always 0: a contacted shard is probed once
    stale_map_retries: int = 0
    splits: int = 0
    merges: int = 0
    rebalances: int = 0
    shard_losses: int = 0
    shard_recoveries: int = 0
    partial_answers: int = 0
    parallel_batches: int = 0
    unreachable_probes: int = 0  # probes refused/lost by the fabric

    @property
    def contact_ratio(self) -> float:
        """Mean fraction of mapped shards contacted per query."""
        return self.shards_contacted / self.shard_slots if self.shard_slots else 0.0

    @property
    def probes_per_query(self) -> float:
        return self.shard_probes / self.queries if self.queries else 0.0


class ShardedTopKIndex(TopKIndex):
    """Horizontally partitioned top-k index (see module docstring).

    Parameters
    ----------
    elements:
        The initial set ``D`` (distinct weights enforced globally —
        cross-shard answers are rank-merged, so the precondition must
        hold across the whole set, not per shard).
    build_fn / restore_fn:
        As in :class:`ReplicaSet`: deterministic ``elements -> index``
        and its recovery counterpart.  Used per shard slice.
    max_factory:
        Builds the coordinator-side per-shard max structure — the
        pruning bound source.  Dynamic max structures update in place;
        static ones are rebuilt on membership changes.
    num_shards / strategy / num_buckets / seed:
        Initial topology and the partitioner's placement knobs.
    replicas_per_shard:
        ``1`` puts each slice on a single durable machine; ``>= 2``
        backs each slice with its own :class:`ReplicaSet`.
    B / M / commit_interval:
        Per-machine durable-store parameters.  ``commit_interval=1``
        (every op durable before it is acknowledged) is the
        configuration under which post-crash recovery provably agrees
        with the coordinator's routing summary; larger intervals trade
        that for throughput exactly as in PR-2.
    allow_partial:
        Default for the per-query flag: serve from surviving shards
        (flagged) when a shard is unrecoverable, instead of raising.
    fault_plans:
        Optional per-shard chaos schedules (durable shards only),
        bound to each shard machine's disk.
    fabric / coordinator:
        Route every scatter-gather probe over a
        :class:`~repro.net.fabric.NetworkFabric` as a ``coordinator ->
        shard`` :data:`~repro.net.fabric.MSG_PROBE` envelope.  A probe
        that cannot cross (partition, persistent loss) degrades through
        the ordinary shard-loss rungs — ``None`` with ``allow_partial``,
        :class:`ShardUnavailable` otherwise — and is counted in
        :attr:`ShardingStats.unreachable_probes`.  ``fabric=None`` (the
        default) keeps probes in-process, byte-for-byte the pre-network
        behaviour.
    """

    def __init__(
        self,
        elements: Sequence[Element],
        build_fn: Callable[[List[Element]], TopKIndex],
        restore_fn: Callable[[dict], TopKIndex],
        max_factory,
        num_shards: int = 4,
        strategy: str = "hash",
        num_buckets: int = DEFAULT_BUCKETS,
        seed: int = 0,
        replicas_per_shard: int = 1,
        B: int = 16,
        M: Optional[int] = None,
        commit_interval: int = 1,
        allow_partial: bool = False,
        max_map_retries: int = 4,
        fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
        replica_set_kwargs: Optional[dict] = None,
        fabric: Optional[NetworkFabric] = None,
        coordinator: str = "coordinator",
    ) -> None:
        if num_shards < 1:
            raise InvalidConfiguration(f"num_shards must be >= 1, got {num_shards}")
        if replicas_per_shard < 1:
            raise InvalidConfiguration(
                f"replicas_per_shard must be >= 1, got {replicas_per_shard}"
            )
        elements = list(elements)
        require_distinct_weights(elements, "ShardedTopKIndex")
        plans: List[Optional[FaultPlan]] = (
            list(fault_plans) if fault_plans is not None else [None] * num_shards
        )
        if len(plans) != num_shards:
            raise InvalidConfiguration("fault_plans must match num_shards")
        self.build_fn = build_fn
        self.restore_fn = restore_fn
        self.max_factory = max_factory
        self.B = B
        self.M = M
        self.commit_interval = commit_interval
        self.replicas_per_shard = replicas_per_shard
        self.allow_partial = allow_partial
        self.replica_set_kwargs = dict(replica_set_kwargs or {})
        self.fabric = fabric
        self.coordinator = coordinator
        self._probe_serial = 0
        self.stats = ShardingStats()
        self._query_local = threading.local()
        self._weights = {element.weight for element in elements}
        self._next_shard_id = num_shards

        partitioner = Partitioner.for_elements(
            elements, strategy=strategy, num_buckets=num_buckets, seed=seed
        )
        assignment = partitioner.initial_assignment(num_shards)
        names = [f"shard-{i}" for i in range(num_shards)]
        slices: List[List[Element]] = [[] for _ in range(num_shards)]
        for element in elements:
            slices[assignment[partitioner.bucket_of(element)]].append(element)
        shards: Dict[str, Shard] = {}
        for i, name in enumerate(names):
            buckets = [b for b, owner in enumerate(assignment) if owner == i]
            shards[name] = self._make_shard(name, slices[i], buckets, plans[i])
        shard_map = ShardMap(
            epoch=0, bucket_to_shard=tuple(names[i] for i in assignment)
        )
        self.router = ShardRouter(partitioner, shard_map, shards)
        self.executor = ScatterGatherExecutor(
            self.router,
            self._probe_backend,
            max_map_retries=max_map_retries,
        )
        # One lock for every cumulative-stats mutation: the executor
        # folds traces under it, and the index's own counters join it so
        # parallel batch workers never drop increments.
        self._stats_lock = self.executor.stats_lock

    # ------------------------------------------------------------------
    # Shard construction / recovery
    # ------------------------------------------------------------------
    def _make_shard(
        self,
        name: str,
        slice_elements: List[Element],
        buckets: Sequence[int],
        plan: Optional[FaultPlan] = None,
    ) -> Shard:
        """One shard machine (or replica set) over one slice of ``D``."""
        if self.replicas_per_shard > 1:
            backend = ReplicaSet(
                slice_elements,
                self.build_fn,
                self.restore_fn,
                num_replicas=self.replicas_per_shard,
                B=self.B,
                M=self.M,
                commit_interval=self.commit_interval,
                names=[f"{name}/r{i}" for i in range(self.replicas_per_shard)],
                **self.replica_set_kwargs,
            )
            machine = None
        else:
            machine = Replica(
                name,
                self.build_fn(list(slice_elements)),
                B=self.B,
                M=self.M,
                commit_interval=self.commit_interval,
                fault_plan=plan,
            )
            backend = machine.durable
        return Shard(
            name,
            backend,
            self.max_factory(list(slice_elements)),
            slice_elements,
            buckets,
            machine=machine,
        )

    def _recover_shard(self, shard: Shard, trace: Optional[ProbeTrace] = None) -> None:
        """Reboot a dead durable shard from its surviving disk.

        The disk outlives the machine; recovery mounts it fresh and
        replays the committed WAL tail onto the newest valid snapshot
        (PR-2's sequence).  Raises :class:`ShardUnavailable` when the
        durable record itself is gone — the caller decides between
        partial service and failure.
        """
        assert shard.machine is not None
        if trace is not None:
            trace.shard_losses += 1
        else:
            with self._stats_lock:
                self.stats.shard_losses += 1
        try:
            durable = DurableTopKIndex.recover(
                shard.machine.disk,
                self.restore_fn,
                self.build_fn,
                B=self.B,
                M=self.M,
                commit_interval=self.commit_interval,
            )
        except (RecoveryError, SnapshotIntegrityError) as exc:
            raise ShardUnavailable(
                f"shard {shard.name!r} is down and its durable record is "
                "unrecoverable",
                shard=shard.name,
            ) from exc
        shard.machine = Replica.adopt(shard.name, durable)
        shard.backend = durable
        if trace is not None:
            trace.shard_recoveries += 1
        else:
            with self._stats_lock:
                self.stats.shard_recoveries += 1

    def recover_shard(self, name: str) -> bool:
        """Proactively reboot a dead shard (operator lever).

        The query path already recovers a crashed shard *reactively* —
        but only when a query happens to probe it.  The ops control
        plane calls this the moment telemetry shows the shard down, so
        recovery cost is paid off the query path.  Returns ``True`` if
        a reboot ran, ``False`` if the shard was already healthy.
        Raises :class:`ShardUnavailable` when the durable record is
        unrecoverable and :class:`InvalidConfiguration` for unknown
        names or replica-set shards (those heal through their own
        cluster machinery).
        """
        shard = self.router.shards.get(name)
        if shard is None:
            raise InvalidConfiguration(f"no shard named {name!r}")
        with shard.lock:
            if shard.machine is None:
                raise InvalidConfiguration(
                    f"shard {name!r} is replica-set backed; use the "
                    "cluster's own failover/reboot levers"
                )
            if shard.machine.alive:
                return False
            self._recover_shard(shard)
        return True

    # ------------------------------------------------------------------
    # TopKIndex surface
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return sum(shard.n for shard in self.router.shards.values())

    def space_units(self) -> int:
        """Backend space plus the coordinator's per-shard max structures."""
        total = 0
        for shard in self.router.shards.values():
            total += shard.backend.space_units() + shard.max_index.space_units()
        return total

    def __contains__(self, element: Element) -> bool:
        return element in self.router.shard_for(element).elements

    def read_stamp(self) -> Tuple[int, int]:
        """``(epoch, lsn)`` for the LSN-versioned result cache.

        The epoch folds the router's topology epoch together with every
        replicated shard's failover epoch — a split, merge, *or* any
        shard-level promotion/rebuild invalidates cached answers
        unconditionally.  The LSN is the summed applied LSN across
        shards: monotone under updates within an epoch, so the cache's
        staleness budget counts exactly the cluster-wide records a
        cached answer is behind.
        """
        epoch = self.router.epoch
        lsn = 0
        for name in self.router.map.shard_names:
            backend = self.router.shards[name].backend
            if isinstance(backend, ReplicaSet):
                shard_epoch, shard_lsn = backend.read_stamp()
                epoch += shard_epoch
                lsn += shard_lsn
            else:
                lsn += backend.applied_lsn
        return (epoch, lsn)

    @property
    def last_partial(self) -> bool:
        """Whether *this thread's* latest query served a partial answer.

        Thread-local on purpose: parallel batch workers run whole
        queries concurrently, and a shared flag would let one worker's
        partial answer masquerade as another's.  Cross-thread totals
        live in :attr:`ShardingStats.partial_answers`.
        """
        return getattr(self._query_local, "last_partial", False)

    @last_partial.setter
    def last_partial(self, value: bool) -> None:
        self._query_local.last_partial = value

    def query(
        self, predicate: Predicate, k: int, allow_partial: Optional[bool] = None
    ) -> List[Element]:
        """Exact top-k via pruned scatter-gather (module docstring)."""
        with self._stats_lock:
            self.stats.queries += 1
        self.last_partial = False
        if k <= 0:
            return []
        partial_ok = self.allow_partial if allow_partial is None else allow_partial
        result = self.executor.scatter_gather(
            predicate, k, stats=self.stats, partial_ok=partial_ok
        )
        self.last_partial = result.partial
        return result.answer

    def _probe_backend(
        self, shard: Shard, predicate: Predicate, k: int, trace: ProbeTrace
    ) -> Optional[List[Element]]:
        """One fault-handled backend probe (the executor's callback).

        The shard-loss ladder lives here: replica-set shards absorb
        crashes internally (their own failover); a durable shard that
        dies is recovered from disk and re-probed once; an
        unrecoverable shard yields ``None`` (partial) or raises.  The
        partial decision is the *query's own* (``trace.partial_ok``),
        never shared index state — concurrent queries may differ on it.
        """
        for attempt in range(2):
            try:
                with shard.lock:
                    if shard.machine is not None and not shard.machine.alive:
                        raise SimulatedCrash(
                            f"shard {shard.name!r} machine is down"
                        )
                    return self._backend_query(shard, predicate, k)
            except PartitionedError:
                # A link problem, not a machine problem: the shard is
                # fine, we just cannot reach it.  Degrade through the
                # same partial/raise rungs as an unrecoverable shard —
                # but touch no machine state and no recovery path.
                with self._stats_lock:
                    self.stats.unreachable_probes += 1
                if trace.partial_ok:
                    trace.shard_losses += 1
                    return None
                raise ShardUnavailable(
                    f"shard {shard.name!r} is unreachable across a "
                    "partition",
                    shard=shard.name,
                ) from None
            except SimulatedCrash:
                if shard.machine is not None:
                    shard.machine.mark_dead()
                try:
                    with shard.lock:
                        self._recover_shard(shard, trace)
                except ShardUnavailable:
                    if trace.partial_ok:
                        return None
                    raise
            except ReplicaUnavailable:
                # A replica-set shard with every machine gone and no
                # recoverable disk: same terminal rung as above.
                if trace.partial_ok:
                    trace.shard_losses += 1
                    return None
                raise ShardUnavailable(
                    f"shard {shard.name!r}: no replica can serve",
                    shard=shard.name,
                ) from None
        raise ShardUnavailable(
            f"shard {shard.name!r} died again immediately after recovery",
            shard=shard.name,
        )

    def _backend_query(
        self, shard: Shard, predicate: Predicate, k: int
    ) -> List[Element]:
        """One backend probe, over the fabric when one is attached.

        The envelope's idempotency key is reused across the retry after
        an indeterminate transport verdict: a probe is a read, so a
        duplicate execution is harmless, and the shared key lets the
        receiver's dedupe cache answer for a delivery that *did* land.
        Endpoints register lazily (by shard name, resolved at receive
        time) so shards born from online splits are reachable without
        any coordination.
        """
        if self.fabric is None:
            return shard.backend.query(predicate, k)
        self.fabric.register(shard.name, self._probe_receive)
        with self._stats_lock:
            self._probe_serial += 1
            serial = self._probe_serial
        key = ("probe", self.coordinator, shard.name, serial)
        for attempt in range(2):
            try:
                return self.fabric.send(
                    self.coordinator,
                    shard.name,
                    MSG_PROBE,
                    (predicate, k),
                    key=key,
                )
            except PartitionedError as exc:
                if exc.indeterminate and attempt == 0:
                    continue
                raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _probe_receive(self, message: Message) -> List[Element]:
        """Fabric endpoint handler: resolve the shard *now* and probe it."""
        shard = self.router.shards.get(message.dst)
        if shard is None:
            raise ShardUnavailable(
                f"no shard named {message.dst!r}", shard=message.dst
            )
        predicate, k = message.payload
        return shard.backend.query(predicate, k)

    # ------------------------------------------------------------------
    # Batched / parallel execution
    # ------------------------------------------------------------------
    @contextmanager
    def _batch_windows(self):
        """Open every shard reduction's probe-memo window for a batch.

        Memo mutations happen under each shard's lock (all probes do),
        so parallel workers share the windows safely.  Backends without
        a ``batched`` hook (or whose inner lacks one) just skip it.
        """
        with ExitStack() as stack:
            for shard in self.router.shards.values():
                target = getattr(shard.backend, "inner", shard.backend)
                window = getattr(target, "batched", None)
                if window is not None:
                    stack.enter_context(window())
            yield

    def batch_groups(
        self,
        groups: Sequence[Tuple[Predicate, int]],
        pool=None,
        parallel_threshold: int = 4,
        allow_partial: Optional[bool] = None,
    ) -> List[List[Element]]:
        """One full answer per ``(predicate, max_k)`` group, in order.

        With a thread pool and enough groups, the groups are
        partitioned round-robin across workers and each worker runs
        whole scatter-gathers — per-shard locks keep every machine
        single-threaded, and the per-shard memo windows stay open for
        the whole batch so repeated sub-probes are shared across
        workers too.  ``allow_partial`` is the per-call override the
        brownout ladder's partial rung passes through to every
        scatter-gather of the batch (``None`` keeps the index default).
        """
        pairs = list(groups)
        with self._batch_windows():
            if pool is None or len(pairs) < max(1, parallel_threshold):
                return [self.query(p, k, allow_partial=allow_partial)
                        for p, k in pairs]
            width = getattr(pool, "_max_workers", 4)
            partitions: List[List[Tuple[int, Predicate, int]]] = [
                [] for _ in range(max(1, width))
            ]
            for index, (predicate, k) in enumerate(pairs):
                partitions[index % len(partitions)].append((index, predicate, k))
            with self._stats_lock:
                self.stats.parallel_batches += 1
            futures = [
                pool.submit(self._run_partition, partition, allow_partial)
                for partition in partitions
                if partition
            ]
            answers: List[Optional[List[Element]]] = [None] * len(pairs)
            for future in futures:
                for index, answer in future.result():
                    answers[index] = answer
            return answers  # type: ignore[return-value]

    def _run_partition(self, partition, allow_partial: Optional[bool] = None):
        """Worker body: sequential scatter-gathers over one partition."""
        return [
            (index, self.query(p, k, allow_partial=allow_partial))
            for index, p, k in partition
        ]

    # ------------------------------------------------------------------
    # Updates (route, WAL-first on the shard, idempotent retry)
    # ------------------------------------------------------------------
    def insert(self, element: Element) -> None:
        if element.weight in self._weights:
            raise ContractViolation(
                f"insert of weight {element.weight!r} duplicates an indexed "
                "weight; the scatter-gather rank merge needs globally "
                "distinct weights — pre-process with ensure_distinct_weights()"
            )
        shard = self.router.shard_for(element)
        self._update(shard, "insert", element)
        with self._stats_lock:
            self.stats.inserts += 1
        self._weights.add(element.weight)
        shard.add_member(element, self.max_factory)

    def delete(self, element: Element) -> None:
        shard = self.router.shard_for(element)
        self._update(shard, "delete", element)
        with self._stats_lock:
            self.stats.deletes += 1
        self._weights.discard(element.weight)
        shard.drop_member(element, self.max_factory)

    def _update(self, shard: Shard, op: str, element: Element) -> None:
        """Apply one op on the shard's machine, surviving its death.

        Mirrors :meth:`ReplicaSet._update`: a crash mid-op recovers the
        machine from its disk, then a membership check decides whether
        the record committed before the crash (retry must be
        idempotent — WAL-first means the op may be durable even though
        the acknowledgement never arrived).
        """
        retrying = False
        while True:
            try:
                with shard.lock:
                    if shard.machine is not None and not shard.machine.alive:
                        raise SimulatedCrash(f"shard {shard.name!r} machine is down")
                    if retrying and self._already_applied(shard, op, element):
                        return
                    if op == "insert":
                        shard.backend.insert(element)
                    else:
                        shard.backend.delete(element)
                return
            except SimulatedCrash:
                if shard.machine is not None:
                    shard.machine.mark_dead()
                with shard.lock:
                    self._recover_shard(shard)
                retrying = True
            except TransientIOError:
                retrying = True

    @staticmethod
    def _already_applied(shard: Shard, op: str, element: Element) -> bool:
        inner = getattr(shard.backend, "inner", None)
        if inner is None or not hasattr(type(inner), "__contains__"):
            return False
        present = element in inner
        return present if op == "insert" else not present

    # ------------------------------------------------------------------
    # Online splits / merges / rebalancing
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Checkpoint every shard (crash-recovering as needed)."""
        for name in self.router.map.shard_names:
            self._checkpoint_shard(self.router.shards[name])

    def _checkpoint_shard(self, shard: Shard) -> None:
        while True:
            try:
                with shard.lock:
                    if shard.machine is not None and not shard.machine.alive:
                        raise SimulatedCrash(f"shard {shard.name!r} machine is down")
                    shard.backend.checkpoint()
                return
            except SimulatedCrash:
                if shard.machine is not None:
                    shard.machine.mark_dead()
                with shard.lock:
                    self._recover_shard(shard)

    def splittable_shard(self) -> Optional[str]:
        """The largest shard that can still split (>= 2 buckets), or None.

        The scale-out planner asks this before reaching for the
        ``split_shard`` lever: a topology whose hottest shards are all
        down to single buckets has exhausted horizontal splits.
        """
        sizes = self.router.shard_sizes()
        for name in sorted(sizes, key=lambda s: (-sizes[s], s)):
            if len(self.router.shards[name].buckets) >= 2:
                return name
        return None

    def split_shard(self, name: Optional[str] = None) -> Tuple[str, str]:
        """Split one (default: the largest) shard in two, online.

        Follows the WAL-protected protocol in the module docstring.
        Returns ``(donor, new_shard)``.

        Failure atomicity: a failure *before* the recipient is built
        aborts with routes unchanged (the window's entry epoch bump
        already retries overlapping queries).  Once the recipient
        exists it durably holds every moving element, so a donor whose
        disk proves unrecoverable during the handover deletes no longer
        blocks the split: the new map is installed anyway — moving
        elements stay reachable on the recipient, the dead donor
        degrades through the ordinary shard-loss ladder — and the
        :class:`ShardUnavailable` is re-raised to surface the loss.
        """
        if name is None:
            sizes = self.router.shard_sizes()
            name = max(sorted(sizes), key=lambda s: sizes[s])
        shard = self.router.shards[name]
        if len(shard.buckets) < 2:
            raise InvalidConfiguration(
                f"shard {name!r} owns a single bucket and cannot split"
            )
        donor_lost: Optional[ShardUnavailable] = None
        # 1. Epoch bump + in-flux latch: overlapping queries retry, new
        #    ones block until the final map is published (or we abort).
        with self.router.topology_change():
            # 2. Durable baseline of the donor.
            self._checkpoint_shard(shard)
            # 3. Choose the moving half: upper buckets by cumulative
            #    count (keeps ranges contiguous under the weight-aware
            #    strategy).
            moving_buckets = self._moving_half(shard)
            moving_set = set(moving_buckets)
            bucket_of = self.router.partitioner.bucket_of
            moving = [e for e in shard.elements if bucket_of(e) in moving_set]
            # 4. Recipient machine, durable from birth — built before
            #    anything leaves the donor (the atomicity pivot).
            new_name = f"shard-{self._next_shard_id}"
            self._next_shard_id += 1
            new_shard = self._make_shard(new_name, moving, moving_buckets)
            # 5. WAL-deleted handover from the donor (crash =>
            #    recover+resume; unrecoverable => publish anyway).
            try:
                for element in moving:
                    self._update(shard, "delete", element)
            except ShardUnavailable as exc:
                donor_lost = exc
            with shard.lock:
                for element in moving:
                    shard.elements.pop(element, None)
                shard.buckets -= moving_set
                shard.max_index = self.max_factory(list(shard.elements))
            # 6. Publish the new topology (releases the latch).
            self.router.install(
                self.router.map.moved(moving_buckets, new_name), add=new_shard
            )
        with self._stats_lock:
            self.stats.splits += 1
        if donor_lost is not None:
            raise donor_lost
        return (name, new_name)

    def _moving_half(self, shard: Shard) -> List[int]:
        """The donor's upper buckets holding ~half its elements."""
        bucket_of = self.router.partitioner.bucket_of
        counts: Dict[int, int] = {b: 0 for b in shard.buckets}
        for element in shard.elements:
            counts[bucket_of(element)] += 1
        ordered = sorted(shard.buckets)
        half = shard.n / 2
        moving: List[int] = []
        carried = 0
        for bucket in reversed(ordered):
            if len(moving) >= len(ordered) - 1:
                break  # the donor keeps at least one bucket
            moving.append(bucket)
            carried += counts[bucket]
            if carried >= half:
                break
        return sorted(moving)

    def merge_shards(self, survivor_name: str, donor_name: str) -> str:
        """Fold ``donor`` into ``survivor`` and retire its machine.

        Runs inside the same in-flux window as a split, so no query
        ever sees an element on both machines: the duplicate interval
        (inserted into the survivor, not yet dropped from the map's
        donor routes) is invisible — snapshots block until the final
        map, which retires the donor, is installed.  A survivor that
        proves unrecoverable mid-insert aborts the merge wholesale:
        routes are unchanged, the donor still serves its slice, and the
        dead survivor degrades through the shard-loss ladder.
        """
        if survivor_name == donor_name:
            raise InvalidConfiguration("cannot merge a shard into itself")
        survivor = self.router.shards[survivor_name]
        donor = self.router.shards[donor_name]
        with self.router.topology_change():
            self._checkpoint_shard(survivor)
            self._checkpoint_shard(donor)
            incoming = list(donor.elements)
            for element in incoming:
                self._update(survivor, "insert", element)
            with survivor.lock:
                for element in incoming:
                    survivor.elements[element] = None
                survivor.buckets |= donor.buckets
                survivor.max_index = self.max_factory(list(survivor.elements))
            self.router.install(
                self.router.map.moved(sorted(donor.buckets), survivor_name),
                retire=donor_name,
            )
        with self._stats_lock:
            self.stats.merges += 1
        return survivor_name

    def rebalance(self, max_ratio: float = 2.0, max_actions: int = 4) -> List[Tuple[str, str]]:
        """Split hot shards until none exceeds ``max_ratio`` x the mean.

        Returns the ``(donor, new_shard)`` pairs performed.  Bounded by
        ``max_actions`` so a pathological distribution cannot split
        forever in one call.
        """
        actions: List[Tuple[str, str]] = []
        for _ in range(max_actions):
            sizes = self.router.shard_sizes()
            total = sum(sizes.values())
            if not total:
                break
            mean = total / len(sizes)
            hot = max(sorted(sizes), key=lambda s: sizes[s])
            if sizes[hot] <= max_ratio * mean:
                break
            if len(self.router.shards[hot].buckets) < 2:
                break
            actions.append(self.split_shard(hot))
        if actions:
            with self._stats_lock:
                self.stats.rebalances += 1
        return actions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedTopKIndex(shards={self.router.num_shards}, n={self.n}, "
            f"epoch={self.router.epoch})"
        )


def sharded_index(
    elements: Sequence[Element],
    prioritized_factory,
    max_factory,
    num_shards: int = 4,
    strategy: str = "hash",
    seed: int = 0,
    B: int = 2,
    store_B: int = 16,
    replicas_per_shard: int = 1,
    **kwargs,
) -> ShardedTopKIndex:
    """A :class:`ShardedTopKIndex` over canonical Theorem 2 shards.

    Each shard's slice is indexed by an
    :class:`~repro.core.theorem2.ExpectedTopKIndex` with a pinned seed
    (deterministic rebuilds, bit-for-bit replicas when
    ``replicas_per_shard > 1``); the coordinator's pruning summaries
    come from ``max_factory``.  ``B`` is the reduction's block size,
    ``store_B`` the durable stores'.
    """
    from repro.core.theorem2 import ExpectedTopKIndex

    def build_fn(elems: List[Element]) -> ExpectedTopKIndex:
        return ExpectedTopKIndex(
            elems, prioritized_factory, max_factory, B=B, seed=seed
        )

    def restore_fn(state: dict) -> ExpectedTopKIndex:
        return ExpectedTopKIndex.restore(state, prioritized_factory, max_factory)

    return ShardedTopKIndex(
        elements,
        build_fn,
        restore_fn,
        max_factory,
        num_shards=num_shards,
        strategy=strategy,
        seed=seed,
        B=store_B,
        replicas_per_shard=replicas_per_shard,
        **kwargs,
    )


__all__ = ["ShardedTopKIndex", "ShardingStats", "sharded_index"]
