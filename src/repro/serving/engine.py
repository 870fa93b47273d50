"""`ServingEngine`: the high-throughput front door of a top-k service.

Three amortisation layers stack in front of any backend index
(canonically a :class:`~repro.replication.cluster.ReplicaSet`; any
:class:`~repro.core.interfaces.TopKIndex` works):

1. an **LSN-versioned result cache**
   (:class:`~repro.serving.cache.ResultCache`) — answers are stamped
   with the backend's ``(commit_epoch, applied LSN)`` read stamp at
   batch-plan time and served again only within the configured
   staleness bound (and never across a failover epoch), so repeated
   hot queries cost one dict probe;
2. **batched execution** (:mod:`repro.serving.batch`) — cache misses
   are grouped by predicate and answered with one traversal per group
   at the group's largest ``k``, smaller members sliced off as
   prefixes;
3. **sharded fan-out** — when the backend is a
   :class:`~repro.sharding.sharded.ShardedTopKIndex`, the batch's
   groups are partitioned round-robin across a thread pool and each
   worker runs whole scatter-gathers
   (:meth:`~repro.sharding.sharded.ShardedTopKIndex.batch_groups`).
   Any other backend answers each group with one
   ``backend.query(predicate, k, **read_kwargs)`` on the coordinating
   thread (inside the backend's ``batched()`` memo window, if it has
   one) — for a replica set that is
   :meth:`~repro.replication.cluster.ReplicaSet.query`, which owns the
   read mode, the staleness bound, the lease proof of primary reads,
   and failover.

Admission control is **deadline-aware**, not merely bounded:
:meth:`submit` sheds (raising
:class:`~repro.resilience.errors.AdmissionRejected`, with queue state
and a ``retry_after`` hint) both when the pending queue is at
``max_pending`` and when a caller-supplied deadline can no longer be
met given the queue's estimated wait — a request doomed to time out is
turned away *before* it occupies queue capacity and server time.
Under sustained queue growth a
:class:`~repro.serving.brownout.BrownoutController` additionally
climbs the brownout ladder (widened cache staleness → capped ``k`` →
partial sharded answers), trading flagged answer quality for capacity
before any shedding is needed; every truncated or potentially-partial
answer is flagged in :attr:`last_drain_meta`.

Metrics (QPS, per-query latency, sheds, parallel batches) are kept
once, in :class:`ServingStats` (``engine.stats``); the hit rate lives
in the cache's own stats (``engine.cache.stats``) and the brownout rung
on the controller (``engine.brownout``).  The backend's counters stay
on the backend (``cluster.stats``, ``sharded.stats``), and
:class:`~repro.ops.telemetry.TelemetryCollector` reads each from its
owner.

Concurrency contract: one coordinator thread drains; :meth:`submit`
may be called from any number of client threads concurrently (the
admission queue and every :class:`ServingStats` mutation are
lock-protected), and only a sharded backend's scatter-gathers fan out
(per-shard locks keep every machine single-threaded).
Updates go directly to the backend between drains (the stamp read at
batch start is the serving snapshot; anything committed after it is
picked up by the next batch's stamp).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.interfaces import TopKIndex
from repro.core.problem import Element, Predicate
from repro.serving.batch import (
    BatchGroup,
    QueryRequest,
    plan_batch,
    predicate_key,
)
from repro.serving.brownout import BrownoutController, BrownoutPolicy
from repro.serving.cache import ResultCache
from repro.resilience.errors import AdmissionRejected, InvalidConfiguration


@dataclass
class ServingStats:
    """Everything the engine did, in counters.

    All mutations happen under :attr:`lock` (the same pattern as
    :class:`~repro.resilience.guard.HealthSummary` and
    :class:`~repro.sharding.sharded.ShardingStats`): :meth:`submit`
    runs on client threads while :meth:`drain` accounts on the
    coordinator, and unsynchronized ``+= 1`` increments would drop
    sheds under concurrent submitters.
    """

    queries: int = 0             # requests answered (cache hits included)
    batches: int = 0
    traversals: int = 0          # backend queries actually executed
    shared_answers: int = 0      # requests served by another member's traversal
    load_sheds: int = 0          # total sheds (queue_sheds + deadline_sheds)
    queue_sheds: int = 0         # shed because the pending queue was full
    deadline_sheds: int = 0      # shed because the deadline was unmeetable
    reduced_k_answers: int = 0   # answers truncated by the brownout k cap
    partial_served: int = 0      # answers flagged partial-suspect (shard loss)
    parallel_batches: int = 0    # batches fanned out across the pool (sharded)
    busy_seconds: float = 0.0    # wall time spent inside drain()
    max_latency_seconds: float = 0.0  # slowest single drain, amortised per query
    _started: float = field(default_factory=time.perf_counter, repr=False)

    def __post_init__(self) -> None:
        # Not a dataclass field: asdict()/fields() stay pickleable and
        # field-only (the HealthSummary convention).
        self._lock = threading.Lock()

    @property
    def lock(self) -> threading.Lock:
        """The mutation lock; every ``stats.x += 1`` site holds it."""
        return self._lock

    @property
    def avg_latency_seconds(self) -> float:
        """Mean per-query serving time (batch wall time amortised)."""
        return self.busy_seconds / self.queries if self.queries else 0.0

    @property
    def qps(self) -> float:
        """Requests per second of busy serving time."""
        return self.queries / self.busy_seconds if self.busy_seconds > 0 else 0.0


@dataclass(frozen=True)
class ServedMeta:
    """Quality flags for one drained answer (request order).

    ``reduced_k`` — the brownout k cap truncated this answer below the
    requested ``k`` (the prefix served is still exact).
    ``partial_suspect`` — the answer was computed in a drain batch that
    served at the partial brownout rung *and* recorded at least one
    partial scatter-gather; the answer may be missing a lost shard's
    elements.  Conservative: every cache-missing answer of such a batch
    is flagged.
    ``brownout_level`` — the ladder rung the drain served at.
    """

    reduced_k: bool = False
    partial_suspect: bool = False
    brownout_level: int = 0

    @property
    def degraded(self) -> bool:
        return self.reduced_k or self.partial_suspect


class ServingEngine(TopKIndex):
    """Batching + caching + sharded fan-out over one backend index.

    Parameters
    ----------
    backend:
        The index being served.  A
        :class:`~repro.sharding.sharded.ShardedTopKIndex` unlocks the
        parallel fan-out; a
        :class:`~repro.durability.durable.DurableTopKIndex` (or anything
        with a ``read_stamp()`` / ``applied_lsn``, such as a
        :class:`~repro.replication.cluster.ReplicaSet`) unlocks
        LSN-stamped caching.  A backend with neither still batches, but
        the cache stays disabled — without an LSN source a cached
        answer could never be invalidated by an update.
    cache_capacity / max_staleness:
        Result-cache size (0 disables) and the LSN staleness budget a
        cached answer may carry, mirroring the replication read modes.
    max_batch:
        Largest batch :meth:`drain` hands to one execution round.
    max_pending:
        Admission bound: :meth:`submit` beyond this sheds.
    pool_size / parallel_threshold:
        Fan-out thread pool width for a sharded backend (0 disables;
        other backends never get a pool) and the minimum number of
        distinct groups before fanning out is worth the overhead.
    read_kwargs:
        Extra keyword arguments for every backend query of a
        non-sharded backend (e.g. ``mode="primary"`` for a replica-set
        backend).
    brownout:
        ``None`` (disabled), a :class:`BrownoutPolicy`, or a
        pre-built :class:`BrownoutController`.  When set, every
        :meth:`drain` feeds the pre-drain queue depth to the controller
        and serves at the resulting rung.
    service_ewma_alpha:
        Smoothing factor of the per-request service-time estimate that
        deadline admission projects queue waits from.  The estimate is
        learned from measured drain wall time, or pinned explicitly via
        :meth:`note_service_time` by virtual-time drivers.
    """

    def __init__(
        self,
        backend: TopKIndex,
        cache_capacity: int = 1024,
        max_staleness: int = 0,
        max_batch: int = 64,
        max_pending: int = 4096,
        pool_size: int = 4,
        parallel_threshold: int = 4,
        read_kwargs: Optional[dict] = None,
        brownout=None,
        service_ewma_alpha: float = 0.3,
    ) -> None:
        if max_batch < 1:
            raise InvalidConfiguration(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise InvalidConfiguration(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if max_staleness < 0:
            raise InvalidConfiguration(
                f"max_staleness must be >= 0, got {max_staleness}"
            )
        if not 0.0 < service_ewma_alpha <= 1.0:
            raise InvalidConfiguration(
                f"service_ewma_alpha must be in (0, 1], got {service_ewma_alpha}"
            )
        self.backend = backend
        self.max_staleness = max_staleness
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.parallel_threshold = max(1, parallel_threshold)
        self.read_kwargs = dict(read_kwargs) if read_kwargs else {}
        self.cache = ResultCache(cache_capacity if self._has_stamp() else 0)
        self.stats = ServingStats()
        if brownout is None:
            self.brownout: Optional[BrownoutController] = None
        elif isinstance(brownout, BrownoutController):
            self.brownout = brownout
        elif isinstance(brownout, BrownoutPolicy):
            self.brownout = BrownoutController(brownout)
        else:
            raise InvalidConfiguration(
                "brownout must be None, a BrownoutPolicy, or a "
                f"BrownoutController, got {type(brownout).__name__}"
            )
        #: EWMA estimate of per-request service time, in the caller's
        #: clock units (seconds when learned from wall time; whatever
        #: :meth:`note_service_time` was fed otherwise).
        self.service_estimate = 0.0
        self.service_ewma_alpha = service_ewma_alpha
        self._estimate_pinned = False
        #: :class:`ServedMeta` per answer of the most recent drain.
        self.last_drain_meta: List[ServedMeta] = []
        self._admit_lock = threading.Lock()
        self._pending: List[QueryRequest] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_size = max(0, pool_size)
        from repro.sharding.sharded import ShardedTopKIndex

        self._sharded = backend if isinstance(backend, ShardedTopKIndex) else None
        if self._sharded is not None and self._pool_size > 0:
            self._pool = ThreadPoolExecutor(
                max_workers=self._pool_size,
                thread_name_prefix="repro-serving",
            )

    # ------------------------------------------------------------------
    def _has_stamp(self) -> bool:
        return (
            hasattr(self.backend, "read_stamp")
            or hasattr(self.backend, "applied_lsn")
        )

    def _read_stamp(self) -> Tuple[int, int]:
        """The backend's current ``(commit_epoch, applied LSN)``."""
        stamp = getattr(self.backend, "read_stamp", None)
        if stamp is not None:
            return stamp()
        return (0, getattr(self.backend, "applied_lsn", 0))

    def close(self) -> None:
        """Shut the fan-out pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # TopKIndex surface
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.backend.n

    @property
    def pending(self) -> int:
        return len(self._pending)

    def query(self, predicate: Predicate, k: int) -> List[Element]:
        """One request through the full cache + batch path."""
        return self.serve([QueryRequest(predicate, k)])[0]

    def flush_cache(self) -> int:
        """Drop every cached answer (operator lever for suspected staleness).

        The cache's epoch/LSN stamps already make it stale-*safe*; this
        lever is for the residual suspicion the stamps cannot see —
        failed contract spot-checks, a backend whose state digest
        drifted — where serving only freshly-computed answers is the
        conservative play.  Returns the number of entries dropped.
        """
        return self.cache.invalidate()

    # ------------------------------------------------------------------
    # Admission / drain
    # ------------------------------------------------------------------
    def submit(
        self,
        predicate: Predicate,
        k: int,
        deadline: Optional[float] = None,
        now: Optional[float] = None,
    ) -> int:
        """Enqueue one request; returns its position in the next drain.

        Raises :class:`AdmissionRejected` (and counts a shed) in two
        cases — the engine never queues unboundedly and never queues a
        request it already knows it will fail:

        * the pending queue is at ``max_pending``
          (``reason="queue_full"``);
        * ``deadline`` is given and the projected completion time —
          ``now`` plus the estimated queue wait at the current service
          estimate — already exceeds it (``reason="deadline"``).

        ``deadline``/``now`` share one clock: wall seconds by default
        (``now`` falls back to ``time.perf_counter()``), or any virtual
        clock when the driver also pins the service estimate via
        :meth:`note_service_time`.  Thread-safe: any number of client
        threads may submit concurrently with each other and with one
        draining coordinator.
        """
        estimate = self.service_estimate
        with self._admit_lock:
            depth = len(self._pending)
            if depth >= self.max_pending:
                shed_reason = AdmissionRejected.REASON_QUEUE_FULL
                retry_after = estimate * depth
            elif deadline is not None and estimate > 0.0:
                at = now if now is not None else time.perf_counter()
                projected = at + (depth + 1) * estimate
                if projected > deadline:
                    shed_reason = AdmissionRejected.REASON_DEADLINE
                    retry_after = projected - deadline
                else:
                    self._pending.append(QueryRequest(predicate, k))
                    return depth
            else:
                self._pending.append(QueryRequest(predicate, k))
                return depth
        with self.stats.lock:
            self.stats.load_sheds += 1
            if shed_reason == AdmissionRejected.REASON_QUEUE_FULL:
                self.stats.queue_sheds += 1
            else:
                self.stats.deadline_sheds += 1
        if shed_reason == AdmissionRejected.REASON_QUEUE_FULL:
            message = f"pending queue full ({self.max_pending}); query shed"
        else:
            message = (
                f"deadline unmeetable ({depth} queued at ~{estimate:.3g}/req)"
                "; query shed"
            )
        raise AdmissionRejected(
            message,
            pending=depth,
            max_pending=self.max_pending,
            retry_after=retry_after,
            reason=shed_reason,
        )

    def note_service_time(self, per_request: float) -> None:
        """Pin the per-request service estimate (virtual-time drivers).

        Wall-clock deployments never need this — :meth:`drain` learns
        the estimate from measured elapsed time.  Drivers that run on a
        counted clock (the loadgen harness) feed their model's service
        time here so deadline admission projects in the same units as
        the deadlines it is shown.
        """
        if per_request < 0:
            raise InvalidConfiguration(
                f"per_request must be >= 0, got {per_request}"
            )
        self.service_estimate = per_request
        self._estimate_pinned = True

    def drain(self, limit: Optional[int] = None) -> List[List[Element]]:
        """Answer pending requests, oldest first, in submission order.

        With ``limit`` set, at most that many requests are taken; the
        rest stay queued (real servers have finite per-tick capacity —
        this is what lets queues, and therefore queue-depth telemetry
        and deadline sheds, actually build under open-loop load).
        The pre-drain queue depth is fed to the brownout controller,
        and :attr:`last_drain_meta` is rebuilt with one
        :class:`ServedMeta` per returned answer.
        """
        with self._admit_lock:
            depth = len(self._pending)
            if limit is None or limit >= depth:
                requests, self._pending = self._pending, []
            else:
                requests = self._pending[:limit]
                self._pending = self._pending[limit:]
        if self.brownout is not None:
            self.brownout.observe(depth)
        self.last_drain_meta = []
        answers: List[List[Element]] = []
        for start in range(0, len(requests), self.max_batch):
            answers.extend(self._execute(requests[start:start + self.max_batch]))
        return answers

    def serve(self, requests: Sequence) -> List[List[Element]]:
        """Submit-and-drain convenience for an already-collected batch.

        Accepts :class:`QueryRequest` objects or ``(predicate, k)``
        pairs interchangeably.
        """
        for request in requests:
            if isinstance(request, QueryRequest):
                self.submit(request.predicate, request.k)
            else:
                predicate, k = request
                self.submit(predicate, k)
        return self.drain()

    # ------------------------------------------------------------------
    # One batch
    # ------------------------------------------------------------------
    def _execute(self, requests: Sequence[QueryRequest]) -> List[List[Element]]:
        if not requests:
            return []
        began = time.perf_counter()
        brownout = self.brownout
        level = brownout.level if brownout is not None else 0
        staleness = (
            brownout.effective_staleness(self.max_staleness)
            if brownout is not None
            else self.max_staleness
        )
        epoch, lsn = self._read_stamp()
        answers: List[Optional[List[Element]]] = [None] * len(requests)
        # Effective (possibly brownout-capped) k per request, in order.
        capped: List[int] = [
            brownout.effective_k(request.k) if brownout is not None else request.k
            for request in requests
        ]
        misses: List[Tuple[int, QueryRequest]] = []
        for position, request in enumerate(requests):
            if self.cache.enabled:
                cached = self.cache.get(
                    predicate_key(request.predicate), capped[position],
                    epoch, lsn, staleness,
                )
                if cached is not None:
                    answers[position] = cached
                    continue
            misses.append((position, request))
        partial_before = (
            self._sharded.stats.partial_answers
            if self._sharded is not None
            else 0
        )
        plan = None
        if misses:
            plan = plan_batch([
                QueryRequest(request.predicate, capped[position])
                for position, request in misses
            ])
            full_by_group = self._dispatch(plan.groups)
            batch_partial = (
                self._sharded is not None
                and self._sharded.stats.partial_answers > partial_before
            )
            for group, full in zip(plan.groups, full_by_group):
                if not batch_partial:
                    # Never cache an answer that may be missing a lost
                    # shard's elements: partial-suspect batches serve
                    # but do not populate.
                    self.cache.put(group.key, group.max_k, full, epoch, lsn)
                for member_position, k in group.members:
                    answers[misses[member_position][0]] = full[:k]
        else:
            batch_partial = False
        partial_positions = (
            {position for position, _ in misses} if batch_partial else set()
        )
        metas: List[ServedMeta] = []
        reduced = 0
        for position, request in enumerate(requests):
            answer = answers[position]
            reduced_k = (
                request.k > capped[position]
                and answer is not None
                and len(answer) == capped[position]
            )
            if reduced_k:
                reduced += 1
            metas.append(ServedMeta(
                reduced_k=reduced_k,
                partial_suspect=position in partial_positions,
                brownout_level=level,
            ))
        self.last_drain_meta.extend(metas)
        elapsed = time.perf_counter() - began
        per_query = elapsed / len(requests)
        with self.stats.lock:
            self.stats.batches += 1
            self.stats.queries += len(requests)
            if plan is not None:
                self.stats.traversals += plan.traversals
                self.stats.shared_answers += plan.shared
            self.stats.reduced_k_answers += reduced
            self.stats.partial_served += len(partial_positions)
            self.stats.busy_seconds += elapsed
            if per_query > self.stats.max_latency_seconds:
                self.stats.max_latency_seconds = per_query
        if brownout is not None:
            brownout.stats.reduced_k_answers += reduced
            brownout.stats.partial_answers += len(partial_positions)
        if elapsed > 0 and not self._estimate_pinned:
            alpha = self.service_ewma_alpha
            if self.service_estimate > 0:
                self.service_estimate += alpha * (per_query - self.service_estimate)
            else:
                self.service_estimate = per_query
        return answers  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Dispatch: fanned out by a sharded backend, or serial
    # ------------------------------------------------------------------
    def _dispatch(self, groups: List[BatchGroup]) -> List[List[Element]]:
        """One full answer per group, in group order."""
        if self._sharded is not None:
            # A sharded backend owns its own fan-out: groups are
            # partitioned across the pool's workers and each worker
            # runs whole scatter-gathers (per-shard locks serialize
            # machine access), with every shard's probe-memo window
            # open for the batch's duration.
            if self._pool is not None and len(groups) >= self.parallel_threshold:
                with self.stats.lock:
                    self.stats.parallel_batches += 1
            return self._sharded.batch_groups(
                [(g.predicate, g.max_k) for g in groups],
                pool=self._pool,
                parallel_threshold=self.parallel_threshold,
                allow_partial=(
                    self.brownout is not None and self.brownout.partial_ok
                ),
            )
        window = getattr(self.backend, "batched", None)
        if window is not None:
            # A raw reduction backend: share its memoized sub-probes
            # across the whole batch, not just within one group.
            with window():
                return [self._query_backend(g.predicate, g.max_k) for g in groups]
        return [self._query_backend(g.predicate, g.max_k) for g in groups]

    def _query_backend(self, predicate: Predicate, k: int) -> List[Element]:
        return self.backend.query(predicate, k, **self.read_kwargs)


def serving_engine(
    elements,
    prioritized_factory,
    max_factory,
    num_replicas: int = 3,
    seed: int = 0,
    **engine_kwargs,
):
    """A :class:`ServingEngine` over a canonical replicated Theorem 2 set."""
    from repro.replication.cluster import replicated_index

    cluster = replicated_index(
        elements, prioritized_factory, max_factory,
        num_replicas=num_replicas, seed=seed,
    )
    return ServingEngine(cluster, **engine_kwargs)


__all__ = ["ServedMeta", "ServingEngine", "ServingStats", "serving_engine"]
