"""`ScatterGatherExecutor`: exact distributed top-k with max-probe pruning.

The paper's Lemma 3 / Theorem 2 machinery hands each shard a cheap
**max structure**; the executor turns those into a distributed
threshold algorithm (the classic shape of distributed top-k retrieval,
cf. Shah et al.'s optimal top-k string retrieval and Tao's dynamic
one-dimensional top-k structures):

1. **scatter (bounds)** — probe every shard's max structure once.  A
   shard's answer upper-bounds everything it could contribute; a shard
   with no matching element drops out immediately;
2. **descend with a running threshold** — visit shards in descending
   bound order, maintaining the k-th best weight collected so far.
   The moment the next bound falls to or below the running threshold,
   *every* remaining shard is pruned: their best matching element
   already cannot crack the global top-k (collected k-th only rises as
   more shards report, so the check is safe against the final answer);
3. **one top-k probe per visited shard** — no shard contributes more
   than ``k`` elements, so each visited shard is asked once for its
   top ``k``; a shorter first probe would only leave out elements
   below the running k-th weight, changing neither the contacted set
   nor the answer;
4. **gather** — the per-shard descending runs are k-way merged with
   :func:`merge_topk` (``heapq.merge`` + early cutoff at ``k``: the
   merge stops the moment ``k`` elements are out, instead of
   concatenating and re-selecting).

Exactness argument, in one line: a shard is skipped only when its
*exact* max matching weight is at or below the weight of the current
k-th best collected element, which is itself a lower bound on the
final k-th weight — so nothing skippable can belong to the answer
(weights are distinct, the repo's standing precondition).

Every run pins the router's epoch first and re-validates it after the
gather; a topology change in between (split/merge — the router bumps
the epoch before touching shard contents) discards the run and retries
against the fresh map.  Pinning itself blocks while a change is
mid-window (the router's in-flux latch), so a run can never plan — or
validate — against a map whose shard contents are half-moved.  Shard machine deaths during a probe go through
the owner's shard-loss ladder (replica failover / disk recovery /
partial-with-flag), mirroring the PR-3 story at shard granularity.
"""

from __future__ import annotations

import heapq
import math
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.problem import Element, Predicate
from repro.resilience.errors import StaleShardMap
from repro.sharding.router import MapSnapshot, Shard, ShardRouter


def merge_topk(runs: Sequence[Sequence[Element]], k: int) -> List[Element]:
    """K-way merge of descending-weight runs, cut off at ``k``.

    One ``len(runs)``-sized heap of flat ``(-weight, run, position)``
    tuples streams the runs and stops after ``k`` outputs — ``O(k log
    S)`` comparisons instead of the concatenate-then-``nlargest``
    ``O(T log k)`` over the full ``T`` collected elements, and tuple
    comparisons bottom out on the float weight (weights are distinct)
    rather than a per-element key callable.
    """
    if k <= 0:
        return []
    live = [run for run in runs if run]
    if not live:
        return []
    if len(live) == 1:
        return list(live[0][:k])
    heap = [(-run[0].weight, index, 0) for index, run in enumerate(live)]
    heapq.heapify(heap)
    out: List[Element] = []
    push, pop = heapq.heappush, heapq.heappop
    while heap and len(out) < k:
        _, index, position = pop(heap)
        run = live[index]
        out.append(run[position])
        position += 1
        if position < len(run):
            push(heap, (-run[position].weight, index, position))
    return out


@dataclass
class ProbeTrace:
    """Per-query probe accounting, folded into :class:`ShardingStats`.

    Also carries the query's own ``partial_ok`` decision so the probe
    callback reads per-call state — never shared index state, which
    concurrent queries with different ``allow_partial`` choices would
    race on.
    """

    partial_ok: bool = False  # this query's allow_partial decision
    shard_slots: int = 0      # shards in the map when the query planned
    max_probes: int = 0       # bound probes (one per mapped shard)
    shard_probes: int = 0     # top-k probes actually run
    shards_contacted: int = 0 # distinct shards that saw a top-k probe
    shards_pruned: int = 0    # shards skipped by the threshold
    shards_empty: int = 0     # shards whose bound probe found no match
    shard_losses: int = 0
    shard_recoveries: int = 0
    partial: bool = False     # at least one lost shard was skipped

    def add_to(self, stats) -> None:
        """Fold this trace into cumulative :class:`ShardingStats`."""
        stats.shard_slots += self.shard_slots
        stats.max_probes += self.max_probes
        stats.shard_probes += self.shard_probes
        stats.shards_contacted += self.shards_contacted
        stats.shards_pruned += self.shards_pruned
        stats.shards_empty += self.shards_empty
        stats.shard_losses += self.shard_losses
        stats.shard_recoveries += self.shard_recoveries
        if self.partial:
            stats.partial_answers += 1


class _KthTracker:
    """Running k-th best weight over everything collected so far."""

    __slots__ = ("k", "_heap")

    def __init__(self, k: int) -> None:
        self.k = k
        self._heap: List[float] = []

    def offer(self, weight: float) -> None:
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, weight)
        elif weight > self._heap[0]:
            heapq.heapreplace(self._heap, weight)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.k

    @property
    def threshold(self) -> float:
        """The k-th best collected weight, or ``-inf`` until ``k`` seen."""
        return self._heap[0] if len(self._heap) >= self.k else -math.inf


class ScatterGatherExecutor:
    """Answer ``(q, k)`` across a router's shards (module docstring).

    Parameters
    ----------
    router:
        Source of map snapshots and epoch validation.
    probe_fn:
        ``(shard, predicate, k, trace) -> list | None`` — one fault-
        handled backend probe, supplied by the owning
        :class:`~repro.sharding.sharded.ShardedTopKIndex` (it owns the
        shard-loss ladder).  ``None`` means the shard is lost and the
        query continues partial.
    max_map_retries:
        Scatter-gathers discarded for epoch mismatches before
        :class:`StaleShardMap` escapes.
    """

    def __init__(
        self,
        router: ShardRouter,
        probe_fn: Callable[[Shard, Predicate, int, ProbeTrace], Optional[List[Element]]],
        max_map_retries: int = 4,
    ) -> None:
        self.router = router
        self._probe_fn = probe_fn
        self.max_map_retries = max(1, max_map_retries)
        #: Serializes every mutation of the shared cumulative stats —
        #: the owning index increments its own counters under it too.
        self.stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    def scatter_gather(
        self, predicate: Predicate, k: int, stats=None, partial_ok: bool = False
    ) -> "GatherResult":
        """One exact top-k answer, retried across topology epochs."""
        last_epoch = -1
        for _ in range(self.max_map_retries):
            snapshot = self.router.snapshot()
            last_epoch = snapshot.epoch
            trace = ProbeTrace(
                partial_ok=partial_ok, shard_slots=len(snapshot.shards)
            )
            answer = self._run(snapshot, predicate, k, trace)
            # Valid only if the topology neither moved on (epoch) nor
            # started moving (flux) since the snapshot was pinned.
            if self.router.epoch == snapshot.epoch and not self.router.in_flux:
                if stats is not None:
                    with self.stats_lock:
                        trace.add_to(stats)
                return GatherResult(answer=answer, trace=trace)
            if stats is not None:
                with self.stats_lock:
                    stats.stale_map_retries += 1
                    # Machine deaths are real even in a discarded run.
                    stats.shard_losses += trace.shard_losses
                    stats.shard_recoveries += trace.shard_recoveries
        raise StaleShardMap(
            f"shard map changed under the query {self.max_map_retries} times",
            epoch=last_epoch,
            current=self.router.epoch,
        )

    # ------------------------------------------------------------------
    def _run(
        self,
        snapshot: MapSnapshot,
        predicate: Predicate,
        k: int,
        trace: ProbeTrace,
    ) -> List[Element]:
        # Phase 1: bound every shard with one cheap max probe.
        bounds: List[tuple] = []
        for shard in snapshot.shards:
            trace.max_probes += 1
            top = shard.max_probe(predicate)
            if top is None:
                trace.shards_empty += 1
            else:
                bounds.append((-top.weight, shard.name, shard))
        bounds.sort()  # descending bound; name breaks ties deterministically
        # Phase 2+3: descend, prune at the running threshold, probe top-k.
        kth = _KthTracker(k)
        runs: List[List[Element]] = []
        for visited, (neg_bound, _name, shard) in enumerate(bounds):
            if kth.full and -neg_bound <= kth.threshold:
                trace.shards_pruned += len(bounds) - visited
                break
            items = self._probe_fn(shard, predicate, k, trace)
            if items is None:
                trace.partial = True  # lost shard: the owner opted into partial
                continue
            trace.shard_probes += 1
            trace.shards_contacted += 1
            if items:
                runs.append(items)
                for element in items:
                    kth.offer(element.weight)
        # Phase 4: k-way merge with early cutoff.
        return merge_topk(runs, k)


@dataclass
class GatherResult:
    """One scatter-gather outcome: the exact answer plus its trace."""

    answer: List[Element]
    trace: ProbeTrace

    @property
    def partial(self) -> bool:
        return self.trace.partial


__all__ = [
    "ScatterGatherExecutor",
    "GatherResult",
    "ProbeTrace",
    "merge_topk",
]
