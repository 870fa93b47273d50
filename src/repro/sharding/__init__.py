"""Horizontal sharding: partitioned top-k with exact scatter-gather.

The subsystem splits the indexed set ``D`` across S independent shard
machines and answers ``(q, k)`` with a pruned scatter-gather that is
provably exact (see :mod:`repro.sharding.scatter`):

* :class:`Partitioner` — deterministic element -> virtual-bucket
  placement (seeded hash, or weight-aware range quantiles);
* :class:`ShardRouter` / :class:`ShardMap` — the epoch-stamped
  bucket -> shard assignment, bumped on every split/merge so stale
  routes retry instead of answering wrong;
* :class:`ScatterGatherExecutor` — max-probe bounds, descending-order
  visits with a running k-th-weight threshold, one top-k probe per
  visited shard, and a ``heapq.merge`` gather;
* :class:`ShardedTopKIndex` — the facade: durable/replicated shard
  machines, WAL-protected online splits and merges, the shard-loss
  degradation ladder, and batch fan-out for the serving engine.
"""

from repro.sharding.partitioner import (
    DEFAULT_BUCKETS,
    STRATEGY_HASH,
    STRATEGY_RANGE,
    Partitioner,
)
from repro.sharding.router import MapSnapshot, Shard, ShardMap, ShardRouter
from repro.sharding.scatter import (
    GatherResult,
    ProbeTrace,
    ScatterGatherExecutor,
    merge_topk,
)
from repro.sharding.sharded import ShardedTopKIndex, ShardingStats, sharded_index

__all__ = [
    "Partitioner",
    "STRATEGY_HASH",
    "STRATEGY_RANGE",
    "DEFAULT_BUCKETS",
    "ShardMap",
    "MapSnapshot",
    "Shard",
    "ShardRouter",
    "ScatterGatherExecutor",
    "GatherResult",
    "ProbeTrace",
    "merge_topk",
    "ShardedTopKIndex",
    "ShardingStats",
    "sharded_index",
]
