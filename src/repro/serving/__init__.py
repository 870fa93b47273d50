"""High-throughput serving: batching, LSN-versioned caching, fan-out.

The serving layer amortises work across the query *stream* — the axis
the per-query reductions cannot optimise:

* :mod:`repro.serving.batch` — group concurrent requests by predicate
  shape and pay one coreset/level traversal per group (top-k answers
  are prefix-closed, so one ``max_k`` traversal serves every member);
* :mod:`repro.serving.cache` — an LRU of answers stamped with the
  backend's ``(commit_epoch, applied LSN)`` read stamp; repeated hot
  queries are O(1) until an update (or a failover promotion) moves the
  stamp past the configured staleness bound;
* :mod:`repro.serving.engine` — :class:`ServingEngine`: admission
  control (bounded queue + load-shed counting), batch execution, and
  a parallel fan-out of a batch's groups over a
  :class:`~repro.sharding.sharded.ShardedTopKIndex`; a
  :class:`~repro.replication.cluster.ReplicaSet` is read through its
  own ``query``.

The engine is itself a :class:`~repro.core.interfaces.TopKIndex`, so
it stacks under a :class:`~repro.resilience.guard.ResilientTopKIndex`
or serves directly; its metrics (QPS, latency, sheds) live in
``engine.stats``, the hit rate in ``engine.cache.stats``.
"""

from repro.serving.batch import (
    BatchGroup,
    BatchPlan,
    QueryRequest,
    execute_batch,
    plan_batch,
    predicate_key,
)
from repro.serving.brownout import (
    LEVEL_HEALTHY,
    LEVEL_PARTIAL,
    LEVEL_REDUCED_K,
    LEVEL_STALE,
    BrownoutController,
    BrownoutPolicy,
    BrownoutStats,
)
from repro.serving.cache import CacheStats, ResultCache
from repro.serving.engine import (
    ServedMeta,
    ServingEngine,
    ServingStats,
    serving_engine,
)

__all__ = [
    "QueryRequest",
    "BatchGroup",
    "BatchPlan",
    "plan_batch",
    "execute_batch",
    "predicate_key",
    "ResultCache",
    "CacheStats",
    "BrownoutController",
    "BrownoutPolicy",
    "BrownoutStats",
    "LEVEL_HEALTHY",
    "LEVEL_STALE",
    "LEVEL_REDUCED_K",
    "LEVEL_PARTIAL",
    "ServedMeta",
    "ServingEngine",
    "ServingStats",
    "serving_engine",
]
