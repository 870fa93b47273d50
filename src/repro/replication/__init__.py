"""Replicated top-k serving: WAL shipping, failover, anti-entropy.

The replication layer turns the single-machine durability stack into a
replica set of N independent simulated machines:

* :mod:`repro.replication.replica` — one machine (disk + scoped fault
  plan + durable store + index);
* :mod:`repro.replication.cluster` — the :class:`ReplicaSet`:
  synchronous WAL shipping, quorum/primary reads with staleness
  bounds, and the degradation ladder down to
  rebuild-from-durable-record;
* :mod:`repro.replication.failover` — deterministic failure detection
  and promotion by highest durable LSN;
* :mod:`repro.replication.antientropy` — the scrubber: per-replica
  seal walks, cross-replica state digests, snapshot + WAL-tail resync.

A :class:`ReplicaSet` is itself a
:class:`~repro.core.interfaces.TopKIndex`, so it plugs into
:class:`~repro.resilience.guard.ResilientTopKIndex` as a primary
backend.  Replication health stays on the set: promotions, quorum
mismatches and scrub repairs in ``cluster.stats``, per-replica lag
from ``cluster.replica_lag()``.
"""

from repro.replication.antientropy import AntiEntropyScrubber, ScrubReport
from repro.replication.cluster import (
    READ_PRIMARY,
    READ_QUORUM,
    ReplicaSet,
    ReplicationStats,
    replicated_index,
)
from repro.replication.failover import FailoverController, FailoverPolicy
from repro.replication.replica import ROLE_FOLLOWER, ROLE_PRIMARY, Replica

__all__ = [
    "AntiEntropyScrubber",
    "ScrubReport",
    "ReplicaSet",
    "ReplicationStats",
    "replicated_index",
    "READ_PRIMARY",
    "READ_QUORUM",
    "FailoverController",
    "FailoverPolicy",
    "Replica",
    "ROLE_PRIMARY",
    "ROLE_FOLLOWER",
]
