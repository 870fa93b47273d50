"""Crash-consistent persistence for top-k indexes.

The durability subsystem makes the repository's indexes survive
machine death on the simulated external-memory disk:

* :mod:`~repro.durability.codec` — deterministic encoding of index
  state into primitive disk records;
* :mod:`~repro.durability.store` — :class:`DurableStore`: sealed
  blocks, forward-chained extents, and an append-only root (anchors +
  manifest chain), with block recycling and compaction;
* :mod:`~repro.durability.snapshot` — verified whole-index snapshots;
* :mod:`~repro.durability.wal` — the write-ahead log with group
  commit and torn-tail-safe replay;
* :mod:`~repro.durability.recovery` — the recovery driver and the
  post-recovery invariant auditor;
* :mod:`~repro.durability.durable` — :class:`DurableTopKIndex`, the
  wrapper tying it all together.

Crash injection itself lives with the rest of the chaos machinery in
:class:`repro.resilience.faults.FaultPlan` (``schedule_crash``).
"""

from repro.durability.codec import decode, encode, flatten_state, unflatten_state
from repro.durability.durable import DurableTopKIndex
from repro.durability.recovery import (
    AuditCheck,
    AuditReport,
    RecoveryResult,
    apply_record,
    audit_index,
    recover_index,
)
from repro.durability.snapshot import read_snapshot, write_snapshot
from repro.durability.store import DurableStore, SnapshotEntry, seal, unseal
from repro.durability.wal import (
    OP_DELETE,
    OP_INSERT,
    WALRecord,
    WriteAheadLog,
    read_committed,
)

__all__ = [
    "AuditCheck",
    "AuditReport",
    "DurableStore",
    "DurableTopKIndex",
    "OP_DELETE",
    "OP_INSERT",
    "RecoveryResult",
    "SnapshotEntry",
    "WALRecord",
    "WriteAheadLog",
    "apply_record",
    "audit_index",
    "decode",
    "encode",
    "flatten_state",
    "read_committed",
    "read_snapshot",
    "recover_index",
    "seal",
    "unflatten_state",
    "unseal",
    "write_snapshot",
]
