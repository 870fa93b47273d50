"""Structured error taxonomy for the resilience subsystem.

The reductions treat prioritized/max structures as black boxes, so the
failures a production deployment must survive come in three flavours:

* **transient environment faults** — a flaky simulated disk read or
  write (:class:`TransientIOError`), or a block whose checksum no
  longer matches (:class:`CorruptBlockError`).  Retrying is both safe
  and likely to succeed.
* **contract violations** — a user-supplied structure (or the caller)
  broke a precondition: duplicate weights, updates against a static
  structure, an answer that fails a runtime spot-check
  (:class:`ContractViolation` and friends).  Retrying is pointless;
  the query must be answered by a different rung of the degradation
  ladder.
* **budget exhaustion** — Theorem 2's round ladder or the guard's
  retry loop ran out of its per-query budget
  (:class:`RetryBudgetExhausted`).

Several classes multiply inherit from the builtin exception previously
raised at the same site (``KeyError``, ``TypeError``, ``ValueError``,
``AssertionError``) so pre-taxonomy callers and tests keep working.
"""

from __future__ import annotations

from typing import Any, Optional


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` package."""


class TransientIOError(ReproError):
    """A retryable I/O fault (injected or environmental).

    Carries the block id when known; the guard's retry loop treats any
    ``TransientIOError`` as safe to retry with backoff.
    """

    def __init__(self, message: str, block_id: Optional[int] = None) -> None:
        super().__init__(message)
        self.block_id = block_id


class CorruptBlockError(TransientIOError):
    """A block transfer whose contents fail checksum verification.

    Raised by :meth:`repro.em.model.EMContext.read_block` when per-block
    checksums are enabled.  The disk copy itself is intact (corruption
    is modelled in-flight), so a re-read is expected to succeed — hence
    the :class:`TransientIOError` parentage.
    """


class ContractViolation(ReproError):
    """A black-box contract or API precondition was broken.

    Not retryable: the same call would fail the same way.  The guard
    responds by degrading to the next rung of its ladder.
    """


class ValidationFailure(ContractViolation, AssertionError):
    """A :class:`~repro.core.validation.ValidationReport` with failures.

    Subclasses ``AssertionError`` for backwards compatibility with
    pre-taxonomy callers of ``raise_if_failed``.
    """


class ElementMembershipError(ContractViolation, KeyError):
    """Insert of a present element, or delete of an absent one.

    Subclasses ``KeyError`` for backwards compatibility.
    """

    def __str__(self) -> str:  # KeyError repr-quotes its argument
        return self.args[0] if self.args else ""


class StaticStructureError(ContractViolation, TypeError):
    """An update was attempted against a static (non-dynamic) structure.

    Subclasses ``TypeError`` for backwards compatibility.
    """


class BlockOverflowError(ContractViolation, ValueError):
    """More than ``B`` records were written to one block.

    Subclasses ``ValueError`` for backwards compatibility.
    """


class InvalidConfiguration(ReproError, ValueError):
    """Nonsensical machine or policy parameters (``B < 2``, ``M < 2B``...).

    Subclasses ``ValueError`` for backwards compatibility.
    """


class SerializationError(ContractViolation):
    """A value that the durability codec cannot encode or decode.

    Raised at snapshot time (an element carries an unregistered object
    type) or at restore time (an unknown tag, a format-version
    mismatch).  Not retryable: the payload itself is at fault.
    """


class SnapshotIntegrityError(ReproError):
    """Durable state on disk failed validation during recovery.

    A torn block (embedded seal missing or mismatched), a broken chain
    pointer, or a whole-snapshot checksum mismatch.  Unlike
    :class:`CorruptBlockError` this is *not* transient — the bytes on
    disk are genuinely damaged — so recovery responds by falling back
    to an older snapshot or a full rebuild, never by retrying.
    """

    def __init__(self, message: str, block_id: Optional[int] = None) -> None:
        super().__init__(message)
        self.block_id = block_id


class RecoveryError(ReproError):
    """Recovery could not produce a usable index.

    No anchor or root record validates, every retained snapshot is
    damaged, or the restored index failed its audit and no rebuild path
    was provided.
    """


class SimulatedCrash(ReproError):
    """The simulated machine was killed at an injected crash point.

    Raised by a :class:`~repro.resilience.faults.FaultPlan` carrying a
    crash schedule.  Deliberately *not* a :class:`TransientIOError`:
    retry loops must not survive a machine death — the process is gone,
    and only a fresh :class:`~repro.em.model.EMContext` over the same
    :class:`~repro.em.model.Disk` (i.e. a reboot plus recovery) may
    continue.  When the crash interrupted a block write, ``torn_keep``
    records how many records of the in-flight block reached the disk.
    """

    def __init__(
        self,
        message: str,
        block_id: Optional[int] = None,
        torn_keep: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.block_id = block_id
        self.torn_keep = torn_keep


class ReplicaUnavailable(ReproError):
    """No replica can serve the request right now.

    Raised by :class:`~repro.replication.cluster.ReplicaSet` when every
    machine is dead (or too stale for the caller's freshness bound) and
    the rebuild-from-durable-record rung also failed.  The guard treats
    it like any other rung failure: the next rung of the degradation
    ladder (ultimately the host-memory scan) takes over.
    """

    def __init__(self, message: str, replica: Optional[str] = None) -> None:
        super().__init__(message)
        self.replica = replica


class FailoverError(ReproError):
    """Primary promotion failed: no live follower is eligible.

    Raised by :class:`~repro.replication.failover.FailoverController`
    when the primary is dead and no alive follower remains to promote.
    The cluster then degrades to the rebuild-from-durable-record rung.
    """


class WALShippingGap(ReproError):
    """A shipped WAL tail does not splice onto the replica's log.

    The first shipped record's LSN is beyond the follower's
    ``next_lsn`` — records in between were truncated on the source
    (e.g. the follower slept through a checkpoint).  Incremental
    shipping cannot proceed; the follower needs a full snapshot +
    WAL-tail resync (the anti-entropy repair path).
    """

    def __init__(self, message: str, expected_lsn: int = 0, got_lsn: int = 0) -> None:
        super().__init__(message)
        self.expected_lsn = expected_lsn
        self.got_lsn = got_lsn


class AdmissionRejected(ReproError):
    """The serving engine shed this request at admission.

    Backpressure, not failure: the query was *shed* (counted in
    :class:`~repro.serving.engine.ServingStats.load_sheds`), never
    queued unboundedly.  Two admission rules shed — a full pending
    queue (``reason="queue_full"``) and a deadline that the estimated
    queue wait already makes unmeetable (``reason="deadline"``).

    The exception is machine-readable so clients back off
    intelligently instead of parsing the message: ``pending`` /
    ``max_pending`` carry the queue state at rejection time, and
    ``retry_after`` is the engine's estimate (in the caller's clock
    units) of how long until a resubmission could be admitted — the
    hint a retry budget combines with its token bucket.
    """

    REASON_QUEUE_FULL = "queue_full"
    REASON_DEADLINE = "deadline"

    def __init__(
        self,
        message: str,
        pending: int = 0,
        max_pending: int = 0,
        retry_after: float = 0.0,
        reason: str = REASON_QUEUE_FULL,
    ) -> None:
        super().__init__(message)
        self.pending = pending
        self.max_pending = max_pending
        self.retry_after = retry_after
        self.reason = reason


class RetryBudgetExhausted(ReproError):
    """A per-query retry/round budget ran out before an answer was found.

    ``attempts`` records how many rounds or attempts were consumed.
    """

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class DegradedAnswer(ReproError):
    """A correct answer was produced, but not by the primary index.

    Only raised when :class:`~repro.resilience.guard.GuardPolicy` sets
    ``raise_on_degraded``; by default degradation is merely recorded in
    the query's :class:`~repro.resilience.guard.HealthReport`.  The
    exception carries both the (exact) answer and the report.
    """

    def __init__(self, message: str, answer: Any = None, report: Any = None) -> None:
        super().__init__(message)
        self.answer = answer
        self.report = report


class ShardUnavailable(ReplicaUnavailable):
    """A shard of a partitioned index cannot serve and cannot recover.

    Raised by :class:`~repro.sharding.sharded.ShardedTopKIndex` when a
    shard's machine died, recovery from its surviving disk failed (or
    its replica set is wholly down), and the query did not opt into a
    partial answer (``allow_partial``).  Subclasses
    :class:`ReplicaUnavailable` so existing degradation ladders treat a
    lost shard like a lost replica set: the next rung takes over.
    ``shard`` names the machine.
    """

    def __init__(self, message: str, shard: Optional[str] = None) -> None:
        super().__init__(message, replica=shard)
        self.shard = shard


class PartitionedError(ReproError):
    """A message could not cross a network link.

    Deliberately *not* a :class:`TransientIOError`: a transport failure
    says nothing about the health of the machine behind the link, so it
    must never feed the failure detector's per-machine fault streaks —
    condemning a healthy replica because the wire to it is down is how
    real systems turn a partition into an outage.

    ``indeterminate`` is the crucial bit.  ``False`` means the fabric
    *knows* the message never arrived (the link is partitioned — the
    send was refused outright).  ``True`` means the sender timed out:
    the message **may have been delivered** and only the reply lost, so
    a retry must be idempotent (carry the same idempotency key) and an
    acknowledged-side effect may exist even though the caller saw a
    failure — the history checker's ``info`` verdict.
    """

    def __init__(
        self,
        message: str,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        indeterminate: bool = False,
    ) -> None:
        super().__init__(message)
        self.src = src
        self.dst = dst
        self.indeterminate = indeterminate


class FencedError(ReproError):
    """A message carried a fencing epoch older than the current one.

    Raised at the *receiver* when a deposed primary (or any stale
    sender) ships records stamped with a dead epoch, and at the *old
    primary itself* when it fails to renew its lease and self-demotes.
    Not retryable at the same epoch: the sender must rejoin the cluster
    (resync, observe the new epoch) before it may write again.
    ``epoch`` is the stale epoch the message carried; ``current`` the
    fencing epoch in force.
    """

    def __init__(self, message: str, epoch: int = 0, current: int = 0) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.current = current


class StaleShardMap(ReproError):
    """A scatter-gather ran against a shard map that changed mid-flight.

    Every scatter-gather pins the router's epoch at planning time and
    re-checks it after the gather; a split/merge between the two bumps
    the epoch, so answers computed against the old map are discarded
    and the query retried against the fresh map — never silently wrong.
    The exception only escapes when the retry budget is exhausted
    (a pathological storm of rebalances).  ``epoch`` is the epoch the
    query planned against; ``current`` the router's epoch at detection.
    """

    def __init__(self, message: str, epoch: int = 0, current: int = 0) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.current = current


__all__ = [
    "ReproError",
    "TransientIOError",
    "CorruptBlockError",
    "ContractViolation",
    "ValidationFailure",
    "ElementMembershipError",
    "StaticStructureError",
    "BlockOverflowError",
    "InvalidConfiguration",
    "SerializationError",
    "SnapshotIntegrityError",
    "RecoveryError",
    "SimulatedCrash",
    "ReplicaUnavailable",
    "ShardUnavailable",
    "StaleShardMap",
    "PartitionedError",
    "FencedError",
    "FailoverError",
    "WALShippingGap",
    "AdmissionRejected",
    "RetryBudgetExhausted",
    "DegradedAnswer",
]
