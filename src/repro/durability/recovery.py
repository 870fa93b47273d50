"""Recovery: snapshot + WAL replay + invariant audit (+ rebuild fallback).

The recovery sequence after a crash:

1. **Mount** — :meth:`DurableStore.open` reads the anchors and adopts
   the last valid root record on the manifest chain (a torn newest
   commit falls back to the root before it; done by the caller).
2. **Snapshot** — try the manifest's snapshots newest-first; each is
   verified three ways (block seals, record count, stream CRC) by
   :func:`~repro.durability.snapshot.read_snapshot` before being
   trusted.
3. **Replay** — committed WAL groups with LSNs past the snapshot's
   ``last_lsn`` are re-applied *idempotently*: an insert already
   present or a delete already absent is skipped, so running recovery
   twice (or recovering a state that partially contains the log)
   converges to the same index.
4. **Audit** — structural invariants of the recovered index are
   checked (:func:`audit_index`): weight distinctness, size
   consistency, sample-ladder membership for Theorem 2, core-set
   nesting for Theorem 1, and the durable bytes themselves.
5. **Rebuild fallback** — if the audit fails and a ``build_fn`` is
   given, the index is rebuilt from scratch from the recovered element
   set (the durable record of ``D``) and re-audited; otherwise
   recovery raises :class:`~repro.resilience.errors.RecoveryError`.

The returned :class:`RecoveryResult` carries the counters the health
machinery reports (recoveries, records replayed, groups discarded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.problem import Element
from repro.core.theorem1 import WorstCaseTopKIndex
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.snapshot import read_snapshot
from repro.durability.store import DurableStore, SnapshotEntry
from repro.durability.wal import OP_DELETE, OP_INSERT, WALRecord, read_committed
from repro.resilience.errors import (
    ContractViolation,
    ElementMembershipError,
    RecoveryError,
    SerializationError,
    SnapshotIntegrityError,
)


@dataclass(frozen=True)
class AuditCheck:
    """One invariant verdict from the post-recovery auditor."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class AuditReport:
    """The full post-recovery invariant audit."""

    checks: List[AuditCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[AuditCheck]:
        return [check for check in self.checks if not check.ok]

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(AuditCheck(name, ok, detail))


@dataclass
class RecoveryResult:
    """What recovery did and what it produced."""

    index: object
    elements: List[Element]
    snapshot_id: Optional[int]
    snapshots_tried: int
    last_lsn: int
    wal_records_replayed: int
    wal_groups_discarded: int
    rebuilt: bool
    audit: AuditReport
    # Highest committed LSN observed anywhere (snapshot or log) — a
    # rebooted replica resumes the cluster's LSN sequence from here.
    highest_lsn: int = 0


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def apply_record(index: object, record: WALRecord) -> bool:
    """Apply one log record idempotently; ``True`` if it changed state.

    Prefers an explicit membership check (indexes exposing
    ``__contains__``); otherwise falls back to catching the membership
    errors the mutators raise.  Either way, skipped records consume no
    randomness, so replay never perturbs the index's RNG stream.
    """
    supports_contains = hasattr(type(index), "__contains__")
    if record.op == OP_INSERT:
        if supports_contains and record.element in index:  # type: ignore[operator]
            return False
        try:
            index.insert(record.element)  # type: ignore[attr-defined]
        except (ElementMembershipError, ContractViolation):
            return False
        return True
    if record.op == OP_DELETE:
        if supports_contains and record.element not in index:  # type: ignore[operator]
            return False
        try:
            index.delete(record.element)  # type: ignore[attr-defined]
        except (ElementMembershipError, KeyError):
            return False
        return True
    raise RecoveryError(f"unknown WAL op {record.op!r} at lsn {record.lsn}")


# ----------------------------------------------------------------------
# Audit
# ----------------------------------------------------------------------
def audit_index(
    index: object,
    elements: List[Element],
    store: Optional[DurableStore] = None,
    entry: Optional[SnapshotEntry] = None,
) -> AuditReport:
    """Check the structural invariants of a recovered index.

    ``elements`` is the element set the index is supposed to hold (the
    snapshot's set plus the replayed committed updates).  When a store
    and snapshot entry are given, the durable bytes backing the
    recovery are re-verified too.
    """
    report = AuditReport()
    element_set = set(elements)

    weights = {element.weight for element in elements}
    report.add(
        "weights-distinct",
        len(weights) == len(elements),
        f"{len(elements) - len(weights)} duplicate weights"
        if len(weights) != len(elements)
        else "",
    )

    n = getattr(index, "n", None)
    report.add(
        "size-consistent",
        n == len(elements),
        f"index.n={n}, expected {len(elements)}" if n != len(elements) else "",
    )

    if isinstance(index, ExpectedTopKIndex):
        _audit_expected(index, element_set, report)
    if isinstance(index, WorstCaseTopKIndex):
        _audit_worstcase(index, element_set, report)

    if store is not None and entry is not None:
        try:
            read_snapshot(store, entry)
            report.add("durable-blocks", True)
        except (SnapshotIntegrityError, SerializationError) as exc:
            report.add("durable-blocks", False, str(exc))
    return report


def _audit_expected(
    index: ExpectedTopKIndex, element_set: set, report: AuditReport
) -> None:
    """Theorem 2 invariants: the sample ladder is a coherent view of D."""
    ladder_ok = (
        len(index._samples) == len(index._K) == len(index._max_indexes)
    )
    report.add(
        "t2-ladder-shape",
        ladder_ok,
        "" if ladder_ok else (
            f"samples={len(index._samples)}, K={len(index._K)}, "
            f"max={len(index._max_indexes)}"
        ),
    )
    increasing = all(
        index._K[i] < index._K[i + 1] for i in range(len(index._K) - 1)
    )
    report.add("t2-ladder-increasing", increasing)
    stray = sum(
        1
        for sample in index._samples
        for element in sample
        if element not in element_set
    )
    report.add(
        "t2-samples-subset",
        stray == 0,
        f"{stray} sampled elements outside D" if stray else "",
    )
    membership_ok = True
    for i, sample in enumerate(index._samples):
        for element in sample:
            if i not in index._membership.get(element, []):
                membership_ok = False
    for element, levels in index._membership.items():
        for i in levels:
            if i >= len(index._samples) or element not in index._samples[i]:
                membership_ok = False
    report.add("t2-membership-consistent", membership_ok)
    sizes_ok = all(
        getattr(max_index, "n", len(sample)) == len(sample)
        for sample, max_index in zip(index._samples, index._max_indexes)
    )
    report.add("t2-max-structure-sizes", sizes_ok)


def _audit_worstcase(
    index: WorstCaseTopKIndex, element_set: set, report: AuditReport
) -> None:
    """Theorem 1 invariants: core-set chains really nest inside D."""
    small_levels = index._small.hierarchy.levels
    ground_ok = bool(small_levels) and set(small_levels[0]) == element_set
    report.add(
        "t1-small-ground",
        ground_ok,
        "" if ground_ok else "small chain's level 0 is not D",
    )
    nested = True
    for chain in [index._small.hierarchy] + [s.hierarchy for s in index._ladder]:
        previous: Optional[set] = None
        for level in chain.levels:
            level_set = set(level)
            if previous is not None and not level_set <= previous:
                nested = False
            if not level_set <= element_set:
                nested = False
            previous = level_set
    report.add("t1-coresets-nested", nested)
    sizes_ok = all(
        chain.stats.sizes == [len(level) for level in chain.levels]
        for chain in [index._small.hierarchy]
        + [s.hierarchy for s in index._ladder]
    )
    report.add("t1-recorded-sizes", sizes_ok)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def recover_index(
    store: DurableStore,
    restore_fn: Callable[[dict], object],
    build_fn: Optional[Callable[[List[Element]], object]] = None,
) -> RecoveryResult:
    """Run the full recovery sequence over a mounted store.

    ``restore_fn`` maps an index snapshot state (the ``"index"`` entry
    of the durable state dict, whose ``"elements"`` key is the durable
    record of ``D``) to a live index; ``build_fn``, when given, builds
    a fresh index from an element list if the audit rejects the
    restored one.
    """
    snapshot_state: Optional[dict] = None
    used_entry: Optional[SnapshotEntry] = None
    tried = 0
    last_error: Optional[Exception] = None
    for entry in store.snapshots:
        tried += 1
        try:
            snapshot_state = read_snapshot(store, entry)
            used_entry = entry
            break
        except (SnapshotIntegrityError, SerializationError) as exc:
            last_error = exc
    if snapshot_state is None or used_entry is None:
        raise RecoveryError(
            f"no usable snapshot among {len(store.snapshots)} manifest "
            "entries — the durable record of D is gone"
        ) from last_error

    index_state = snapshot_state.get("index")
    if not isinstance(index_state, dict) or "elements" not in index_state:
        raise RecoveryError(
            f"snapshot {used_entry.snapshot_id} carries no index state"
        )
    last_lsn = snapshot_state.get("last_lsn", 0)

    groups, discarded = read_committed(store, store.wal_head)
    index = restore_fn(index_state)
    elements: List[Element] = list(index_state["elements"])
    element_set = set(elements)
    replayed = 0
    highest_lsn = last_lsn
    for group in groups:
        for record in group:
            highest_lsn = max(highest_lsn, record.lsn)
            if record.lsn <= last_lsn:
                continue  # already folded into the snapshot
            apply_record(index, record)
            replayed += 1
            if record.op == OP_INSERT and record.element not in element_set:
                element_set.add(record.element)
                elements.append(record.element)
            elif record.op == OP_DELETE and record.element in element_set:
                element_set.discard(record.element)
                elements.remove(record.element)

    audit = audit_index(index, elements, store=store, entry=used_entry)
    rebuilt = False
    if not audit.ok:
        if build_fn is None:
            raise RecoveryError(
                "post-recovery audit failed with no rebuild fallback: "
                + "; ".join(f"{c.name}: {c.detail}" for c in audit.failures)
            )
        index = build_fn(list(elements))
        rebuilt = True
        audit = audit_index(index, elements)
        if not audit.ok:
            raise RecoveryError(
                "audit failed even after a full rebuild: "
                + "; ".join(f"{c.name}: {c.detail}" for c in audit.failures)
            )

    return RecoveryResult(
        index=index,
        elements=elements,
        snapshot_id=used_entry.snapshot_id,
        snapshots_tried=tried,
        last_lsn=last_lsn,
        wal_records_replayed=replayed,
        wal_groups_discarded=discarded,
        rebuilt=rebuilt,
        audit=audit,
        highest_lsn=highest_lsn,
    )


__all__ = [
    "AuditCheck",
    "AuditReport",
    "RecoveryResult",
    "apply_record",
    "audit_index",
    "recover_index",
]
