"""Snapshot writer/reader: a whole index state as one verified chain.

A snapshot is the flattened record stream of an index's
``snapshot_state()`` dict (see :mod:`repro.durability.codec`) written
into a fresh forward chain of sealed blocks, plus a
:class:`~repro.durability.store.SnapshotEntry` carrying the chain head,
record count, and a CRC over the *whole* stream.  The entry lives in
the store's root record; a snapshot only becomes visible to recovery
once a root commit publishes its entry, so a crash mid-snapshot leaves
the previous generation in charge.

Reading verifies three independent layers — per-block seals, the
stream length, and the whole-stream CRC — before handing the state
back; any mismatch raises
:class:`~repro.resilience.errors.SnapshotIntegrityError` so recovery
can move on to an older snapshot or a rebuild.
"""

from __future__ import annotations

import zlib
from typing import List, Tuple

from repro.durability.codec import flatten_state, unflatten_state
from repro.durability.store import DurableStore, SnapshotEntry
from repro.resilience.errors import SnapshotIntegrityError

_CHAIN_KIND = "SNAP"


def _stream_crc(records: List[Tuple]) -> int:
    return zlib.crc32(repr(records).encode("utf-8", "backslashreplace"))


def write_snapshot(store: DurableStore, state: dict) -> SnapshotEntry:
    """Write ``state`` as a snapshot chain; returns its manifest entry.

    The chain is buffered in the store's cache — the caller must
    ``store.flush()`` (a write barrier) before publishing the returned
    entry in a root commit, or the root could land before the data it
    points at.
    """
    records = flatten_state(state)
    head = store.write_chain(_CHAIN_KIND, records)
    entry = SnapshotEntry(
        snapshot_id=store.next_snapshot_id,
        head_block=head,
        num_records=len(records),
        state_crc=_stream_crc(records),
    )
    store.next_snapshot_id += 1
    return entry


def read_snapshot(store: DurableStore, entry: SnapshotEntry) -> dict:
    """Load and fully verify the snapshot behind ``entry``."""
    records = list(store.read_chain(_CHAIN_KIND, entry.head_block))
    if len(records) != entry.num_records:
        raise SnapshotIntegrityError(
            f"snapshot {entry.snapshot_id} has {len(records)} records, "
            f"manifest says {entry.num_records}"
        )
    if _stream_crc(records) != entry.state_crc:
        raise SnapshotIntegrityError(
            f"snapshot {entry.snapshot_id} stream CRC mismatch"
        )
    return unflatten_state(records)


__all__ = ["write_snapshot", "read_snapshot"]
