"""k-selection: extract the ``k`` heaviest records in linear (scan) cost.

Both reductions finish a top-k query with "k-selection [8]" over a set of
candidate records that is ``O(k)`` (Theorem 1) or ``O(K_j)`` (Theorem 2)
in size.  Selecting the ``k`` largest of ``m`` records costs ``O(m/B)``
I/Os in EM and ``O(m)`` time in RAM.

Two entry points:

* :func:`select_top_k` — in-memory selection over any iterable.
* :func:`select_top_k_blocked` — selection over a :class:`BlockArray`,
  charging scan I/Os through the context; falls back to a multi-pass
  pivot selection when ``k`` exceeds memory.
"""

from __future__ import annotations

import heapq
import random
from operator import attrgetter
from typing import Callable, Iterable, List, Optional

from repro.core.columnar import DescendingElements
from repro.em.blockarray import BlockArray
from repro.em.model import EMContext


def select_top_k(
    records: Iterable[object],
    k: int,
    weight: Optional[Callable[[object], float]] = None,
) -> List[object]:
    """Return the ``k`` records of largest weight, heaviest first.

    Records that carry ``.weight`` are ranked by a sort keyed on the
    attribute in C, with no Python call per record.  A probe's
    candidates arrive as one weight-descending run per path node, and
    Timsort merges those runs: ``O(m log r)`` for ``r`` runs.  Plain
    numbers, and records ranked by an explicit ``weight``, use the same
    sort with a Python key.  Equal weights keep their input order, as
    ``heapq.nlargest`` does.  Returns all records (sorted) when
    ``k >= m``.
    """
    if k <= 0:
        return []
    if weight is not None:
        return sorted(records, key=weight, reverse=True)[:k]
    if isinstance(records, DescendingElements):
        # Columnar candidates arrive already in strictly descending
        # weight order; selection is a slice, not a sort.
        return list(records[:k])
    if not isinstance(records, list):
        records = list(records)
    try:
        ranked = sorted(records, key=_BY_WEIGHT, reverse=True)
    except AttributeError:  # plain numbers (or a mix) rank by value
        ranked = sorted(records, key=_as_weight, reverse=True)
    return ranked[:k]


def select_top_k_blocked(
    ctx: EMContext,
    array: BlockArray,
    k: int,
    weight: Optional[Callable[[object], float]] = None,
    rng: Optional[random.Random] = None,
) -> List[object]:
    """Top-k selection over a disk-resident array in ``O(m/B)`` I/Os.

    When ``k`` records fit in memory (``k <= M``) a single scan with a
    bounded heap suffices.  Otherwise a randomised pivot selection finds
    the k-th weight in an expected constant number of counting passes,
    then one final pass collects the answer; every pass is a sequential
    scan of ``O(m/B)`` I/Os.
    """
    if k <= 0:
        return []
    weight = weight if weight is not None else _as_weight
    if k <= ctx.M:
        return heapq.nlargest(k, array.scan(), key=weight)
    return _pivot_select(ctx, array, k, weight, rng or random.Random(0))


def _pivot_select(
    ctx: EMContext,
    array: BlockArray,
    k: int,
    weight: Callable[[object], float],
    rng: random.Random,
) -> List[object]:
    """Multi-pass randomised selection for ``k`` larger than memory."""
    n = len(array)
    if k >= n:
        return sorted(array.scan(), key=weight, reverse=True)
    # Narrow a weight window [lo_w, +inf) that contains between k and
    # k + M records, then a final pass collects and sorts the window.
    lo_w = None  # exclusive lower bound on candidate weights
    hi_w = None  # weights above hi_w are already known to number < k
    while True:
        pivot = _sample_pivot(ctx, array, lo_w, hi_w, rng, weight)
        if pivot is None:
            break
        above = sum(1 for record in array.scan() if weight(record) >= pivot)
        if above >= k:
            if above <= k + ctx.M:
                lo_w = pivot
                break
            lo_w = pivot
        else:
            hi_w = pivot
    candidates = [record for record in array.scan() if lo_w is None or weight(record) >= lo_w]
    # The pivot loop already shrank candidates to O(k) in expectation,
    # but a bad pivot streak can leave it larger — partial selection
    # keeps the tail cost at O(|candidates| log k) instead of a full sort.
    return heapq.nlargest(k, candidates, key=weight)


def _sample_pivot(
    ctx: EMContext,
    array: BlockArray,
    lo_w: Optional[float],
    hi_w: Optional[float],
    rng: random.Random,
    weight: Callable[[object], float],
) -> Optional[float]:
    """Pick a random candidate weight inside the current window."""
    reservoir: Optional[float] = None
    seen = 0
    for record in array.scan():
        w = weight(record)
        if lo_w is not None and w <= lo_w:
            continue
        if hi_w is not None and w >= hi_w:
            continue
        seen += 1
        if rng.randrange(seen) == 0:
            reservoir = w
    return reservoir


_BY_WEIGHT = attrgetter("weight")


def _as_weight(record: object) -> float:
    """Default weight accessor: ``record.weight`` if present, else the record."""
    return getattr(record, "weight", record)
