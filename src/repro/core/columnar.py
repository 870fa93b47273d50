"""Columnar hot path: flat weight arrays, compiled predicates, match scans.

The reductions' asymptotics are dominated by a handful of prioritized
probes, but the *constant factor* of a probe in CPython is dominated by
per-:class:`~repro.core.problem.Element` object traffic: attribute
lookups, ``matches()`` dispatch, heap pushes.  The related top-k range
structures (Tao, arXiv 1208.4516; Brodal et al., arXiv 1509.08240) get
their practical speed from weight-sorted contiguous storage scanned by
rank/offset arithmetic — this module brings that layout to the RAM-model
hot path:

* :class:`ColumnSet` — one element set stored as parallel
  weight-descending columns: an ``array('d')`` of weights (negated, so
  the array is ascending and ``bisect`` works directly), an aligned list
  of raw ``obj`` values for predicate tests, and the aligned
  :class:`Element` list materialized only at the answer boundary.
* :class:`MatchScan` — an incremental scan of one predicate over one
  :class:`ColumnSet`.  It remembers its frontier and every match found
  so far, so a larger-``k`` repeat over the same predicate *resumes*
  one traversal instead of repeating it.
* :class:`ScanCache` — the per-index table of live scans, dropped on
  every update.
* a **compiled-predicate cache** — per ``predicate_key``, a closure
  specialized to the concrete predicate shape (fields hoisted into
  locals) replaces virtual ``matches()`` dispatch inside scan chunks.
  Structures register compilers next to their predicate classes with
  :func:`register_predicate_compiler`; unregistered predicates fall
  back to the bound ``matches`` method, so the fast path never changes
  *which* elements match, only how fast the test runs.
* :func:`columnar_top_k` — the one place an unbudgeted query decides
  between the columns and the ground structure.  Scanning first means a
  dense predicate never pays for a truncated probe; capping that first
  scan and then running Theorem 2's step 1 (the monitored probe) means
  a sparse one never pays for a long scan.

Answers are identical to the structure paths by construction: weights
are distinct (the repo's standing precondition), so the first ``k``
matches of a weight-descending scan *are* the unique top-k answer, and
an untruncated monitored probe holds every match.

Only RAM-resident ground structures get columns (:func:`ground_columns`):
external-memory structures carry an :class:`~repro.em.model.EMContext`
in their ``ctx`` attribute, and bypassing them would silently zero the
I/O accounting that the EM benches and fault-injection sweeps measure.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from bisect import bisect_left
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Type,
)

from repro.core.interfaces import PrioritizedIndex
from repro.core.problem import Element, Predicate

#: Elements per scan chunk: one listcomp frame amortized over this many
#: membership tests keeps interpreter overhead per element low while
#: early exits still stop within one chunk of the needed prefix.
_CHUNK = 512

#: Monotonic ids for structures that key shared memo windows.  ``id()``
#: is unusable for this: a window outlives structures (guard rebuilds,
#: ladder reconstruction) and CPython reuses freed addresses, so two
#: structures alive at *different* times could alias one another's
#: memoized answers.  A process-wide counter can never collide.
_structure_ids = itertools.count(1)


def next_structure_id() -> int:
    """A process-unique monotonic id for memo-window keying."""
    return next(_structure_ids)


# ----------------------------------------------------------------------
# Predicate keys (canonical home; repro.serving.batch re-exports)
# ----------------------------------------------------------------------
def predicate_key(predicate: Predicate) -> Hashable:
    """A stable grouping/caching key for a predicate.

    Frozen-dataclass predicates (the repo convention) are hashable and
    key as themselves; unhashable predicates fall back to their type
    and ``repr`` — deterministic as long as the repr is (dataclasses'
    generated reprs are).
    """
    try:
        hash(predicate)
    except TypeError:
        return (type(predicate).__qualname__, repr(predicate))
    return predicate


# ----------------------------------------------------------------------
# Compiled predicates
# ----------------------------------------------------------------------
_COMPILERS: Dict[type, Callable[[Predicate], Callable[[Any], bool]]] = {}
_MATCHER_CACHE: Dict[Hashable, Callable[[Any], bool]] = {}
_MATCHER_CACHE_MAX = 2048


def register_predicate_compiler(cls: Type[Predicate]):
    """Class decorator target: register a closure compiler for ``cls``.

    A compiler takes one predicate instance and returns a plain
    ``obj -> bool`` callable with the predicate's fields captured in
    the closure — the specialized form :class:`MatchScan` calls in its
    chunk loop.  The compiled test must be *extensionally identical* to
    ``cls.matches``; the property tests in ``tests/core/test_columnar``
    sweep every registered shape against the virtual path.
    """

    def decorator(compiler: Callable[[Predicate], Callable[[Any], bool]]):
        _COMPILERS[cls] = compiler
        return compiler

    return decorator


def compiled_matcher(predicate: Predicate) -> Callable[[Any], bool]:
    """The specialized membership test for ``predicate`` (cached).

    Falls back to the bound ``matches`` method when no compiler is
    registered — still a win over re-binding per call, and always
    semantically exact.
    """
    key = predicate_key(predicate)
    matcher = _MATCHER_CACHE.get(key)
    if matcher is None:
        compiler = _COMPILERS.get(type(predicate))
        matcher = compiler(predicate) if compiler is not None else predicate.matches
        if len(_MATCHER_CACHE) >= _MATCHER_CACHE_MAX:
            _MATCHER_CACHE.clear()
        _MATCHER_CACHE[key] = matcher
    return matcher


# ----------------------------------------------------------------------
# Columns and scans
# ----------------------------------------------------------------------
class DescendingElements(list):
    """A list of elements known to be in strictly descending weight order.

    :func:`repro.em.selection.select_top_k` recognizes the marker and
    answers by slicing instead of heap selection — the columnar paths
    produce their candidates already ordered, so re-selecting them
    would pay ``O(m log k)`` for nothing.
    """

    __slots__ = ()


class ColumnSet:
    """One element set as parallel weight-descending columns.

    ``elements[i]`` has weight ``-neg_weights[i]`` and object
    ``objs[i]``; ``neg_weights`` ascends, so ``bisect`` gives the
    rank/weight conversions directly.  Supports ``O(n)`` positional
    insert/delete for the dynamic reduction (bisect finds the slot;
    at bench scale the array move is far cheaper than what it saves
    per query, and rebuilds re-sort from scratch anyway).
    """

    __slots__ = ("elements", "objs", "neg_weights", "version")

    def __init__(self, elements: Sequence[Element], presorted: bool = False) -> None:
        ordered = list(elements)
        if not presorted:
            ordered.sort(key=_neg_weight)
        self.elements: List[Element] = ordered
        self.objs: List[Any] = [element.obj for element in ordered]
        self.neg_weights = array("d", [-element.weight for element in ordered])
        #: Bumped on every mutation so cached scans can detect staleness.
        self.version = 0

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def position_of(self, element: Element) -> int:
        """Rank (0-based) of ``element``; the stable index map.

        Distinct weights make the position a single bisect; raises
        ``KeyError`` when the element is not present.
        """
        position = bisect_left(self.neg_weights, -element.weight)
        if (
            position < len(self.elements)
            and self.elements[position] == element
        ):
            return position
        raise KeyError(f"element not present: {element!r}")

    def insert(self, element: Element) -> None:
        """Keep the columns sorted through a dynamic insert."""
        position = bisect_left(self.neg_weights, -element.weight)
        self.neg_weights.insert(position, -element.weight)
        self.objs.insert(position, element.obj)
        self.elements.insert(position, element)
        self.version += 1

    def delete(self, element: Element) -> None:
        """Remove one element (``KeyError`` when absent)."""
        position = self.position_of(element)
        del self.neg_weights[position]
        del self.objs[position]
        del self.elements[position]
        self.version += 1

    def scan(self, predicate: Predicate) -> "MatchScan":
        """A fresh incremental scan of ``predicate`` over these columns."""
        return MatchScan(self, predicate)


def _neg_weight(element: Element) -> float:
    return -element.weight


class MatchScan:
    """Incremental evaluation of one predicate over one :class:`ColumnSet`.

    The scan advances a frontier ``upto`` through the weight-descending
    columns and records the *positions* of matches (ascending position
    == descending weight).  A repeat over the same predicate (another
    ``k`` in a batch, a guard retry) resumes the traversal instead of
    rescanning the prefix; holding ``(columns, upto, positions)``
    instead of copied element lists keeps a live scan cheap to cache.
    """

    __slots__ = (
        "columns", "predicate", "_match", "upto", "positions", "_version",
        "_pending",
    )

    def __init__(self, columns: ColumnSet, predicate: Predicate) -> None:
        self.columns = columns
        self.predicate = predicate
        self._match = compiled_matcher(predicate)
        self.upto = 0
        self.positions: List[int] = []
        self._version = columns.version
        #: A recorded-but-unapplied :meth:`seed_prefix`, installed only
        #: if the scan is consulted again (most predicates never are).
        self._pending: Optional[tuple] = None

    # ------------------------------------------------------------------
    def fresh(self) -> bool:
        """Whether the underlying columns are unchanged since creation."""
        return self._version == self.columns.version

    @property
    def exhausted(self) -> bool:
        self._apply_pending()
        return self.upto >= len(self.columns)

    def matches_found(self) -> int:
        self._apply_pending()
        return len(self.positions)

    # ------------------------------------------------------------------
    def _advance_to(self, stop: int) -> None:
        """Scan columns[upto:stop] in chunks, recording match positions."""
        objs = self.columns.objs
        match = self._match
        positions = self.positions
        upto = self.upto
        while upto < stop:
            hi = min(upto + _CHUNK, stop)
            block = objs[upto:hi]
            positions.extend(
                [i for i, obj in enumerate(block, upto) if match(obj)]
            )
            upto = hi
        self.upto = upto

    def ensure_prefix(self, stop: int) -> None:
        """Extend the frontier to cover the first ``stop`` positions."""
        self._apply_pending()
        n = len(self.columns)
        if stop > n:
            stop = n
        if stop > self.upto:
            self._advance_to(stop)

    def ensure_matches(self, m: int) -> int:
        """Scan until ``m`` matches are known or the columns end."""
        self._apply_pending()
        n = len(self.columns)
        positions = self.positions
        while len(positions) < m and self.upto < n:
            self._advance_to(min(self.upto + _CHUNK, n))
        return len(positions)

    def seed_prefix(self, elements: Sequence[Element], upto: int) -> None:
        """Record externally computed knowledge of a prefix.

        ``elements`` must be *exactly* the matches among the first
        ``upto`` positions (any order) — e.g. an untruncated monitored
        probe on the ground structure (``upto = len(columns)``), which a
        sublinear structure computes in ``O(log + t)``.  Seeding hands
        the scan that knowledge so repeats materialize instead of
        re-traversing.

        Recording is O(1): the positions are resolved lazily, only if
        the scan is consulted again — one-shot predicates (the common
        cold case) never pay for it.
        """
        upto = min(upto, len(self.columns))
        if upto <= self.upto:
            return  # the scan already knows at least this much
        if self._pending is None or upto > self._pending[1]:
            self._pending = (list(elements), upto)

    def _apply_pending(self) -> None:
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        elements, upto = pending
        if upto > self.upto:
            position_of = self.columns.position_of
            self.positions = sorted(
                position_of(element) for element in elements
            )
            self.upto = upto

    # ------------------------------------------------------------------
    def first(self, k: int) -> DescendingElements:
        """The top-``k`` matches — the direct columnar top-k answer.

        Early exit: scanning stops as soon as ``k`` matches are known,
        because under distinct weights the first ``k`` matches of a
        weight-descending scan are exactly the unique top-k answer.
        """
        if k <= 0:
            return DescendingElements()
        found = self.ensure_matches(k)
        elements = self.columns.elements
        return DescendingElements(
            [elements[p] for p in self.positions[:min(k, found)]]
        )


# ----------------------------------------------------------------------
# Scan caches (per-index, bounded)
# ----------------------------------------------------------------------
class ScanCache:
    """A bounded per-index table of live :class:`MatchScan` objects.

    Keyed by ``predicate_key``; cleared wholesale on any index update
    (a scan must never survive a state change) and whenever it grows
    past ``max_entries`` — scans are pure accelerations, so dropping
    them is always safe.
    """

    __slots__ = ("max_entries", "_scans")

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = max_entries
        self._scans: Dict[Hashable, MatchScan] = {}

    def __len__(self) -> int:
        return len(self._scans)

    def get(self, columns: ColumnSet, predicate: Predicate) -> MatchScan:
        """The cached scan for ``predicate``, or a fresh one (cached)."""
        key = predicate_key(predicate)
        scan = self._scans.get(key)
        if scan is None or scan.columns is not columns or not scan.fresh():
            scan = MatchScan(columns, predicate)
            if len(self._scans) >= self.max_entries:
                self._scans.clear()
            self._scans[key] = scan
        return scan

    def peek(self, predicate: Predicate) -> Optional[MatchScan]:
        """The cached scan if present and fresh, else ``None``."""
        scan = self._scans.get(predicate_key(predicate))
        if scan is not None and not scan.fresh():
            return None
        return scan

    def clear(self) -> None:
        self._scans.clear()


# ----------------------------------------------------------------------
# The one columns-vs-structure decision
# ----------------------------------------------------------------------
def ground_columns(ground: object, elements: Sequence[Element]) -> Optional[ColumnSet]:
    """Weight-descending columns of ``elements``, or ``None`` for EM grounds.

    RAM-model structures qualify; EM-backed structures (anything
    carrying an ``EMContext`` as ``.ctx``) do not — their I/O charging
    and fault injection live in the block-transfer layer a flat-array
    bypass would skip, so they keep the structure-only path.
    """
    if getattr(ground, "ctx", None) is not None:
        return None
    return ColumnSet(elements)


#: Positions a predicate's first scan may cover before the structure
#: probe takes over.  Swept cold on E23's range1d data (a 2-vCPU host,
#: widths log-uniform per bucket, k <= 20): at n = 50,000, probing
#: first (0 positions) cost 2-3x more than 256 on 2-20%-wide ranges,
#: and 64 positions still 1.7-2.5x more; at n = 12,500, 512 positions
#: cost 0.1-0.5%-wide ranges 30-40% more than 256.  128-256 balanced
#: the two; 256 was best on the dense ranges.
FIRST_SCAN = 256

_weight = attrgetter("weight")


def columnar_top_k(
    columns: ColumnSet,
    scans: ScanCache,
    ground: PrioritizedIndex,
    stats: Any,
    predicate: Predicate,
    k: int,
    cap: Optional[int],
) -> List[Element]:
    """Answer one unbudgeted top-``k`` query of an index with columns.

    ``cap`` is the call site's monitored-probe cap (``None`` beyond the
    ladder, where the answer is a full scan anyway):

    1. a live scan for the predicate answers ``first(k)`` — a memo hit;
    2. otherwise a fresh scan covers the first :data:`FIRST_SCAN`
       positions, and answers if that finds ``k`` matches or ends the
       columns;
    3. otherwise the monitored probe runs on ``ground``.  Untruncated,
       it holds every match: the scan is seeded with it and the answer
       k-selected.  Truncated, more than ``cap`` elements match, so the
       scan finds ``k`` of them within about ``k * n / cap`` positions.

    ``stats`` keeps the structure path's meanings: every call inside
    the ladder counts one ``monitored_probes``, every call beyond it
    one ``full_scans``.
    """
    if cap is None:
        stats.full_scans += 1
    else:
        stats.monitored_probes += 1
    scan = scans.peek(predicate)
    if scan is not None:
        stats.memo_hits += 1
        return list(scan.first(k))
    scan = scans.get(columns, predicate)
    if cap is not None:
        scan.ensure_prefix(FIRST_SCAN)
        if scan.matches_found() < k and not scan.exhausted:
            probe = ground.query(predicate, -math.inf, limit=cap)
            if not probe.truncated:
                scan.seed_prefix(probe.elements, len(columns))
                return heapq.nlargest(k, probe.elements, key=_weight)
    return list(scan.first(k))


__all__ = [
    "ColumnSet",
    "DescendingElements",
    "FIRST_SCAN",
    "MatchScan",
    "ScanCache",
    "columnar_top_k",
    "compiled_matcher",
    "ground_columns",
    "next_structure_id",
    "predicate_key",
    "register_predicate_compiler",
]
