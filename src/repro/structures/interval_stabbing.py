"""Interval stabbing structures (the substrate of Theorem 4).

Problem: ``D`` is a set of weighted closed intervals on the real line; a
predicate is a stabbing point ``x``, matched by every interval
containing ``x``.

Structures provided:

* :class:`SegmentTreeIntervalPrioritized` — prioritized reporting in
  ``O(log n + t)`` time (``O(log n + t/B)`` I/Os in EM mode), space
  ``O(n log n)`` words.  Substitutes for Tao's ray-stabbing structure
  [34] (see DESIGN.md section 4).  Supports insert/delete; off-grid
  endpoints introduced by updates are handled exactly via partial
  assignments at boundary leaves, and the slab grid is rebuilt when
  ``n`` drifts by 2x (amortized).
* :class:`StaticIntervalStabbingMax` — the paper's own folklore static
  structure (Section 5.2, "1D Stabbing Max"): the ``2n`` endpoints cut
  the line into ``<= 2n + 1`` subintervals, each annotated with the max
  weight of the intervals spanning it, so a query is one predecessor
  search: ``O(log n)`` in RAM, ``O(log_B n)`` I/Os with the B-tree.
* :class:`DynamicIntervalStabbingMax` — max reporting over the dynamic
  segment tree (substitutes for Agarwal et al. [7]): ``O(log n)``
  query, ``O(log n)`` amortized update.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.interfaces import (
    CountingIndex,
    DynamicMaxIndex,
    DynamicPrioritizedIndex,
    OpCounter,
    PrioritizedResult,
)
from repro.core.columnar import register_predicate_compiler
from repro.core.problem import Element, Predicate
from repro.em.blockarray import BlockArray
from repro.em.btree import BPlusTree
from repro.em.model import EMContext
from repro.geometry.primitives import Interval


@dataclass(frozen=True)
class StabbingPredicate(Predicate):
    """Matches every interval containing the stabbing point ``x``."""

    x: float

    def matches(self, obj: Interval) -> bool:
        return obj.contains(self.x)


@register_predicate_compiler(StabbingPredicate)
def _compile_stabbing(predicate: StabbingPredicate):
    """Closure-specialized stabbing test: endpoint compare, no dispatch."""
    x = predicate.x
    return lambda obj: obj.lo <= x <= obj.hi


# ----------------------------------------------------------------------
# The slab grid and segment tree shared by the stabbing structures
# ----------------------------------------------------------------------
class _SegmentTree:
    """A segment tree over the elementary slabs of an endpoint grid.

    Leaves alternate between point slabs ``{c_i}`` and open slabs
    ``(c_i, c_{i+1})`` (with the two unbounded extremes), so closed
    intervals decompose exactly.  Each node stores the elements whose
    canonical range covers it, ordered by descending weight; elements at
    *leaf* nodes may cover the leaf's slab only partially (a consequence
    of off-grid insertions) and are re-checked exactly at query time.
    """

    def __init__(self, coords: Sequence[float], interval_of=None) -> None:
        self.interval_of = interval_of if interval_of is not None else _obj_interval
        self.coords: List[float] = sorted(set(coords))
        # Leaves: 0 .. 2m; even indices are open slabs, odd are points.
        self.num_leaves = 2 * len(self.coords) + 1 if self.coords else 1
        # Per-node element lists, keyed by (lo, hi) leaf ranges laid out
        # in an implicit recursion; nodes materialise lazily in a dict.
        self.lists: Dict[Tuple[int, int], List[Element]] = {}
        self.assignments: Dict[Element, List[Tuple[int, int]]] = {}

    # -- leaf arithmetic ------------------------------------------------
    def leaf_of(self, x: float) -> int:
        """The elementary slab containing the point ``x``."""
        i = bisect.bisect_left(self.coords, x)
        if i < len(self.coords) and self.coords[i] == x:
            return 2 * i + 1
        return 2 * i

    def full_leaf_range(self, interval: Interval) -> Tuple[int, int, bool, bool]:
        """Leaf range fully covered by ``interval`` plus partial flags.

        Returns ``(lo_leaf, hi_leaf, partial_lo, partial_hi)`` where the
        full range is ``[lo_leaf, hi_leaf]`` (may be empty when
        ``lo_leaf > hi_leaf``) and each partial flag says the interval
        additionally covers part of the slab just outside that end.
        """
        la = self.leaf_of(interval.lo)
        lb = self.leaf_of(interval.hi)
        partial_lo = la % 2 == 0  # off-grid endpoint sits in an open slab
        partial_hi = lb % 2 == 0
        lo_full = la + 1 if partial_lo else la
        hi_full = lb - 1 if partial_hi else lb
        return lo_full, hi_full, partial_lo, partial_hi

    # -- canonical assignment -------------------------------------------
    def insert(self, element: Element) -> None:
        interval: Interval = self.interval_of(element)
        lo_full, hi_full, partial_lo, partial_hi = self.full_leaf_range(interval)
        nodes: List[Tuple[int, int]] = []
        if lo_full <= hi_full:
            self._assign(0, self.num_leaves - 1, lo_full, hi_full, nodes)
        if partial_lo:
            leaf = self.leaf_of(interval.lo)
            if not (lo_full <= leaf <= hi_full):
                nodes.append(self._leaf_key(leaf))
        if partial_hi:
            leaf = self.leaf_of(interval.hi)
            key = self._leaf_key(leaf)
            if key not in nodes and not (lo_full <= leaf <= hi_full):
                nodes.append(key)
        for key in nodes:
            self._insort(key, element)
        self.assignments[element] = nodes

    def delete(self, element: Element) -> None:
        for key in self.assignments.pop(element):
            self.lists[key].remove(element)

    def _leaf_key(self, leaf: int) -> Tuple[int, int]:
        return (leaf, leaf)

    def _assign(
        self, lo: int, hi: int, a: int, b: int, out: List[Tuple[int, int]]
    ) -> None:
        if b < lo or hi < a:
            return
        if a <= lo and hi <= b:
            out.append((lo, hi))
            return
        mid = (lo + hi) // 2
        self._assign(lo, mid, a, b, out)
        self._assign(mid + 1, hi, a, b, out)

    def _insort(self, key: Tuple[int, int], element: Element) -> None:
        lst = self.lists.setdefault(key, [])
        lst.insert(_first_below(lst, element.weight), element)

    # -- query ------------------------------------------------------------
    def path_nodes(self, x: float) -> List[Tuple[Tuple[int, int], bool]]:
        """Node keys on the root-to-leaf path of ``x``.

        Each entry is ``(key, is_leaf)``; only leaf nodes may hold
        partial assignments needing an exact containment check.
        """
        leaf = self.leaf_of(x)
        path: List[Tuple[Tuple[int, int], bool]] = []
        lo, hi = 0, self.num_leaves - 1
        while True:
            path.append(((lo, hi), lo == hi))
            if lo == hi:
                return path
            mid = (lo + hi) // 2
            if leaf <= mid:
                hi = mid
            else:
                lo = mid + 1

    def total_stored(self) -> int:
        """Total list entries — the ``O(n log n)`` space figure."""
        return sum(len(lst) for lst in self.lists.values())


# ----------------------------------------------------------------------
# Prioritized reporting
# ----------------------------------------------------------------------
class SegmentTreeIntervalPrioritized(DynamicPrioritizedIndex):
    """Prioritized interval stabbing: ``O(log n + t)``, dynamic.

    Every canonical list is ordered by descending weight, so a query
    walks the ``O(log n)`` path nodes and scans each list only as deep
    as the threshold ``tau`` — every scanned entry of an internal node
    is reported, giving exact output sensitivity.  In EM mode (pass
    ``ctx``) the lists are mirrored into :class:`BlockArray`s and the
    scan costs ``O(t/B)`` I/Os; EM mode is static (updates raise).
    """

    def __init__(
        self,
        elements: Sequence[Element],
        ctx: Optional[EMContext] = None,
        interval_of=None,
    ) -> None:
        self.ops = OpCounter()
        self.ctx = ctx
        self.interval_of = interval_of if interval_of is not None else _obj_interval
        self._n = 0
        self._built_n = max(1, len(elements))
        self._tree = _SegmentTree(_endpoint_grid(elements, self.interval_of), self.interval_of)
        for element in elements:
            self._tree.insert(element)
            self._n += 1
        self._blocks: Optional[BlockArray] = None
        self._segments: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._node_blocks: Dict[Tuple[int, int], int] = {}
        if ctx is not None:
            self._freeze_to_blocks()

    def _freeze_to_blocks(self) -> None:
        """Pack every canonical list into one shared BlockArray.

        Sub-block lists would each waste most of a block if stored
        separately; concatenating them (recording per-key offsets) keeps
        the structure at ``ceil(total/B)`` blocks, as the EM model
        intends.  Lists stay weight-descending within their segment.
        """
        assert self.ctx is not None
        records: List[Element] = []
        self._segments = {}
        for key, lst in self._tree.lists.items():
            self._segments[key] = (len(records), len(lst))
            records.extend(lst)
        self._blocks = BlockArray(self.ctx, records)
        # Node metadata packed B keys per block, root-most nodes first:
        # reading a node costs an I/O only while its block is out of
        # cache, so repeated queries keep the upper tree levels resident
        # — matching the model machine rather than charging analytically.
        self._node_blocks = {}
        ordered_keys = sorted(self._tree.lists, key=lambda k: -(k[1] - k[0]))
        for start in range(0, len(ordered_keys), self.ctx.B):
            chunk = ordered_keys[start : start + self.ctx.B]
            block_id = self.ctx.allocate_block(list(chunk))
            for key in chunk:
                self._node_blocks[key] = block_id
        self.ctx.flush()

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    def query_cost_bound(self) -> float:
        """``Q_pri(n) = O(log n)`` — the path length."""
        return max(1.0, math.log2(max(2, self._n)))

    def query(
        self, predicate: StabbingPredicate, tau: float, limit: Optional[int] = None
    ) -> PrioritizedResult:
        """Scan each path node's list one slice at a time down to ``tau``.

        A slice is one block's share of the list in EM mode and the
        whole list in RAM mode.  Lists are weight-descending, so the
        records at or above ``tau`` are a prefix of each slice; the scan
        reads the next block only while every record so far was kept
        and the answer still fits ``limit``.
        """
        x = predicate.x
        ops = self.ops
        out: List[Element] = []
        for key, is_leaf in self._tree.path_nodes(x):
            ops.node_visits += 1
            if self.ctx is not None:
                block_id = self._node_blocks.get(key)
                if block_id is not None:
                    self.ctx.read_block(block_id)  # cached node metadata
            for chunk in self._slices(key):
                cut = _first_below(chunk, tau)
                kept = chunk if cut == len(chunk) else chunk[:cut]
                if is_leaf:
                    # Leaf lists may hold partial assignments: check each.
                    for element in kept:
                        ops.scanned += 1
                        if self.interval_of(element).contains(x):
                            out.append(element)
                            if limit is not None and len(out) > limit:
                                return PrioritizedResult(out, truncated=True)
                elif limit is not None and len(out) + len(kept) > limit:
                    take = limit + 1 - len(out)
                    ops.scanned += take
                    out.extend(kept[:take])
                    return PrioritizedResult(out, truncated=True)
                else:
                    ops.scanned += cut
                    out.extend(kept)
                if cut < len(chunk):
                    break  # reached tau: the rest of the list is lighter
        return PrioritizedResult(out, truncated=False)

    def _slices(self, key: Tuple[int, int]):
        """The canonical list of ``key``: its block slices, or itself."""
        if self._blocks is None:
            lst = self._tree.lists.get(key)
            return (lst,) if lst else ()
        segment = self._segments.get(key)
        if segment is None:
            return ()
        offset, length = segment
        return self._blocks.chunks(offset, offset + length)

    # ------------------------------------------------------------------
    # Updates (RAM mode only)
    # ------------------------------------------------------------------
    def insert(self, element: Element) -> None:
        """Insert in ``O(log^2 n)`` amortized (list insertion + rebuilds)."""
        self._require_ram_mode()
        self._tree.insert(element)
        self._n += 1
        self._maybe_rebuild()

    def delete(self, element: Element) -> None:
        """Delete in ``O(log n)`` canonical nodes (list removals)."""
        self._require_ram_mode()
        self._tree.delete(element)
        self._n -= 1
        self._maybe_rebuild()

    def _require_ram_mode(self) -> None:
        if self.ctx is not None:
            raise TypeError("EM-mode SegmentTreeIntervalPrioritized is static")

    def _maybe_rebuild(self) -> None:
        # Off-grid insertions pile elements onto boundary leaves; rebuild
        # the grid when n drifts so the leaf lists stay balanced.
        if self._n > 2 * self._built_n or (self._n < self._built_n // 2 and self._built_n > 4):
            elements = list(self._tree.assignments)
            self._built_n = max(1, self._n)
            self._tree = _SegmentTree(_endpoint_grid(elements, self.interval_of), self.interval_of)
            for element in elements:
                self._tree.insert(element)

    def space_units(self) -> int:
        """Stored list entries (``O(n log n)`` words)."""
        return self._tree.total_stored()

    # ------------------------------------------------------------------
    # Durability (snapshot/restore)
    # ------------------------------------------------------------------
    SNAPSHOT_FORMAT = "segtree-interval-prioritized"
    SNAPSHOT_VERSION = 1

    def snapshot_state(self) -> dict:
        """The element list — construction is otherwise deterministic.

        The grid, canonical assignments, and weight-ordered lists are
        all deterministic functions of the element set, so the restored
        structure is identical without recording them.  ``interval_of``
        is code; the restorer supplies it (and a context) again.
        """
        return {
            "format": self.SNAPSHOT_FORMAT,
            "version": self.SNAPSHOT_VERSION,
            "elements": list(self._tree.assignments),
            "built_n": self._built_n,
        }

    @classmethod
    def restore(
        cls,
        state: dict,
        ctx: Optional[EMContext] = None,
        interval_of=None,
    ) -> "SegmentTreeIntervalPrioritized":
        if state.get("format") != cls.SNAPSHOT_FORMAT:
            raise TypeError(
                f"snapshot format {state.get('format')!r} is not "
                f"{cls.SNAPSHOT_FORMAT!r}"
            )
        self = cls(state["elements"], ctx=ctx, interval_of=interval_of)
        self._built_n = state["built_n"]
        return self


# ----------------------------------------------------------------------
# Max reporting
# ----------------------------------------------------------------------
class StaticIntervalStabbingMax(DynamicMaxIndex):
    """The paper's folklore static 1D stabbing-max (Section 5.2).

    The ``2n`` endpoints split the line into at most ``2n + 1``
    subintervals; each carries the heaviest interval spanning it, found
    by a sweep.  A query is a predecessor search over the endpoints:
    ``O(log n)`` in RAM, ``O(log_B n)`` I/Os through the optional
    B-tree.  Despite subclassing the dynamic interface for registry
    uniformity, updates rebuild (amortised ``O(n)``) — use
    :class:`DynamicIntervalStabbingMax` when updates matter.
    """

    def __init__(
        self,
        elements: Sequence[Element],
        ctx: Optional[EMContext] = None,
        interval_of=None,
    ) -> None:
        self.ops = OpCounter()
        self.ctx = ctx
        self.interval_of = interval_of if interval_of is not None else _obj_interval
        self._elements = list(elements)
        self._build()

    def _build(self) -> None:
        # Elementary slabs over the endpoint grid: for m distinct
        # coordinates there are 2m + 1 slabs, alternating open gaps and
        # single points (the same indexing as _SegmentTree.leaf_of), so
        # closed intervals cover an exact slab range.
        self._coords: List[float] = sorted(
            {
                c
                for e in self._elements
                for c in (self.interval_of(e).lo, self.interval_of(e).hi)
            }
        )
        coord_index = {c: i for i, c in enumerate(self._coords)}
        opens: List[List[Element]] = [[] for _ in self._coords]
        closes: List[List[Element]] = [[] for _ in self._coords]
        for element in self._elements:
            interval: Interval = self.interval_of(element)
            opens[coord_index[interval.lo]].append(element)
            closes[coord_index[interval.hi]].append(element)
        num_slabs = 2 * len(self._coords) + 1
        self._champions: List[Optional[Element]] = [None] * num_slabs
        active: List[Tuple[float, int]] = []  # (-weight, seq) lazy-deletion heap
        alive: Dict[int, Element] = {}
        seqs_of: Dict[Element, List[int]] = {}
        dead: set = set()
        seq = 0
        for i in range(len(self._coords)):
            # Point slab {c_i} (index 2i + 1): intervals opening here count.
            for element in opens[i]:
                heapq.heappush(active, (-element.weight, seq))
                alive[seq] = element
                seqs_of.setdefault(element, []).append(seq)
                seq += 1
            self._champions[2 * i + 1] = self._heap_max(active, alive, dead)
            # Open slab (c_i, c_{i+1}) (index 2i + 2): closers drop out.
            for element in closes[i]:
                dead.add(seqs_of[element].pop())
            self._champions[2 * i + 2] = self._heap_max(active, alive, dead)
        self._btree: Optional[BPlusTree] = None
        if self.ctx is not None and self._coords:
            items = [(c, i) for i, c in enumerate(self._coords)]
            self._btree = BPlusTree(self.ctx, items, presorted=True)

    @staticmethod
    def _heap_max(active, alive, dead) -> Optional[Element]:
        while active and active[0][1] in dead:
            heapq.heappop(active)
        if not active:
            return None
        return alive[active[0][1]]

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._elements)

    def query_cost_bound(self) -> float:
        """``Q_max = O(log n)`` (``O(log_B n)`` with the B-tree)."""
        if self.ctx is not None and self._btree is not None:
            base = max(2.0, float(self.ctx.B))
            return max(1.0, math.log(max(2, self.n), base))
        return max(1.0, math.log2(max(2, self.n)))

    def query(self, predicate: StabbingPredicate) -> Optional[Element]:
        x = predicate.x
        if not self._coords:
            return None
        if self._btree is not None:
            hit = self._btree.predecessor(x)
            if hit is None:
                slab = 0  # x lies left of every endpoint
            elif hit[0] == x:
                slab = 2 * hit[1] + 1  # the point slab {x}
            else:
                slab = 2 * hit[1] + 2  # the open slab right of hit
        else:
            i = bisect.bisect_left(self._coords, x)
            if i < len(self._coords) and self._coords[i] == x:
                slab = 2 * i + 1
            else:
                slab = 2 * i
            self.ops.node_visits += max(1, int(math.log2(max(2, len(self._coords)))))
        return self._champions[slab]

    # Rebuild-style updates (registry uniformity; see class docstring).
    def insert(self, element: Element) -> None:
        self._elements.append(element)
        self._build()

    def delete(self, element: Element) -> None:
        self._elements.remove(element)
        self._build()

    @property
    def endpoint_grid(self) -> List[float]:
        """The sorted endpoint coordinates (the predecessor-search keys).

        Exposed so fractional-cascading consumers (Section 5.2's 2D
        stabbing max) can cascade over the same grid this structure
        searches.
        """
        return self._coords

    def champion_for_predecessor(self, pred: int, x: float) -> Optional[Element]:
        """Champion lookup given an externally computed predecessor.

        ``pred`` is the index of the largest endpoint ``<= x`` (``-1``
        if none) — e.g. produced by a fractional-cascading descent.
        Translates it to the elementary slab and returns that slab's
        heaviest spanning interval without re-searching.
        """
        if pred < 0:
            slab = 0
        elif self._coords[pred] == x:
            slab = 2 * pred + 1
        else:
            slab = 2 * pred + 2
        return self._champions[slab]

    def space_units(self) -> int:
        """Subinterval table size (``O(n)`` words)."""
        return 2 * (2 * len(self._coords) + 1)

    # ------------------------------------------------------------------
    # Durability (snapshot/restore)
    # ------------------------------------------------------------------
    SNAPSHOT_FORMAT = "static-interval-stabbing-max"
    SNAPSHOT_VERSION = 1

    def snapshot_state(self) -> dict:
        """The element list — the champion sweep is deterministic."""
        return {
            "format": self.SNAPSHOT_FORMAT,
            "version": self.SNAPSHOT_VERSION,
            "elements": list(self._elements),
        }

    @classmethod
    def restore(
        cls,
        state: dict,
        ctx: Optional[EMContext] = None,
        interval_of=None,
    ) -> "StaticIntervalStabbingMax":
        if state.get("format") != cls.SNAPSHOT_FORMAT:
            raise TypeError(
                f"snapshot format {state.get('format')!r} is not "
                f"{cls.SNAPSHOT_FORMAT!r}"
            )
        return cls(state["elements"], ctx=ctx, interval_of=interval_of)


class DynamicIntervalStabbingMax(DynamicMaxIndex):
    """Dynamic stabbing max over the segment tree: ``O(log n)`` query.

    Substitutes for the stabbing-semigroup structure of Agarwal et al.
    [7] — same interface, ``O(log n)`` query and ``O(log n)`` canonical
    nodes per update (list maintenance makes updates ``O(log^2 n)``
    amortized in this implementation).
    """

    def __init__(self, elements: Sequence[Element], interval_of=None) -> None:
        self.ops = OpCounter()
        self._inner = SegmentTreeIntervalPrioritized(elements, interval_of=interval_of)

    @property
    def n(self) -> int:
        return self._inner.n

    def query_cost_bound(self) -> float:
        return self._inner.query_cost_bound()

    def query(self, predicate: StabbingPredicate) -> Optional[Element]:
        x = predicate.x
        tree = self._inner._tree
        best: Optional[Element] = None
        for key, is_leaf in tree.path_nodes(x):
            self.ops.node_visits += 1
            lst = tree.lists.get(key)
            if not lst:
                continue
            if not is_leaf:
                candidate = lst[0]  # heaviest, lists are weight-descending
                if best is None or candidate.weight > best.weight:
                    best = candidate
            else:
                for element in lst:
                    if best is not None and element.weight <= best.weight:
                        break  # weight-descending: nothing better remains
                    if self._inner.interval_of(element).contains(x):
                        best = element
                        break
        return best

    def insert(self, element: Element) -> None:
        """Amortized ``O(log^2 n)`` (canonical nodes x list insertion)."""
        self._inner.insert(element)

    def delete(self, element: Element) -> None:
        """Amortized ``O(log^2 n)``."""
        self._inner.delete(element)

    def space_units(self) -> int:
        return self._inner.space_units()


class IntervalStabbingCounter(CountingIndex):
    """Exact stabbing counting in ``O(log n)`` via the segment tree.

    Internal canonical nodes contribute their full list sizes (every
    stored interval spans the node's slab); leaf assignments are checked
    exactly.  Supplies the counting black box of the Section 2 reduction
    (:class:`repro.core.counting.CountingTopKIndex`).
    """

    def __init__(self, elements: Sequence[Element], interval_of=None) -> None:
        self.ops = OpCounter()
        self.interval_of = interval_of if interval_of is not None else _obj_interval
        self._tree = _SegmentTree(_endpoint_grid(elements, self.interval_of), self.interval_of)
        for element in elements:
            self._tree.insert(element)
        self._n = len(elements)

    @property
    def n(self) -> int:
        return self._n

    @property
    def approximation_factor(self) -> float:
        return 1.0

    def count(self, predicate: StabbingPredicate) -> int:
        x = predicate.x
        total = 0
        for key, is_leaf in self._tree.path_nodes(x):
            self.ops.node_visits += 1
            lst = self._tree.lists.get(key)
            if not lst:
                continue
            if is_leaf:
                total += sum(1 for e in lst if self.interval_of(e).contains(x))
            else:
                total += len(lst)
        return total

    def space_units(self) -> int:
        return self._tree.total_stored()


def _first_below(records: Sequence[Element], weight: float) -> int:
    """Index of the first record lighter than ``weight``.

    ``records`` is weight-descending, so this is where a record of
    ``weight`` is inserted after its equals, and the length of the
    prefix a scan down to threshold ``weight`` keeps.
    """
    lo, hi = 0, len(records)
    if hi and records[-1].weight >= weight:
        return hi
    while lo < hi:
        mid = (lo + hi) // 2
        if records[mid].weight < weight:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _endpoint_grid(elements: Sequence[Element], interval_of=None) -> List[float]:
    """All interval endpoints — the slab grid of the segment tree."""
    interval_of = interval_of if interval_of is not None else _obj_interval
    coords: List[float] = []
    for element in elements:
        interval: Interval = interval_of(element)
        coords.append(interval.lo)
        coords.append(interval.hi)
    return coords


def _obj_interval(element: Element) -> Interval:
    """Default accessor: the element's object *is* the interval."""
    return element.obj
