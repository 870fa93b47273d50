"""Theorem 1: a worst-case top-k structure from a prioritized structure.

Given any prioritized structure for a polynomially-bounded problem with
``Q_pri(n) >= log_B n`` and geometrically converging space, the paper
builds a top-k structure with ``S_top = O(S_pri)`` and

    Q_top(n) = O( Q_pri(n) * log n / (log B + log(Q_pri/log_B n)) )
             = O( Q_pri(n) * log_B n ).

The construction (Section 3.2) has two regimes:

* **small k** (``k <= f`` with ``f = Theta(B * Q_pri(n))``): a nested
  chain of core-sets ``D = R_0 ⊃ R_1 ⊃ ...`` all at level ``K = f``,
  each carrying its own prioritized structure.  A top-f query recurses:
  if the cost-monitored probe on ``R_j`` truncates (``|q(R_j)| > 4f``),
  the recursion obtains from ``R_{j+1}`` an element whose weight rank in
  ``q(R_j)`` is between ``f`` and ``4f`` and uses it as the threshold of
  an exact prioritized query on ``R_j``.
* **large k**: a doubling ladder of core-sets ``R[i]`` at levels
  ``K = 2^{i-1} f``, each carrying a *top-f structure* of the first
  kind.  The top-f answer on ``R[i]`` supplies the threshold for one
  prioritized query on ``D`` that fetches ``Theta(K) = Theta(k)``
  candidates, finished by k-selection.

Sampling can fail (the paper's constants make this improbable; our
practical constants make it merely rare).  Every failure is *detected*
— the thresholded fetch returns fewer elements than needed — and the
query falls back to an exact prioritized query, so answers are always
exact; the event is counted in :attr:`WorstCaseTopKIndex.stats`.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from repro.core.columnar import (
    ScanCache,
    columnar_top_k,
    ground_columns,
    next_structure_id,
    predicate_key,
)
from repro.core.coreset import (
    CoresetHierarchy,
    CoresetStats,
    build_hierarchy,
    doubling_coresets,
)
from repro.core.interfaces import PrioritizedFactory, PrioritizedIndex, TopKIndex
from repro.core.params import TuningParams
from repro.core.problem import Element, Predicate, require_distinct_weights
from repro.em.selection import select_top_k
from repro.resilience.errors import SerializationError


@dataclass
class ReductionStats:
    """Per-index counters exposed to the benchmarks."""

    queries: int = 0
    monitored_probes: int = 0
    threshold_fetches: int = 0
    fallbacks: int = 0
    full_scans: int = 0
    batch_queries: int = 0
    memo_hits: int = 0

    def reset(self) -> None:
        self.queries = 0
        self.monitored_probes = 0
        self.threshold_fetches = 0
        self.fallbacks = 0
        self.full_scans = 0
        self.batch_queries = 0
        self.memo_hits = 0


class _TopFStructure:
    """The small-k structure: a core-set chain with per-level indexes.

    ``levels[0]`` is the ground set this structure answers top-f queries
    about; deeper levels are nested core-sets at the fixed level
    ``K = f``.  ``indexes[j]`` is the prioritized structure on
    ``levels[j]`` (the deepest level is answered by scanning instead).
    """

    def __init__(
        self,
        elements: Sequence[Element],
        f: int,
        factory: PrioritizedFactory,
        params: TuningParams,
        rng: random.Random,
        stats: ReductionStats,
        ground_index: Optional[PrioritizedIndex] = None,
        hierarchy: Optional[CoresetHierarchy] = None,
    ) -> None:
        self.f = f
        self.params = params
        self.stats = stats
        #: Monotonic id keying shared memo windows.  ``id(self)`` is not
        #: usable: a long-lived window can outlive this structure, and a
        #: successor allocated at the same address would then alias its
        #: memoized answers.  The counter never repeats in a process.
        self.sid = next_structure_id()
        # A prebuilt hierarchy (snapshot restore) skips the sampling —
        # the recorded levels *are* the coin flips being replayed.
        if hierarchy is None:
            hierarchy = build_hierarchy(elements, float(f), params, rng)
        self.hierarchy: CoresetHierarchy = hierarchy
        self.levels = self.hierarchy.levels
        self.indexes: List[Optional[PrioritizedIndex]] = []
        last = len(self.levels) - 1
        for j, level in enumerate(self.levels):
            if j == last and len(level) <= params.slack * f:
                # Bottom level: answered by a scan, no index needed.
                self.indexes.append(None)
            elif j == 0 and ground_index is not None:
                self.indexes.append(ground_index)
            else:
                self.indexes.append(factory(level))

    # ------------------------------------------------------------------
    def top_f(
        self, predicate: Predicate, memo: Optional[dict] = None
    ) -> List[Element]:
        """The up-to-``f`` heaviest elements of ``q(levels[0])``, heaviest first.

        ``memo`` (a :meth:`WorstCaseTopKIndex.batched` window) caches
        the whole chain descent per predicate: a second top-f on the
        same predicate inside the window — different ``k`` values of a
        batch landing on the same ladder level, or a guard retry after
        a transient fault — reuses the traversal instead of repeating
        it.
        """
        if memo is None:
            return self._query_level(0, predicate)
        key = (self.sid, predicate_key(predicate))
        cached = memo.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        answer = self._query_level(0, predicate)
        memo[key] = answer
        return answer

    def _query_level(self, j: int, predicate: Predicate) -> List[Element]:
        level = self.levels[j]
        index = self.indexes[j]
        cap = math.ceil(self.params.slack * self.f)
        if index is None:
            # Bottom of the recursion: |R_h| <= 4f, scan it.
            matching = [e for e in level if predicate.matches(e.obj)]
            return select_top_k(matching, self.f)
        self.stats.monitored_probes += 1
        probe = index.query(predicate, -math.inf, limit=cap)
        if not probe.truncated:
            # |q(R_j)| <= 4f: the probe fetched everything; k-select.
            return select_top_k(probe.elements, self.f)
        if j + 1 >= len(self.levels):
            # The chain stopped early (saturated sampling rate): exact query.
            self.stats.fallbacks += 1
            exact = index.query(predicate, -math.inf)
            return select_top_k(exact.elements, self.f)
        # |q(R_j)| > 4f: consult the next core-set for a threshold.
        deeper = self._query_level(j + 1, predicate)
        rank = self._probe_rank(j)
        if rank <= len(deeper):
            threshold = deeper[rank - 1].weight
            self.stats.threshold_fetches += 1
            fetched = index.query(predicate, threshold)
            if len(fetched.elements) >= self.f:
                return select_top_k(fetched.elements, self.f)
        # The sampled rank fell outside its window — exact fallback.
        self.stats.fallbacks += 1
        exact = index.query(predicate, -math.inf)
        return select_top_k(exact.elements, self.f)

    def _probe_rank(self, j: int) -> int:
        """The rank probed in ``q(R_{j+1})`` — Lemma 1's ``ceil(2 K p)``.

        ``p`` is the rate actually used to sample ``R_{j+1}`` from
        ``R_j`` (recorded at build time), so the rank matches the
        sampling regardless of tuned constants.
        """
        rates = self.hierarchy.stats.rates
        p = rates[j + 1] if j + 1 < len(rates) else 1.0
        return max(1, math.ceil(2.0 * self.f * p))

    def space_units(self) -> int:
        """Total space of the per-level prioritized structures."""
        return sum(index.space_units() for index in self.indexes if index is not None)


class WorstCaseTopKIndex(TopKIndex):
    """The Theorem 1 top-k structure.

    Parameters
    ----------
    elements:
        The input set ``D`` (distinct weights).
    factory:
        Builds a prioritized structure over any subset — the black box
        being reduced.
    params:
        Tuning constants; ``TuningParams.paper_faithful()`` reproduces
        the proof's constants exactly.
    B:
        The block size used to set ``f = Theta(B * Q_pri(n))``.  In the
        RAM model pass a small constant (the default 2), as the paper
        prescribes ("by setting M and B to appropriate constants").
    rng / seed:
        Randomness for core-set sampling (construction only — queries
        are deterministic, as Theorem 1's bounds are worst-case).
    columnar:
        ``True`` (the default) mirrors a RAM-resident ``D`` into
        weight-descending columns and answers every query through
        :func:`~repro.core.columnar.columnar_top_k`, whose structure
        probe runs on the ground index with the regime's cap; ``False``
        keeps every query on the paper's core-set descent.  EM grounds
        always do.
    """

    def __init__(
        self,
        elements: Sequence[Element],
        factory: PrioritizedFactory,
        params: Optional[TuningParams] = None,
        B: int = 2,
        rng: Optional[random.Random] = None,
        seed: int = 0,
        columnar: bool = True,
    ) -> None:
        self.params = params if params is not None else TuningParams()
        self._elements = list(elements)
        require_distinct_weights(self._elements, "WorstCaseTopKIndex")
        self._factory = factory
        self.B = B
        self.stats = ReductionStats()
        self.applied_lsn = 0
        self._memo: Optional[dict] = None
        rng = rng if rng is not None else random.Random(seed)

        self._ground = factory(self._elements)
        self._init_columns(columnar)
        q_pri = self._ground.query_cost_bound()
        self.f = min(
            self.params.small_k_cutoff(B, q_pri),
            max(1, len(self._elements)),
        )
        # Small-k machinery: a top-f structure whose ground level is D
        # itself (reusing the main prioritized index).
        self._small = _TopFStructure(
            self._elements, self.f, factory, self.params, rng, self.stats,
            ground_index=self._ground,
        )
        # Large-k machinery: the doubling ladder R[1..h], each level
        # carrying its own top-f structure.
        self._ladder: List[_TopFStructure] = []
        self._ladder_rates: List[float] = []
        n = len(self._elements)
        for i, coreset in enumerate(doubling_coresets(self._elements, self.f, self.params, rng)):
            K = float((2**i) * self.f)  # 0-based i: ladder level K = 2^{i-1} f, 1-based
            self._ladder.append(
                _TopFStructure(
                    coreset, self.f, factory, self.params, rng, self.stats,
                )
            )
            self._ladder_rates.append(self.params.coreset_rate(n, K))

    def _init_columns(self, columnar: bool) -> None:
        """Mirror a RAM-resident ``D`` into columns (``None`` otherwise)."""
        self._columnar = columnar
        self._columns = (
            ground_columns(self._ground, self._elements) if columnar else None
        )
        self._scans = ScanCache()

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._elements)

    def note_applied(self, lsn: int) -> None:
        """Record the highest WAL LSN folded into this in-memory state.

        Maintained by the durability/replication layers; the structure
        itself never assigns LSNs.  Lets replica schedulers compare
        index freshness without reaching into the WAL.
        """
        if lsn > self.applied_lsn:
            self.applied_lsn = lsn

    @contextmanager
    def batched(self):
        """A shared-traversal window for a batch of queries.

        Inside the window, repeated core-set descents (``top_f`` per
        predicate) are memoized, so queries that the batch planner did
        not merge — same predicate at ``k`` values landing on the same
        ladder level, or a retry re-running a query after a transient
        fault — skip work already done.  The memo must not outlive the
        batch: the structure is static, but the window is the unit at
        which answers were planned.  Nested windows share the outermost
        memo.
        """
        previous = self._memo
        self._memo = {} if previous is None else previous
        try:
            yield self
        finally:
            self._memo = previous

    def query_topk_batch(self, requests, **kwargs) -> List[List[Element]]:
        """Batched queries: one traversal per predicate group, memo on.

        See :meth:`TopKIndex.query_topk_batch` for the grouping
        contract; this override additionally opens a :meth:`batched`
        memo window for the batch's duration.
        """
        from repro.serving.batch import execute_batch

        self.stats.batch_queries += len(requests)
        with self.batched():
            return execute_batch(self, requests, **kwargs)

    def query(self, predicate: Predicate, k: int) -> List[Element]:
        """Exact top-k answer, heaviest first.

        With ground columns, every query makes one columns-vs-structure
        decision (:func:`~repro.core.columnar.columnar_top_k`) whose
        monitored probe runs on ``D``'s structure with the regime's cap
        ``⌈slack·K⌉``; otherwise the paper's core-set descent answers.
        """
        self.stats.queries += 1
        if k <= 0 or self.n == 0:
            return []
        i = self._ladder_level(k)
        if self._columns is not None:
            cap = None
            if i is not None:  # K = f at the chain and ladder level 1
                cap = math.ceil(self.params.slack * self.f * 2 ** max(0, i - 1))
            return columnar_top_k(
                self._columns, self._scans, self._ground, self.stats,
                predicate, k, cap,
            )
        if i is None:
            # O(n/B) = O(k/B): scan everything, through the ground
            # structure so the I/O cost is counted.
            self.stats.full_scans += 1
            result = self._ground.query(predicate, -math.inf)
            return select_top_k(result.elements, k)
        if i == 0:
            top = self._small.top_f(predicate, memo=self._memo)
            return top[:k]
        return self._large_k(predicate, k, i)

    def _ladder_level(self, k: int) -> Optional[int]:
        """Which structure answers ``k``: ``0`` is the small-k chain
        (``k <= f``), ``i >= 1`` the doubling-ladder level with
        ``K = 2^{i-1} f`` (the smallest ``>= k``), and ``None`` a full
        scan of ``D`` (``k >= n/2``, or ``k`` past the ladder)."""
        if k <= self.f:
            return 0
        if k >= self.n / 2:
            return None
        # Smallest i (1-based) with 2^{i-1} f >= k; K in [k, 2k).
        i = max(1, math.ceil(math.log2(k / self.f)) + 1)
        while (2 ** (i - 1)) * self.f < k:  # guard against float rounding
            i += 1
        return i if i <= len(self._ladder) else None

    def _large_k(self, predicate: Predicate, k: int, i: int) -> List[Element]:
        """Queries with ``f < k < n/2`` via doubling-ladder level ``i``."""
        K = (2 ** (i - 1)) * self.f
        cap = math.ceil(self.params.slack * K)
        self.stats.monitored_probes += 1
        probe = self._ground.query(predicate, -math.inf, limit=cap)
        if not probe.truncated:
            return select_top_k(probe.elements, k)
        # |q(D)| > 4K: obtain a threshold from the ladder's top-f answer.
        top_f = self._ladder[i - 1].top_f(predicate, memo=self._memo)
        rank = max(1, math.ceil(2.0 * K * self._ladder_rates[i - 1]))
        if rank <= len(top_f):
            threshold = top_f[rank - 1].weight
            self.stats.threshold_fetches += 1
            fetched = self._ground.query(predicate, threshold)
            if len(fetched.elements) >= k:
                return select_top_k(fetched.elements, k)
        self.stats.fallbacks += 1
        exact = self._ground.query(predicate, -math.inf)
        return select_top_k(exact.elements, k)

    # ------------------------------------------------------------------
    def space_units(self) -> int:
        """Space of every prioritized structure in the reduction.

        Theorem 1 claims ``S_top = O(S_pri)``; bench E4 audits this
        number against the ground structure's own footprint.
        """
        total = self._small.space_units()
        for ladder_struct in self._ladder:
            total += ladder_struct.space_units()
        return total

    def ground_space_units(self) -> int:
        """Footprint of the single prioritized structure on ``D``."""
        return self._ground.space_units()

    # ------------------------------------------------------------------
    # Durability (snapshot/restore)
    # ------------------------------------------------------------------
    SNAPSHOT_FORMAT = "worstcase-topk"
    SNAPSHOT_VERSION = 1

    def snapshot_state(self) -> dict:
        """Everything needed to rebuild this index *bit-for-bit*.

        The core-set hierarchies are the structure's only randomness;
        recording every level's membership (as indices into the element
        list) and the sampling rates actually used replays those coin
        flips exactly — restored queries take the same recursion paths,
        probe the same ranks, and return identical answers.
        """
        elements = self._elements
        index_of = {element: i for i, element in enumerate(elements)}

        def hierarchy_state(hierarchy: CoresetHierarchy) -> dict:
            return {
                "levels": [
                    [index_of[element] for element in level]
                    for level in hierarchy.levels
                ],
                "rates": list(hierarchy.stats.rates),
                "K": hierarchy.K,
            }

        state = {
            "format": self.SNAPSHOT_FORMAT,
            "version": self.SNAPSHOT_VERSION,
            "elements": list(elements),
            "B": self.B,
            "f": self.f,
            "params": asdict(self.params),
            "small": hierarchy_state(self._small.hierarchy),
            "ladder": [hierarchy_state(s.hierarchy) for s in self._ladder],
            "ladder_rates": list(self._ladder_rates),
        }
        if not self._columnar:
            # Only the non-default switch is written, so snapshots of a
            # default build keep their exact record stream.
            state["columnar"] = False
        return state

    @classmethod
    def restore(
        cls, state: dict, factory: PrioritizedFactory
    ) -> "WorstCaseTopKIndex":
        """Rebuild from :meth:`snapshot_state` output.

        Per-level prioritized structures are deterministic functions of
        their element lists, so rebuilding them through the factory on
        the recorded levels reproduces the original exactly.
        """
        if state.get("format") != cls.SNAPSHOT_FORMAT:
            raise SerializationError(
                f"snapshot format {state.get('format')!r} is not "
                f"{cls.SNAPSHOT_FORMAT!r}"
            )
        if state.get("version") != cls.SNAPSHOT_VERSION:
            raise SerializationError(
                f"snapshot version {state.get('version')!r} unsupported "
                f"(this build reads {cls.SNAPSHOT_VERSION})"
            )
        self = cls.__new__(cls)
        self.params = TuningParams(**state["params"])
        elements: List[Element] = list(state["elements"])
        require_distinct_weights(elements, "WorstCaseTopKIndex.restore")
        self._elements = elements
        self._factory = factory
        self.B = state["B"]
        self.stats = ReductionStats()
        self.applied_lsn = 0
        self._memo = None
        self._ground = factory(elements)
        self._init_columns(state.get("columnar", True))
        self.f = state["f"]

        def hierarchy_from(hstate: dict) -> CoresetHierarchy:
            levels = [
                [elements[j] for j in level] for level in hstate["levels"]
            ]
            stats = CoresetStats(
                sizes=[len(level) for level in levels],
                rates=list(hstate["rates"]),
            )
            return CoresetHierarchy(levels=levels, K=hstate["K"], stats=stats)

        rng = random.Random(0)  # never drawn from: hierarchies are prebuilt
        self._small = _TopFStructure(
            elements, self.f, factory, self.params, rng, self.stats,
            ground_index=self._ground,
            hierarchy=hierarchy_from(state["small"]),
        )
        self._ladder = []
        for hstate in state["ladder"]:
            hierarchy = hierarchy_from(hstate)
            self._ladder.append(
                _TopFStructure(
                    hierarchy.levels[0], self.f, factory, self.params, rng,
                    self.stats, hierarchy=hierarchy,
                )
            )
        self._ladder_rates = list(state["ladder_rates"])
        return self
