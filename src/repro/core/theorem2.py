"""Theorem 2: top-k from prioritized + max with *no* degradation.

Given a prioritized structure (space ``S_pri``, query ``Q_pri + O(t/B)``)
and a max structure (space ``S_max = O(n^2/B)``, geometrically
converging, query ``Q_max``), the paper builds a top-k structure with

    S_top = O( S_pri(n) + S_max(6n / (B * Q_max(n))) )      (expected)
    Q_top = O( Q_pri(n) + Q_max(n) ) + O(k/B)               (expected)

and updates in ``O(U_pri + U_max)`` expected I/Os.

Construction (Section 4): for ``K_i = B * Q_max(n) * (1+sigma)^{i-1}``
(``sigma = 1/20`` in the paper) take a ``(1/K_i)``-Bernoulli sample
``R_i`` of ``D`` and build a max structure on it.  A top-k query walks
the ladder from the first ``K_i >= k``, running *rounds*: probe the max
structure on ``R_j`` for the heaviest sampled match ``e``; fetch
``{matches with weight >= w(e)}`` from the prioritized structure under
cost monitoring; by Lemma 3 the fetch lands in ``(K_j, 4K_j]`` elements
with probability ``>= 0.09``, in which case k-selection finishes the
query.  Failed rounds escalate to ``j+1``; the geometric success
probability makes the expected total ``O(Q_pri + Q_max + k/B)``.

Updates keep, for every element, the list of sample levels containing it
(expected ``O(1)`` entries since the rates ``1/K_i`` sum geometrically),
so an insert/delete touches the prioritized structure once and ``O(1)``
max structures in expectation.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.columnar import (
    ScanCache,
    columnar_top_k,
    ground_columns,
    predicate_key,
)
from repro.core.interfaces import (
    DynamicMaxIndex,
    DynamicPrioritizedIndex,
    MaxFactory,
    PrioritizedFactory,
    TopKIndex,
)
from repro.core.params import TuningParams
from repro.core.problem import Element, Predicate, require_distinct_weights
from repro.core.theorem1 import ReductionStats
from repro.em.selection import select_top_k
from repro.resilience.errors import (
    ContractViolation,
    ElementMembershipError,
    RetryBudgetExhausted,
    SerializationError,
    StaticStructureError,
)


class ExpectedTopKIndex(TopKIndex):
    """The Theorem 2 top-k structure.

    Parameters
    ----------
    elements:
        The input set ``D``.
    prioritized_factory / max_factory:
        The two black boxes being combined.  For update support both
        must produce dynamic structures (checked lazily on the first
        ``insert``/``delete``).
    params:
        Tuning constants (``sigma``, the ``4K`` slack, retry budget).
    B:
        Block size; sets ``K_1 = B * Q_max(n)``.  Use a small constant
        for RAM-model instantiations.
    q_max_bound:
        Optional override for ``Q_max(n)`` as a function of ``n``; by
        default a probe max structure on a small sample supplies its own
        :meth:`query_cost_bound`.
    columnar:
        ``True`` (the default) mirrors a RAM-resident ground set into
        weight-descending columns and answers unbudgeted queries through
        :func:`~repro.core.columnar.columnar_top_k`; ``False`` keeps every
        query on the paper's ladder rounds.  EM grounds always do.
    """

    def __init__(
        self,
        elements: Sequence[Element],
        prioritized_factory: PrioritizedFactory,
        max_factory: MaxFactory,
        params: Optional[TuningParams] = None,
        B: int = 2,
        rng: Optional[random.Random] = None,
        seed: int = 0,
        q_max_bound: Optional[Callable[[int], float]] = None,
        columnar: bool = True,
    ) -> None:
        self.params = params if params is not None else TuningParams()
        self.B = B
        self._prioritized_factory = prioritized_factory
        self._max_factory = max_factory
        self._q_max_bound = q_max_bound
        self._rng = rng if rng is not None else random.Random(seed)
        self.stats = ReductionStats()
        self.applied_lsn = 0
        self._memo: Optional[dict] = None
        self._columnar = columnar
        self._build(list(elements))

    # ------------------------------------------------------------------
    # Construction (also used by amortized rebuilds)
    # ------------------------------------------------------------------
    def _build(self, elements: List[Element]) -> None:
        require_distinct_weights(elements, "ExpectedTopKIndex")
        self._elements: Dict[Element, None] = dict.fromkeys(elements)
        self._weights = {element.weight for element in elements}
        n = len(elements)
        self._built_n = max(1, n)
        self._ground = self._prioritized_factory(elements)
        # The ground set mirrored as weight-descending columns, plus the
        # per-predicate resumable scans over it.  Scans are dropped on
        # every update (insert/delete bump the column version and clear
        # the cache), so a scan can never serve a stale prefix.
        self._columns = (
            ground_columns(self._ground, elements) if self._columnar else None
        )
        self._scans = ScanCache()
        if self._q_max_bound is not None:
            q_max = self._q_max_bound(max(2, n))
        else:
            q_max = max(1.0, math.log2(max(2, n)))
        # K_i = B * Q_max(n) * (1+sigma)^{i-1}; h = largest i with K_i <= n/4.
        self._K: List[float] = []
        K = float(self.B) * q_max
        while K <= n / 4:
            self._K.append(K)
            K *= 1.0 + self.params.sigma
        # Samples are ordered dict-sets so membership updates are O(1)
        # expected — a plain list would make delete() scan |R_i|.
        self._samples: List[Dict[Element, None]] = []
        self._max_indexes: List[object] = []
        self._membership: Dict[Element, List[int]] = {}
        for i, K_i in enumerate(self._K):
            sample: Dict[Element, None] = {}
            for element in elements:
                if self._rng.random() < 1.0 / K_i:
                    sample[element] = None
                    self._membership.setdefault(element, []).append(i)
            self._samples.append(sample)
            self._max_indexes.append(self._max_factory(list(sample)))

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._elements)

    def __contains__(self, element: Element) -> bool:
        """O(1) membership — the substrate of idempotent WAL replay."""
        return element in self._elements

    def note_applied(self, lsn: int) -> None:
        """Record the highest WAL LSN folded into this in-memory state.

        Maintained by the durability/replication layers; the structure
        itself never assigns LSNs.  Lets replica schedulers compare
        index freshness without reaching into the WAL.
        """
        if lsn > self.applied_lsn:
            self.applied_lsn = lsn

    @property
    def num_levels(self) -> int:
        """Height ``h`` of the sample ladder."""
        return len(self._K)

    # ------------------------------------------------------------------
    # Durability (snapshot/restore)
    # ------------------------------------------------------------------
    SNAPSHOT_FORMAT = "expected-topk"
    SNAPSHOT_VERSION = 1

    def snapshot_state(self) -> dict:
        """Everything needed to rebuild this index *bit-for-bit*.

        The randomness is captured as *decisions*, not seeds: the exact
        membership of every sample ``R_i`` (as indices into the element
        list) plus the RNG's full state, so the restored index answers
        every query identically — including the escalation ladder's
        round outcomes — and future inserts draw the same coin flips
        the original would have.  Factories and bound callables are
        code, not state; the restorer supplies them again.
        """
        elements = list(self._elements)
        index_of = {element: i for i, element in enumerate(elements)}
        state = {
            "format": self.SNAPSHOT_FORMAT,
            "version": self.SNAPSHOT_VERSION,
            "elements": elements,
            "B": self.B,
            "built_n": self._built_n,
            "K": list(self._K),
            "samples": [
                [index_of[element] for element in sample]
                for sample in self._samples
            ],
            "rng_state": self._rng.getstate(),
            "params": asdict(self.params),
        }
        if not self._columnar:
            # Only the non-default switch is written, so snapshots of a
            # default build keep their exact record stream.
            state["columnar"] = False
        return state

    @classmethod
    def restore(
        cls,
        state: dict,
        prioritized_factory: PrioritizedFactory,
        max_factory: MaxFactory,
        q_max_bound: Optional[Callable[[int], float]] = None,
    ) -> "ExpectedTopKIndex":
        """Rebuild from :meth:`snapshot_state` output.

        Re-runs the factories on the *recorded* subsets instead of
        re-sampling, so the ladder is reconstructed exactly; only the
        sub-structure internals are rebuilt (they are deterministic
        functions of their element lists).
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
        self.B = state["B"]
        self._prioritized_factory = prioritized_factory
        self._max_factory = max_factory
        self._q_max_bound = q_max_bound
        self._rng = random.Random()
        self._rng.setstate(state["rng_state"])
        self.stats = ReductionStats()
        self.applied_lsn = 0
        self._memo = None
        elements: List[Element] = list(state["elements"])
        require_distinct_weights(elements, "ExpectedTopKIndex.restore")
        self._elements = dict.fromkeys(elements)
        self._weights = {element.weight for element in elements}
        self._built_n = state["built_n"]
        self._ground = prioritized_factory(elements)
        # Columns are a derived mirror of the element list: only the
        # switch is state, and the restored index honours it.
        self._columnar = state.get("columnar", True)
        self._columns = (
            ground_columns(self._ground, elements) if self._columnar else None
        )
        self._scans = ScanCache()
        self._K = list(state["K"])
        if len(state["samples"]) != len(self._K):
            raise SerializationError(
                f"snapshot has {len(state['samples'])} samples for "
                f"{len(self._K)} ladder levels"
            )
        self._samples = []
        self._max_indexes = []
        self._membership = {}
        for i, indices in enumerate(state["samples"]):
            sample: Dict[Element, None] = dict.fromkeys(
                elements[j] for j in indices
            )
            for element in sample:
                self._membership.setdefault(element, []).append(i)
            self._samples.append(sample)
            self._max_indexes.append(max_factory(list(sample)))
        return self

    @contextmanager
    def batched(self):
        """A shared-probe window for a batch of queries.

        Inside the window the escalation ladder memoizes its
        deterministic sub-probes per predicate — the step-1 monitored
        ground probe, the step-2 max-structure probe, and the step-3
        thresholded fetch — so queries the batch planner did not merge
        (or a guard retry re-running a query after a transient fault
        aborted it mid-ladder) reuse completed rounds instead of
        repeating them.  (Columnar queries need no window: their live
        scans already persist in the index's scan cache.)  Updates
        inside the window clear the memo: a memoized probe must never
        survive a state change.  Nested windows share the outermost
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
        probe-memo window for the batch's duration.
        """
        from repro.serving.batch import execute_batch

        self.stats.batch_queries += len(requests)
        with self.batched():
            return execute_batch(self, requests, **kwargs)

    def query(
        self, predicate: Predicate, k: int, round_budget: Optional[int] = None
    ) -> List[Element]:
        """Exact top-k answer, heaviest first (expected cost per Theorem 2).

        ``round_budget`` optionally caps the number of escalation-ladder
        rounds this query may run.  When the cap is hit before a round
        succeeds, the query raises
        :class:`~repro.resilience.errors.RetryBudgetExhausted` instead
        of escalating further — the hook
        :class:`~repro.resilience.guard.ResilientTopKIndex` uses to
        bound per-query cost and take over with its degradation ladder.
        With the default ``None`` the ladder runs to its end and
        finishes with the step-6(b) full scan, exactly as before.

        An unbudgeted query on an index with ground columns makes one
        columns-vs-structure decision instead
        (:func:`~repro.core.columnar.columnar_top_k`, with step 1's
        monitored-probe cap); budgeted queries stay on the rounds, whose
        contract is "this many rounds, then ``RetryBudgetExhausted``".
        """
        self.stats.queries += 1
        if k <= 0 or self.n == 0:
            return []
        # Queries with k < K_1 are treated as top-ceil(K_1) then
        # k-selected; k beyond the ladder (or no ladder) scans D.
        k_eff = max(k, math.ceil(self._K[0])) if self._K else k
        j = None
        if self._K and k_eff <= self._K[-1]:
            j = self._first_level_at_least(k_eff)
        if round_budget is None and self._columns is not None:
            cap = None if j is None else math.ceil(self.params.slack * self._K[j])
            return columnar_top_k(
                self._columns, self._scans, self._ground, self.stats,
                predicate, k, cap,
            )
        if j is None:
            return self._scan_answer(predicate, k)
        rounds_used = 0
        while j < len(self._K):
            if round_budget is not None and rounds_used >= round_budget:
                raise RetryBudgetExhausted(
                    f"round budget {round_budget} exhausted at ladder level {j} "
                    f"of {len(self._K)}",
                    attempts=rounds_used,
                )
            answer = self._round(predicate, k, j)
            rounds_used += 1
            if answer is not None:
                return answer
            j += 1
        # Step 6(b): every round failed — read the whole of D.
        return self._scan_answer(predicate, k)

    def _first_level_at_least(self, k_eff: float) -> int:
        """Smallest ladder index ``i`` (0-based) with ``K_i >= k_eff``."""
        lo, hi = 0, len(self._K) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._K[mid] >= k_eff:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _memo_key(self, predicate: Predicate):
        """The per-predicate memo handle, or ``None`` outside a window."""
        if self._memo is None:
            return None
        return predicate_key(predicate)

    def _round(self, predicate: Predicate, k: int, j: int) -> Optional[List[Element]]:
        """One round at ladder level ``j``; ``None`` means the round failed."""
        K_j = self._K[j]
        cap = math.ceil(self.params.slack * K_j)
        memo, pkey = self._memo, self._memo_key(predicate)
        # Step 1: if |q(D)| <= 4K_j the monitored probe fetches everything.
        # Deterministic in (predicate, cap), so a batch window reuses it.
        probe = memo.get(("probe", pkey, cap)) if memo is not None else None
        if probe is None:
            self.stats.monitored_probes += 1
            probe = self._ground.query(predicate, -math.inf, limit=cap)
            if memo is not None:
                memo[("probe", pkey, cap)] = probe
        else:
            self.stats.memo_hits += 1
        if not probe.truncated:
            return select_top_k(probe.elements, k)
        # Step 2: max probe on the sample R_j (memo key includes the
        # level: each R_j is its own structure).
        if memo is not None and ("max", pkey, j) in memo:
            self.stats.memo_hits += 1
            top_sampled = memo[("max", pkey, j)]
        else:
            top_sampled = self._max_indexes[j].query(predicate)
            if memo is not None:
                memo[("max", pkey, j)] = top_sampled
        tau = top_sampled.weight if top_sampled is not None else -math.inf
        # Step 3: cost-monitored prioritized fetch at threshold tau.
        fetched = memo.get(("fetch", pkey, tau, cap)) if memo is not None else None
        if fetched is None:
            self.stats.threshold_fetches += 1
            fetched = self._ground.query(predicate, tau, limit=cap)
            if memo is not None:
                memo[("fetch", pkey, tau, cap)] = fetched
        else:
            self.stats.memo_hits += 1
        # Step 4: the round fails if the fetch truncated (> 4K_j matches
        # above tau) or came back too small (<= K_j, not enough for k).
        if fetched.truncated or len(fetched.elements) <= K_j:
            self.stats.fallbacks += 1
            return None
        # Step 5: success — the fetch holds > K_j >= k_eff >= k elements.
        return select_top_k(fetched.elements, k)

    def _scan_answer(self, predicate: Predicate, k: int) -> List[Element]:
        """Answer by reading all of ``D`` — ``O(n/B) = O(k/B)`` here.

        Routed through the prioritized structure with ``tau = -inf`` so
        the scan's cost is *counted* (I/Os in EM mode, ops in RAM mode)
        rather than silently free.
        """
        self.stats.full_scans += 1
        result = self._ground.query(predicate, -math.inf)
        return select_top_k(result.elements, k)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, element: Element) -> None:
        """Insert in ``O(U_pri + U_max)`` expected (amortized over rebuilds).

        The element enters the prioritized structure and, independently
        for each level ``i``, the sample ``R_i`` with probability
        ``1/K_i`` — expected ``O(1)`` max-structure insertions since the
        rates decrease geometrically.
        """
        if element in self._elements:
            raise ElementMembershipError(f"element already present: {element!r}")
        if element.weight in self._weights:
            raise ContractViolation(
                f"insert of weight {element.weight!r} duplicates an indexed "
                "weight, violating the distinct-weights precondition; "
                "pre-process inserts with ensure_distinct_weights()"
            )
        ground = self._require_dynamic_ground()
        if self._memo is not None:
            self._memo.clear()  # memoized probes must not survive updates
        self._scans.clear()
        self._elements[element] = None
        self._weights.add(element.weight)
        ground.insert(element)
        if self._columns is not None:
            self._columns.insert(element)
        for i, K_i in enumerate(self._K):
            if self._rng.random() < 1.0 / K_i:
                self._membership.setdefault(element, []).append(i)
                self._samples[i][element] = None
                self._dynamic_max(i).insert(element)
        self._maybe_rebuild()

    def delete(self, element: Element) -> None:
        """Delete in ``O(U_pri + U_max)`` expected (amortized over rebuilds)."""
        if element not in self._elements:
            raise ElementMembershipError(f"element not present: {element!r}")
        ground = self._require_dynamic_ground()
        if self._memo is not None:
            self._memo.clear()  # memoized probes must not survive updates
        self._scans.clear()
        del self._elements[element]
        self._weights.discard(element.weight)
        ground.delete(element)
        if self._columns is not None:
            self._columns.delete(element)
        for i in self._membership.pop(element, []):
            del self._samples[i][element]
            self._dynamic_max(i).delete(element)
        self._maybe_rebuild()

    def _require_dynamic_ground(self) -> DynamicPrioritizedIndex:
        if not isinstance(self._ground, DynamicPrioritizedIndex):
            raise StaticStructureError(
                "updates require a DynamicPrioritizedIndex; the prioritized "
                f"factory produced {type(self._ground).__name__}"
            )
        return self._ground

    def _dynamic_max(self, i: int) -> DynamicMaxIndex:
        index = self._max_indexes[i]
        if not isinstance(index, DynamicMaxIndex):
            raise StaticStructureError(
                "updates require DynamicMaxIndex instances; the max factory "
                f"produced {type(index).__name__}"
            )
        return index

    def _maybe_rebuild(self) -> None:
        """Global rebuild when ``n`` drifts by 2x — standard amortization.

        The ladder height and sampling rates depend on ``n``; rebuilding
        after ``Theta(n)`` updates charges ``O(build/n)`` amortized per
        update, which the paper's amortized-expected bounds absorb.
        """
        n = len(self._elements)
        if n > 2 * self._built_n or (n < self._built_n // 2 and self._built_n > 4):
            self._build(list(self._elements))

    # ------------------------------------------------------------------
    def space_units(self) -> int:
        """Prioritized footprint plus every ladder max structure.

        Theorem 2 bounds the ladder total by
        ``o(n/B) + O(S_max(6n/(B*Q_max)))`` with high probability —
        bench E4 audits the measured number against the bound.
        """
        total = self._ground.space_units()
        for index in self._max_indexes:
            total += index.space_units()
        return total

    def ladder_sample_sizes(self) -> List[int]:
        """Sizes of the ``R_i`` (diagnostics for the space audit)."""
        return [len(sample) for sample in self._samples]
