"""A resilient wrapper around any top-k index: retry, verify, degrade.

:class:`ResilientTopKIndex` wraps a ladder of :class:`TopKIndex`
backends (canonically Theorem 2 -> Theorem 1 -> brute-force scan) and
guarantees that every query returns a *correct* answer together with a
:class:`HealthReport`, whatever the environment throws at it:

* **bounded retry with deterministic backoff** — a
  :class:`~repro.resilience.errors.TransientIOError` (injected read /
  write fault, detected block corruption) is retried up to
  ``GuardPolicy.max_attempts`` times per rung; backoff is *counted* in
  deterministic units — capped exponential
  (``min(cap, base * factor^attempt)``) with seeded jitter — never
  slept, matching the EM simulator's counted-not-measured philosophy;
* **runtime contract spot-checks** — a seeded sample of answers is
  checked with :func:`repro.core.validation.spot_check_topk` (matches
  the predicate, strictly descending distinct weights, <= k elements);
  a failed check is a :class:`ContractViolation` and the rung is
  abandoned;
* **per-query round budget** — an
  :class:`~repro.core.theorem2.ExpectedTopKIndex` primary is queried
  with ``round_budget=GuardPolicy.round_budget`` so a pathological
  escalation ladder cannot consume unbounded rounds before the guard
  takes over;
* **degradation ladder** — contract violations and exhausted budgets
  fall through to the next rung; the final rung (a brute-force scan of
  a host-memory element list) touches no simulated disk and therefore
  cannot fail, so an answer is always produced.

The guard is itself deterministic: its spot-check sampling is seeded,
so a fixed (guard seed, fault-plan seed, workload) triple reproduces
the same retries, degradations, and reports exactly.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.interfaces import TopKIndex
from repro.core.problem import Element, Predicate, top_k_of
from repro.core.theorem2 import ExpectedTopKIndex
from repro.core.validation import spot_check_topk
from repro.em.model import EMContext
from repro.resilience.errors import (
    ContractViolation,
    CorruptBlockError,
    DegradedAnswer,
    InvalidConfiguration,
    ReplicaUnavailable,
    RetryBudgetExhausted,
    TransientIOError,
)


class RetryBudget:
    """A token bucket capping retries as a fraction of fresh traffic.

    The classic retry-storm failure: a brownout slows the backend,
    every client retries, and the retries *are* the overload — offered
    load amplifies precisely when capacity is scarcest.  A retry
    budget breaks the loop structurally: fresh (first-attempt) work
    deposits ``ratio`` tokens, every retry must withdraw one, and the
    bucket is capped at ``burst`` — so over any window, retries can
    never exceed ``ratio`` × fresh traffic plus the burst allowance,
    no matter how many callers are failing.

    Shared freely: one budget may serve a guard's backoff loop and a
    load generator's resubmit-on-shed policy at once (all mutation is
    under one lock), which is exactly how a service keeps *total*
    amplification bounded rather than per-client amplification.
    Deterministic — no clocks, no randomness.
    """

    def __init__(
        self,
        ratio: float = 0.1,
        burst: float = 8.0,
        initial: Optional[float] = None,
    ) -> None:
        if ratio < 0.0:
            raise InvalidConfiguration(f"ratio must be >= 0, got {ratio}")
        if burst < 1.0:
            raise InvalidConfiguration(f"burst must be >= 1, got {burst}")
        self.ratio = ratio
        self.burst = burst
        self._tokens = burst if initial is None else min(float(initial), burst)
        self._lock = threading.Lock()
        self.deposits = 0
        self.granted = 0
        self.denied = 0

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def deposit(self, fresh: int = 1) -> None:
        """Credit the bucket for ``fresh`` first-attempt requests."""
        with self._lock:
            self.deposits += fresh
            self._tokens = min(self.burst, self._tokens + self.ratio * fresh)

    def try_spend(self, cost: float = 1.0) -> bool:
        """Withdraw ``cost`` tokens for a retry; ``False`` denies it."""
        with self._lock:
            if self._tokens >= cost:
                self._tokens -= cost
                self.granted += 1
                return True
            self.denied += 1
            return False


@dataclass(frozen=True)
class GuardPolicy:
    """Tuning knobs of :class:`ResilientTopKIndex`.

    Attributes
    ----------
    max_attempts:
        Attempts per ladder rung before degrading (>= 1).
    backoff_base / backoff_factor / backoff_cap / backoff_jitter:
        Seeded, capped exponential backoff: attempt ``i`` (0-based) of
        a rung adds ``min(backoff_cap, backoff_base * backoff_factor**i)``
        units, scaled by a jitter draw in ``[1 - backoff_jitter, 1]``
        from a dedicated RNG seeded by ``seed`` — decorrelated across
        retriers yet exactly reproducible for a fixed seed, so failover
        and chaos tests replay identical schedules.  ``backoff_jitter=0``
        disables the jitter; the cap keeps a long outage from producing
        unbounded waits.
    spot_check_rate:
        Probability that a successful answer is spot-checked (seeded).
        ``1.0`` checks every answer; ``0.0`` disables checking.
    round_budget:
        Cap on Theorem 2 escalation rounds per query attempt (``None``
        leaves the ladder unbounded, its built-in scan applying).
    raise_on_degraded:
        Raise :class:`DegradedAnswer` (carrying the answer and report)
        whenever a query was not answered by the primary rung.
    retry_budget_ratio / retry_budget_burst:
        When ``retry_budget_ratio`` is set, the guard routes every
        retry through a :class:`RetryBudget` with that deposit ratio
        and ``retry_budget_burst`` bucket cap; a denied withdrawal
        skips the remaining attempts of the rung (degrading instead of
        retrying), so retries can never amplify offered load beyond
        ``1 + ratio`` in steady state.  ``None`` (default) keeps
        retries budget-free.
    seed:
        Seed of the guard's private spot-check RNG.
    """

    max_attempts: int = 3
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_cap: float = 64.0
    backoff_jitter: float = 0.5
    spot_check_rate: float = 0.05
    round_budget: Optional[int] = None
    raise_on_degraded: bool = False
    retry_budget_ratio: Optional[float] = None
    retry_budget_burst: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidConfiguration(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.retry_budget_ratio is not None and self.retry_budget_ratio < 0.0:
            raise InvalidConfiguration(
                "retry_budget_ratio must be >= 0 or None, got "
                f"{self.retry_budget_ratio}"
            )
        if self.retry_budget_burst < 1.0:
            raise InvalidConfiguration(
                f"retry_budget_burst must be >= 1, got {self.retry_budget_burst}"
            )
        if not 0.0 <= self.spot_check_rate <= 1.0:
            raise InvalidConfiguration(
                f"spot_check_rate must be in [0, 1], got {self.spot_check_rate}"
            )
        if self.backoff_cap <= 0.0:
            raise InvalidConfiguration(
                f"backoff_cap must be > 0, got {self.backoff_cap}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise InvalidConfiguration(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )


@dataclass
class HealthReport:
    """Everything that happened while answering one query."""

    k: int = 0
    attempts: int = 0
    retries: int = 0
    transient_faults: int = 0
    corrupt_blocks: int = 0
    contract_violations: int = 0
    budget_exhaustions: int = 0
    rung_unavailable: int = 0
    spot_checks: int = 0
    spot_check_failures: int = 0
    retry_budget_denied: int = 0
    backoff_units: float = 0.0
    degradation_level: int = 0
    answered_by: str = ""
    rungs_tried: List[str] = field(default_factory=list)
    io_total: Optional[int] = None
    answer_size: int = 0

    @property
    def degraded(self) -> bool:
        """Whether the answer came from anything but the primary rung."""
        return self.degradation_level > 0


@dataclass
class HealthSummary:
    """Aggregate health across every query a guard has served.

    Every field is counted by the guard itself: the per-query
    :class:`HealthReport` folds, plus the *crash recoveries* of the
    :class:`~repro.durability.durable.DurableTopKIndex` backends it was
    built over (how many came back from a crash and how many WAL
    records their recovery replayed).  Counters of the layers below
    stay with their owners — ``cluster.stats``, ``fabric.stats``,
    ``sharded.stats``, ``engine.stats``, a flash disk's
    ``flash_stats`` — and :class:`~repro.ops.telemetry.TelemetryCollector`
    reads each one there.

    All mutators take an internal lock: a guard may be queried from
    several threads while the ops control plane reads its periodic
    time series through :meth:`snapshot`.
    """

    queries: int = 0
    degraded_queries: int = 0
    attempts: int = 0
    retries: int = 0
    transient_faults: int = 0
    corrupt_blocks: int = 0
    contract_violations: int = 0
    budget_exhaustions: int = 0
    rung_unavailable: int = 0
    spot_checks: int = 0
    spot_check_failures: int = 0
    retry_budget_denied: int = 0
    backoff_units: float = 0.0
    recoveries: int = 0
    wal_records_replayed: int = 0

    def __post_init__(self) -> None:
        # Deliberately not a dataclass field: asdict()/fields() stay
        # pickleable and field-only, while every mutator below still
        # serialises on one per-summary lock.
        self._lock = threading.Lock()

    def record_recovery(self, result) -> None:
        """Fold one :class:`RecoveryResult` into the aggregate."""
        with self._lock:
            self.recoveries += 1
            self.wal_records_replayed += result.wal_records_replayed

    def record(self, report: HealthReport) -> None:
        with self._lock:
            self.queries += 1
            self.degraded_queries += 1 if report.degraded else 0
            self.attempts += report.attempts
            self.retries += report.retries
            self.transient_faults += report.transient_faults
            self.corrupt_blocks += report.corrupt_blocks
            self.contract_violations += report.contract_violations
            self.budget_exhaustions += report.budget_exhaustions
            self.rung_unavailable += report.rung_unavailable
            self.spot_checks += report.spot_checks
            self.spot_check_failures += report.spot_check_failures
            self.retry_budget_denied += report.retry_budget_denied
            self.backoff_units += report.backoff_units

    def reset(self) -> None:
        with self._lock:
            for name, value in vars(self).items():
                if name.startswith("_"):
                    continue  # the lock itself, and any future internals
                setattr(self, name, type(value)())

    def snapshot(self) -> Dict[str, Any]:
        """A consistent point-in-time copy of every public field.

        Taken under the lock, so a snapshot taken mid-query never mixes
        counters from two different instants.
        """
        with self._lock:
            return {
                name: value
                for name, value in vars(self).items()
                if not name.startswith("_")
            }


class ResilientTopKIndex(TopKIndex):
    """Guard any :class:`TopKIndex` with retry, spot-checks, and fallbacks.

    Parameters
    ----------
    primary:
        The index answering queries on the happy path.
    fallbacks:
        Further :class:`TopKIndex` rungs tried in order when the
        primary keeps failing (e.g. a Theorem 1 structure).
    elements:
        Optional host-memory copy of ``D``.  When given, a brute-force
        scan becomes the terminal rung, making the guard total: some
        rung always succeeds.  (The scan bypasses the simulated disk,
        so injected I/O faults cannot reach it.)
    policy:
        A :class:`GuardPolicy`; defaults are production-lean.
    ctx:
        Optional :class:`EMContext` whose I/O delta is recorded in
        reports returned by :meth:`query_with_report` (diagnostics
        only; plain :meth:`query` skips the accounting).
    """

    _SCAN_RUNG = "scan"

    def __init__(
        self,
        primary: TopKIndex,
        fallbacks: Sequence[TopKIndex] = (),
        elements: Optional[Sequence[Element]] = None,
        policy: Optional[GuardPolicy] = None,
        ctx: Optional[EMContext] = None,
    ) -> None:
        self.policy = policy if policy is not None else GuardPolicy()
        self.primary = primary
        self.ctx = ctx
        self._elements = list(elements) if elements is not None else None
        self._rungs: List[Tuple[str, Callable[[Predicate, int], List[Element]]]] = []
        for backend in (primary, *fallbacks):
            self._rungs.append((type(backend).__name__, self._backend_fn(backend)))
        if self._elements is not None:
            self._rungs.append((self._SCAN_RUNG, self._scan))
        self._rng = random.Random(self.policy.seed)
        # A dedicated stream for backoff jitter: spot-check draws and
        # retry draws never perturb each other's determinism.
        self._backoff_rng = random.Random(f"guard-backoff-{self.policy.seed}")
        self.retry_budget: Optional[RetryBudget] = (
            RetryBudget(
                ratio=self.policy.retry_budget_ratio,
                burst=self.policy.retry_budget_burst,
            )
            if self.policy.retry_budget_ratio is not None
            else None
        )
        self.health = HealthSummary()
        self.last_report: Optional[HealthReport] = None
        # Backends that came back from a crash surface their recovery in
        # the aggregate health, so operators see it where they already look.
        from repro.durability.durable import DurableTopKIndex

        for backend in (primary, *fallbacks):
            if isinstance(backend, DurableTopKIndex) and backend.recovery is not None:
                self.health.record_recovery(backend.recovery)

    def _backend_fn(
        self, backend: TopKIndex
    ) -> Callable[[Predicate, int], List[Element]]:
        """Query adapter for one rung.

        A :class:`~repro.durability.durable.DurableTopKIndex` is
        unwrapped only for *inspection* (does a round budget apply?);
        queries still go through the wrapper, whose durability I/O
        lives in its own private context — the guard's ``io_total``
        accounting never double-counts persistence traffic.
        """
        from repro.durability.durable import DurableTopKIndex

        budget = self.policy.round_budget
        target = backend.inner if isinstance(backend, DurableTopKIndex) else backend
        if budget is not None and isinstance(target, ExpectedTopKIndex):
            return lambda predicate, k: backend.query(predicate, k, round_budget=budget)
        return backend.query

    def _scan(self, predicate: Predicate, k: int) -> List[Element]:
        assert self._elements is not None
        return top_k_of(self._elements, predicate, k)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.primary.n

    @property
    def num_rungs(self) -> int:
        return len(self._rungs)

    def rung_names(self) -> List[str]:
        return [name for name, _ in self._rungs]

    def query(self, predicate: Predicate, k: int) -> List[Element]:
        """An exact top-k answer, whatever it takes (see class docs)."""
        answer, _ = self.query_with_report(predicate, k, _want_io=False)
        return answer

    def query_with_report(
        self, predicate: Predicate, k: int, _want_io: bool = True
    ) -> Tuple[List[Element], HealthReport]:
        """Answer plus the :class:`HealthReport` describing how.

        ``_want_io`` is internal: plain :meth:`query` skips the I/O
        snapshot/delta pair so the healthy path stays cheap; reports
        requested explicitly always carry ``io_total`` when a ``ctx``
        is attached.
        """
        report = HealthReport(k=k)
        if self.retry_budget is not None:
            # Fresh traffic funds future retries (one deposit per
            # query, regardless of how many rungs it ends up trying).
            self.retry_budget.deposit()
        io_before = (
            self.ctx.stats.snapshot() if _want_io and self.ctx is not None else None
        )
        for level, (name, query_fn) in enumerate(self._rungs):
            report.rungs_tried.append(name)
            answer = self._try_rung(name, query_fn, predicate, k, report)
            if answer is None:
                continue
            report.degradation_level = level
            report.answered_by = name
            report.answer_size = len(answer)
            if io_before is not None:
                report.io_total = self.ctx.stats.delta(io_before).total
            self.health.record(report)
            self.last_report = report
            if report.degraded and self.policy.raise_on_degraded:
                raise DegradedAnswer(
                    f"query answered by rung {level} ({name}), "
                    f"not the primary index",
                    answer=answer,
                    report=report,
                )
            return answer, report
        self.last_report = report
        raise RetryBudgetExhausted(
            f"every rung failed ({' -> '.join(report.rungs_tried)}); "
            "provide `elements` for a terminal scan rung to make the "
            "guard total",
            attempts=report.attempts,
        )

    def _try_rung(
        self,
        name: str,
        query_fn: Callable[[Predicate, int], List[Element]],
        predicate: Predicate,
        k: int,
        report: HealthReport,
    ) -> Optional[List[Element]]:
        """Run one rung under the retry policy; ``None`` means degrade."""
        for attempt in range(self.policy.max_attempts):
            report.attempts += 1
            try:
                answer = query_fn(predicate, k)
            except CorruptBlockError:
                report.transient_faults += 1
                report.corrupt_blocks += 1
                if not self._backoff(attempt, report):
                    return None
                continue
            except TransientIOError:
                report.transient_faults += 1
                if not self._backoff(attempt, report):
                    return None
                continue
            except RetryBudgetExhausted:
                report.budget_exhaustions += 1
                return None
            except ContractViolation:
                report.contract_violations += 1
                return None
            except ReplicaUnavailable:
                # A replica set with no serving machine, or a sharded
                # index with an unrecoverable shard (ShardUnavailable).
                # Not retryable from here — the backend already walked
                # its own failover/recovery ladder; the next rung of
                # this one takes over.
                report.rung_unavailable += 1
                return None
            if name != self._SCAN_RUNG and self._should_spot_check():
                report.spot_checks += 1
                check = spot_check_topk(answer, predicate, k)
                if not check.ok:
                    report.spot_check_failures += 1
                    report.contract_violations += 1
                    return None
            return answer
        return None

    def _backoff(self, attempt: int, report: HealthReport) -> bool:
        """Record backoff before a retry; ``False`` when out of attempts.

        Capped exponential with seeded jitter — deterministic for a
        fixed policy seed, so chaos and failover tests replay the same
        backoff schedule (units are counted, never slept).
        """
        if attempt + 1 >= self.policy.max_attempts:
            return False
        if self.retry_budget is not None and not self.retry_budget.try_spend():
            # Retrying is a privilege fresh traffic pays for; with the
            # bucket empty the rung degrades instead of storming.
            report.retry_budget_denied += 1
            return False
        report.retries += 1
        units = min(
            self.policy.backoff_cap,
            self.policy.backoff_base * self.policy.backoff_factor**attempt,
        )
        if self.policy.backoff_jitter > 0.0:
            units *= 1.0 - self.policy.backoff_jitter * self._backoff_rng.random()
        report.backoff_units += units
        return True

    def _should_spot_check(self) -> bool:
        rate = self.policy.spot_check_rate
        if rate <= 0.0:
            return False
        return rate >= 1.0 or self._rng.random() < rate


def resilient_index(
    elements: Sequence[Element],
    prioritized_factory,
    max_factory,
    policy: Optional[GuardPolicy] = None,
    ctx: Optional[EMContext] = None,
    seed: int = 0,
    B: int = 2,
    with_theorem1_fallback: bool = True,
    **theorem2_kwargs,
) -> ResilientTopKIndex:
    """The canonical degradation ladder, assembled in one call.

    Builds Theorem 2 (primary) and optionally Theorem 1 (first
    fallback) over the same factories, keeps a host-memory copy of
    ``elements`` as the terminal scan rung, and wraps everything in a
    :class:`ResilientTopKIndex`.
    """
    from repro.core.theorem1 import WorstCaseTopKIndex

    primary = ExpectedTopKIndex(
        elements, prioritized_factory, max_factory, B=B, seed=seed, **theorem2_kwargs
    )
    fallbacks: List[TopKIndex] = []
    if with_theorem1_fallback:
        fallbacks.append(
            WorstCaseTopKIndex(elements, prioritized_factory, B=B, seed=seed)
        )
    return ResilientTopKIndex(
        primary, fallbacks=fallbacks, elements=elements, policy=policy, ctx=ctx
    )


__all__ = [
    "GuardPolicy",
    "HealthReport",
    "HealthSummary",
    "ResilientTopKIndex",
    "RetryBudget",
    "resilient_index",
]
