"""ResilientTopKIndex: retry, spot-checks, degradation, health reports."""

import random

import pytest

from oracles import oracle_top_k
from repro.core.interfaces import TopKIndex
from repro.core.problem import top_k_of
from repro.core.theorem2 import ExpectedTopKIndex
from repro.resilience.errors import (
    ContractViolation,
    DegradedAnswer,
    InvalidConfiguration,
    RetryBudgetExhausted,
    TransientIOError,
)
from repro.resilience.guard import GuardPolicy, ResilientTopKIndex, resilient_index
from toy import BrokenMax, RangePredicate, ToyMax, ToyPrioritized, make_toy_elements


def random_predicate(rng, n):
    a, b = sorted((rng.uniform(0, 10 * n), rng.uniform(0, 10 * n)))
    return RangePredicate(a, b)


class ScanIndex(TopKIndex):
    """A trivially correct backend for use as a rung in tests."""

    def __init__(self, elements):
        self._elements = list(elements)

    @property
    def n(self):
        return len(self._elements)

    def query(self, predicate, k):
        return top_k_of(self._elements, predicate, k)


class FlakyIndex(ScanIndex):
    """Correct, but the first ``failures`` queries raise a transient fault."""

    def __init__(self, elements, failures=1):
        super().__init__(elements)
        self._failures = failures

    def query(self, predicate, k):
        if self._failures > 0:
            self._failures -= 1
            raise TransientIOError("injected", block_id=0)
        return super().query(predicate, k)


class DeadIndex(ScanIndex):
    def query(self, predicate, k):
        raise TransientIOError("device gone", block_id=0)


class CheatingIndex(ScanIndex):
    """Returns the *bottom*-k ascending — plausible-looking but wrong."""

    def query(self, predicate, k):
        matching = sorted(
            (e for e in self._elements if predicate.matches(e.obj)),
            key=lambda e: e.weight,
        )
        return matching[:k]


class ViolatingIndex(ScanIndex):
    def query(self, predicate, k):
        raise ContractViolation("internal invariant broken")


def build_guard(n=200, seed=0, policy=None, **kwargs):
    elements = make_toy_elements(n, seed)
    primary = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=seed)
    guard = ResilientTopKIndex(
        primary, elements=elements, policy=policy, **kwargs
    )
    return elements, guard


class TestHealthyPath:
    def test_answers_match_oracle_with_clean_reports(self):
        elements, guard = build_guard(policy=GuardPolicy(spot_check_rate=0.0))
        rng = random.Random(0)
        for _ in range(15):
            p = random_predicate(rng, 200)
            answer, report = guard.query_with_report(p, 7)
            assert answer == oracle_top_k(elements, p, 7)
            assert report.attempts == 1
            assert report.degradation_level == 0
            assert not report.degraded
            assert report.answered_by == "ExpectedTopKIndex"
        assert guard.health.queries == 15
        assert guard.health.degraded_queries == 0
        assert guard.health.attempts == 15

    def test_spot_checks_pass_on_honest_backend(self):
        _, guard = build_guard(policy=GuardPolicy(spot_check_rate=1.0))
        rng = random.Random(1)
        for _ in range(10):
            guard.query(random_predicate(rng, 200), 5)
        assert guard.health.spot_checks == 10
        assert guard.health.spot_check_failures == 0


class TestRetry:
    def test_transient_fault_is_retried_on_the_same_rung(self):
        elements = make_toy_elements(100, seed=2)
        guard = ResilientTopKIndex(
            FlakyIndex(elements, failures=2),
            elements=elements,
            policy=GuardPolicy(max_attempts=3, spot_check_rate=0.0),
        )
        p = RangePredicate(0, 500)
        answer, report = guard.query_with_report(p, 4)
        assert answer == oracle_top_k(elements, p, 4)
        assert report.attempts == 3
        assert report.retries == 2
        assert report.transient_faults == 2
        assert not report.degraded  # the *primary* eventually answered

    def test_backoff_units_are_deterministic_exponential(self):
        elements = make_toy_elements(50, seed=3)
        guard = ResilientTopKIndex(
            DeadIndex(elements),
            elements=elements,
            policy=GuardPolicy(
                max_attempts=3, backoff_base=1.0, backoff_factor=2.0,
                backoff_jitter=0.0, spot_check_rate=0.0,
            ),
        )
        _, report = guard.query_with_report(RangePredicate(0, 100), 3)
        # Two retries on the dead rung: base*2^0 + base*2^1 = 3 units.
        assert report.backoff_units == 3.0
        assert report.transient_faults == 3

    def test_backoff_is_capped_and_jitter_is_seeded(self):
        elements = make_toy_elements(50, seed=3)

        def dead_guard(seed):
            return ResilientTopKIndex(
                DeadIndex(elements),
                elements=elements,
                policy=GuardPolicy(
                    max_attempts=6, backoff_base=1.0, backoff_factor=10.0,
                    backoff_cap=8.0, backoff_jitter=0.5,
                    spot_check_rate=0.0, seed=seed,
                ),
            )

        _, a = dead_guard(4).query_with_report(RangePredicate(0, 100), 3)
        _, b = dead_guard(4).query_with_report(RangePredicate(0, 100), 3)
        _, c = dead_guard(5).query_with_report(RangePredicate(0, 100), 3)
        # Deterministic for a fixed seed, decorrelated across seeds.
        assert a.backoff_units == b.backoff_units
        assert a.backoff_units != c.backoff_units
        # Five retries, each capped at 8 units before jitter shrinks it.
        assert 0.0 < a.backoff_units <= 5 * 8.0


class TestDegradation:
    def test_dead_primary_falls_to_fallback_then_scan(self):
        elements = make_toy_elements(120, seed=4)
        guard = ResilientTopKIndex(
            DeadIndex(elements),
            fallbacks=(ScanIndex(elements),),
            elements=elements,
            policy=GuardPolicy(max_attempts=2, spot_check_rate=0.0),
        )
        p = RangePredicate(0, 1200)
        answer, report = guard.query_with_report(p, 6)
        assert answer == oracle_top_k(elements, p, 6)
        assert report.degradation_level == 1
        assert report.answered_by == "ScanIndex"
        assert report.rungs_tried == ["DeadIndex", "ScanIndex"]
        assert guard.health.degraded_queries == 1

    def test_terminal_scan_rung_makes_the_guard_total(self):
        elements = make_toy_elements(80, seed=5)
        guard = ResilientTopKIndex(
            DeadIndex(elements),
            elements=elements,
            policy=GuardPolicy(max_attempts=2, spot_check_rate=0.0),
        )
        p = RangePredicate(0, 800)
        answer, report = guard.query_with_report(p, 5)
        assert answer == oracle_top_k(elements, p, 5)
        assert report.answered_by == "scan"

    def test_contract_violation_degrades_without_retry(self):
        elements = make_toy_elements(60, seed=6)
        guard = ResilientTopKIndex(
            ViolatingIndex(elements),
            elements=elements,
            policy=GuardPolicy(max_attempts=3, spot_check_rate=0.0),
        )
        _, report = guard.query_with_report(RangePredicate(0, 600), 4)
        assert report.contract_violations == 1
        assert report.attempts == 2  # one on the violator, one on the scan
        assert report.answered_by == "scan"

    def test_no_terminal_rung_raises_retry_budget_exhausted(self):
        elements = make_toy_elements(40, seed=7)
        guard = ResilientTopKIndex(
            DeadIndex(elements),
            policy=GuardPolicy(max_attempts=2, spot_check_rate=0.0),
        )
        with pytest.raises(RetryBudgetExhausted) as excinfo:
            guard.query(RangePredicate(0, 400), 3)
        assert excinfo.value.attempts == 2

    def test_raise_on_degraded_carries_answer_and_report(self):
        elements = make_toy_elements(70, seed=8)
        guard = ResilientTopKIndex(
            DeadIndex(elements),
            elements=elements,
            policy=GuardPolicy(
                max_attempts=2, spot_check_rate=0.0, raise_on_degraded=True
            ),
        )
        p = RangePredicate(0, 700)
        with pytest.raises(DegradedAnswer) as excinfo:
            guard.query(p, 5)
        assert excinfo.value.answer == oracle_top_k(elements, p, 5)
        assert excinfo.value.report.degraded


class TestSpotChecks:
    def test_lying_backend_is_caught_and_bypassed(self):
        elements = make_toy_elements(150, seed=9)
        guard = ResilientTopKIndex(
            CheatingIndex(elements),
            elements=elements,
            policy=GuardPolicy(spot_check_rate=1.0),
        )
        rng = random.Random(10)
        for _ in range(10):
            p = random_predicate(rng, 150)
            answer = guard.query(p, 5)
            assert answer == oracle_top_k(elements, p, 5)
        assert guard.health.spot_check_failures > 0
        assert guard.health.contract_violations == guard.health.spot_check_failures
        assert guard.health.degraded_queries > 0

    def test_zero_rate_never_checks(self):
        _, guard = build_guard(policy=GuardPolicy(spot_check_rate=0.0))
        rng = random.Random(11)
        for _ in range(10):
            guard.query(random_predicate(rng, 200), 3)
        assert guard.health.spot_checks == 0

    def test_policy_validates_its_knobs(self):
        with pytest.raises(InvalidConfiguration):
            GuardPolicy(max_attempts=0)
        with pytest.raises(InvalidConfiguration):
            GuardPolicy(spot_check_rate=1.5)


class TestRoundBudget:
    def test_broken_max_exhausts_budget_and_guard_degrades(self):
        """BrokenMax makes every Theorem 2 round fail its rank window; a
        round budget turns that into RetryBudgetExhausted, which the
        guard converts into a correct scan answer."""
        elements = make_toy_elements(400, seed=12)
        primary = ExpectedTopKIndex(elements, ToyPrioritized, BrokenMax, seed=12)
        assert primary.num_levels > 1
        guard = ResilientTopKIndex(
            primary,
            elements=elements,
            policy=GuardPolicy(round_budget=1, spot_check_rate=0.0),
        )
        rng = random.Random(13)
        for _ in range(8):
            p = random_predicate(rng, 400)
            answer, report = guard.query_with_report(p, 5)
            assert answer == oracle_top_k(elements, p, 5)
        assert guard.health.budget_exhaustions > 0
        assert guard.health.degraded_queries > 0

    def test_round_budget_raises_on_the_bare_index(self):
        elements = make_toy_elements(400, seed=14)
        index = ExpectedTopKIndex(elements, ToyPrioritized, BrokenMax, seed=14)
        with pytest.raises(RetryBudgetExhausted):
            # Every round fails, so a 1-round budget must trip on any
            # predicate with enough matches to enter the ladder.
            index.query(RangePredicate(0, 4000), 2, round_budget=1)

    def test_unbudgeted_broken_max_still_succeeds(self):
        elements = make_toy_elements(400, seed=15)
        primary = ExpectedTopKIndex(elements, ToyPrioritized, BrokenMax, seed=15)
        guard = ResilientTopKIndex(
            primary, elements=elements, policy=GuardPolicy(spot_check_rate=0.0)
        )
        p = RangePredicate(0, 4000)
        answer, report = guard.query_with_report(p, 5)
        assert answer == oracle_top_k(elements, p, 5)
        assert not report.degraded  # built-in terminal scan absorbed it


class TestChaosWorkload:
    """Randomized end-to-end run against EM-backed structures under a
    transient-fault plan: every answer exact, books balanced."""

    def test_faulty_em_run_matches_oracle_and_balances_books(self):
        from repro.em.model import EMContext
        from repro.resilience.faults import FaultPlan
        from repro.structures.interval_stabbing import (
            SegmentTreeIntervalPrioritized,
            StabbingPredicate,
            StaticIntervalStabbingMax,
        )
        from repro.geometry.primitives import Interval
        from repro.core.problem import Element

        rng = random.Random(42)
        elements = []
        weights = rng.sample(range(6000), 600)
        for i in range(600):
            center = rng.uniform(0, 1000)
            length = rng.uniform(5, 80)
            elements.append(
                Element(Interval(center - length, center + length), float(weights[i]))
            )

        ctx = EMContext(B=16, M=128)
        ctx.attach_fault_plan(
            FaultPlan(seed=7, read_fail_rate=0.05, corrupt_rate=0.01)
        )
        guard = resilient_index(
            elements,
            lambda subset: SegmentTreeIntervalPrioritized(subset, ctx=ctx),
            lambda subset: StaticIntervalStabbingMax(subset, ctx=ctx),
            policy=GuardPolicy(max_attempts=4, spot_check_rate=0.25, seed=1),
            ctx=ctx,
            B=ctx.B,
            seed=3,
        )
        assert guard.rung_names() == [
            "ExpectedTopKIndex",
            "WorstCaseTopKIndex",
            "scan",
        ]

        queries = 40
        for i in range(queries):
            p = StabbingPredicate(rng.uniform(0, 1000))
            k = rng.choice([1, 4, 10])
            answer, report = guard.query_with_report(p, k)
            assert answer == oracle_top_k(elements, p, k)
            assert report.io_total is not None

        summary = guard.health
        assert summary.queries == queries
        assert summary.transient_faults > 0  # the plan actually fired
        # Every attempt ended in exactly one of: success (== one per
        # query), a transient fault, a budget exhaustion, or a contract
        # violation.  The books must balance.
        assert summary.attempts == (
            summary.queries
            + summary.transient_faults
            + summary.contract_violations
            + summary.budget_exhaustions
        )
        assert guard.health.retries <= summary.transient_faults


class TestHealthSummaryConcurrency:
    def test_concurrent_records_lose_no_increments(self):
        # Regression: pre-lock, racing `+=` read-modify-writes dropped
        # increments when guards shared a summary across threads.
        import threading
        from repro.resilience.guard import HealthReport, HealthSummary

        health = HealthSummary()
        threads, per_thread = 8, 400
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                health.record(HealthReport(attempts=2, transient_faults=1))

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        assert health.queries == threads * per_thread
        assert health.attempts == 2 * threads * per_thread
        assert health.transient_faults == threads * per_thread

    def test_record_races_snapshot(self):
        # Guards fold HealthReports while the ops plane snapshots: both
        # serialise on the summary lock, so no snapshot ever sees a
        # half-folded report (every report below adds one query and
        # one attempt together).
        import sys
        import threading
        from repro.resilience.guard import HealthReport, HealthSummary

        health = HealthSummary()
        rounds = 300
        snapshots = []

        def fold():
            for _ in range(rounds):
                health.record(HealthReport(attempts=1))

        def observe():
            for _ in range(rounds):
                snapshots.append(health.snapshot())

        threads = [
            threading.Thread(target=fn) for fn in (fold, fold, observe, observe)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert health.queries == health.attempts == 2 * rounds
        assert all(snap["queries"] == snap["attempts"] for snap in snapshots)

    def test_snapshot_and_record_wait_for_the_lock(self):
        # Deterministic where the races above are not: on CPython,
        # record()'s body has no point where threads switch, so those
        # tests pass with the lock removed.  Holding the lock here
        # must stall both methods until it is released.
        import threading
        from repro.resilience.guard import HealthReport, HealthSummary

        health = HealthSummary()
        returned = []

        def snapshot():
            health.snapshot()
            returned.append("snapshot")

        def record():
            health.record(HealthReport(attempts=1))
            returned.append("record")

        threads = [threading.Thread(target=fn) for fn in (snapshot, record)]
        with health._lock:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=0.05)
            assert returned == []
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(returned) == ["record", "snapshot"]
        assert health.queries == health.attempts == 1

    def test_summary_still_asdict_serializable(self):
        # The lock is an instance attribute, not a dataclass field —
        # asdict() (used by the determinism harness) must keep working.
        import dataclasses
        from repro.resilience.guard import HealthReport, HealthSummary

        health = HealthSummary()
        health.record(HealthReport(attempts=1))
        as_dict = dataclasses.asdict(health)
        assert as_dict["queries"] == 1
        assert not any(key.startswith("_") for key in as_dict)

    def test_reset_preserves_the_lock(self):
        from repro.resilience.guard import HealthReport, HealthSummary

        health = HealthSummary()
        health.record(HealthReport(attempts=1))
        health.reset()
        assert health.queries == 0
        health.record(HealthReport(attempts=1))  # lock survived the reset
        assert health.queries == 1
