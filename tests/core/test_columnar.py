"""The columnar hot path: columns, scans, compiled predicates, the rule.

Four layers of guarantees:

1. **Primitive semantics** — :class:`ColumnSet` / :class:`MatchScan`
   top-k results match brute force, and scans resume one traversal.
2. **Compiled = virtual** — every registered predicate compiler is
   extensionally identical to its class's ``matches`` across the
   workload registry's generated predicate shapes.
3. **The one decision** — :func:`columnar_top_k` answers dense
   predicates from the first scan, sparse ones from one structure
   probe (repeats from the seeded scan), and medium ones from the scan
   after a truncated probe, in both reductions.
4. **Answer identity** — a columnar reduction, the same reduction
   built with ``columnar=False``, and the brute-force oracle agree on
   every query of every registered problem, and snapshot/restore
   round-trips (through the durability codec) preserve that.
"""

from __future__ import annotations

import random

import pytest

from oracles import oracle_top_k
from repro.bench.workloads import PROBLEMS, make_problem
from repro.core.columnar import (
    FIRST_SCAN,
    ColumnSet,
    DescendingElements,
    ScanCache,
    compiled_matcher,
    ground_columns,
    next_structure_id,
    predicate_key,
)
from repro.core.params import TuningParams
from repro.core.problem import Element, Predicate, top_k_of
from repro.core.theorem1 import WorstCaseTopKIndex, _TopFStructure, ReductionStats
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.codec import decode, encode
from toy import RangePredicate, ToyMax, ToyPrioritized, make_toy_elements


def brute_matches(elements, predicate):
    """All matches, heaviest first — the semantics scans must replicate."""
    out = [e for e in elements if predicate.matches(e.obj)]
    out.sort(key=lambda e: -e.weight)
    return out


# ----------------------------------------------------------------------
# 1. Primitive semantics
# ----------------------------------------------------------------------
class TestColumnSet:
    def test_columns_align_and_descend(self):
        elements = make_toy_elements(300, seed=1)
        columns = ColumnSet(elements)
        weights = [e.weight for e in columns.elements]
        assert weights == sorted(weights, reverse=True)
        for i, element in enumerate(columns.elements):
            assert columns.objs[i] == element.obj
            assert columns.neg_weights[i] == -element.weight

    def test_position_of_is_the_stable_index_map(self):
        elements = make_toy_elements(150, seed=3)
        columns = ColumnSet(elements)
        for i, element in enumerate(columns.elements):
            assert columns.position_of(element) == i
        with pytest.raises(KeyError):
            columns.position_of(Element(999.0, 123456.75))

    def test_insert_delete_keep_alignment_and_bump_version(self):
        elements = make_toy_elements(80, seed=4)
        columns = ColumnSet(elements)
        extra = Element(7.0, max(e.weight for e in elements) / 2.0 + 0.125)
        columns.insert(extra)
        assert columns.version == 1
        i = columns.position_of(extra)
        assert columns.objs[i] == extra.obj
        assert columns.neg_weights[i] == -extra.weight
        columns.delete(extra)
        assert columns.version == 2
        assert len(columns) == len(elements)
        weights = [e.weight for e in columns.elements]
        assert weights == sorted(weights, reverse=True)


class TestMatchScan:
    def setup_method(self):
        self.elements = make_toy_elements(400, seed=7)
        self.columns = ColumnSet(self.elements)
        self.predicate = RangePredicate(50.0, 260.0)
        self.expected = brute_matches(self.elements, self.predicate)

    def test_first_k_is_the_top_k_answer(self):
        for k in (0, 1, 3, 17, len(self.expected), len(self.expected) + 5):
            scan = self.columns.scan(self.predicate)
            got = scan.first(k)
            assert isinstance(got, DescendingElements)
            assert list(got) == self.expected[:k]

    def test_scan_resumes_one_traversal_across_primitives(self):
        scan = self.columns.scan(self.predicate)
        scan.first(3)
        frontier_after_first = scan.upto
        scan.ensure_prefix(len(self.columns))  # a full traversal
        assert scan.upto == len(self.columns) >= frontier_after_first
        assert scan.exhausted
        # Every further answer reuses the completed traversal.
        assert list(scan.first(7)) == self.expected[:7]
        assert list(scan.first(len(self.expected) + 5)) == self.expected
        assert scan.upto == len(self.columns)

    def test_seed_prefix_resolves_on_next_use(self):
        scan = self.columns.scan(self.predicate)
        scan.ensure_prefix(10)
        # An untruncated structure probe is every match, in any order.
        scan.seed_prefix(list(reversed(self.expected)), len(self.columns))
        assert scan.upto == 10  # recorded in O(1), not yet resolved
        assert scan.exhausted  # consulting the scan installs the seed
        assert scan.matches_found() == len(self.expected)
        assert list(scan.first(len(self.expected))) == self.expected

    def test_stale_scan_detected_after_mutation(self):
        scan = self.columns.scan(self.predicate)
        scan.first(2)
        assert scan.fresh()
        self.columns.insert(Element(100.5, 1e6))
        assert not scan.fresh()


class TestScanCache:
    def test_reuses_scan_until_version_changes(self):
        elements = make_toy_elements(100, seed=8)
        columns = ColumnSet(elements)
        cache = ScanCache()
        predicate = RangePredicate(10.0, 90.0)
        scan = cache.get(columns, predicate)
        assert cache.get(columns, predicate) is scan
        assert cache.peek(predicate) is scan
        columns.insert(Element(5.0, 1e6))
        assert cache.peek(predicate) is None
        replacement = cache.get(columns, predicate)
        assert replacement is not scan and replacement.fresh()

    def test_bounded_and_clearable(self):
        elements = make_toy_elements(50, seed=9)
        columns = ColumnSet(elements)
        cache = ScanCache(max_entries=4)
        for i in range(9):
            cache.get(columns, RangePredicate(float(i), float(i + 10)))
        assert len(cache) <= 4
        cache.clear()
        assert len(cache) == 0


# ----------------------------------------------------------------------
# 2. Compiled = virtual, across every registered shape
# ----------------------------------------------------------------------
class TestCompiledMatchers:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_compiled_equals_virtual_on_workload(self, name):
        problem = make_problem(name, 150, seed=13)
        objs = [e.obj for e in problem.elements]
        for predicate in problem.predicates(12, seed=14):
            match = compiled_matcher(predicate)
            for obj in objs:
                assert match(obj) == predicate.matches(obj), (
                    f"{name}: compiled diverges on {predicate!r} / {obj!r}"
                )

    def test_unregistered_predicate_falls_back_to_matches(self):
        class OddPredicate(Predicate):
            def matches(self, obj) -> bool:
                return int(obj) % 2 == 1

            def __repr__(self):
                return "OddPredicate()"

        predicate = OddPredicate()
        match = compiled_matcher(predicate)
        assert match(3.0) is True and match(4.0) is False
        assert match.__self__ is predicate  # the bound method itself

    def test_predicate_key_stable_for_unhashable(self):
        class Unhashable(Predicate):
            __hash__ = None

            def matches(self, obj) -> bool:
                return True

            def __repr__(self):
                return "Unhashable()"

        key = predicate_key(Unhashable())
        assert key == predicate_key(Unhashable())
        assert key != predicate_key(RangePredicate(0.0, 1.0))


# ----------------------------------------------------------------------
# 3. The one decision: first scan, then the structure probe
# ----------------------------------------------------------------------
class LoggingPrioritized(ToyPrioritized):
    """``ToyPrioritized`` logging each query's truncation flag."""

    def __init__(self, elements, log):
        super().__init__(elements)
        self.log = log

    def query(self, predicate, tau, limit=None):
        result = super().query(predicate, tau, limit=limit)
        self.log.append(result.truncated)
        return result


RULE_N = 2000


def _build_theorem2(elements, factory):
    return ExpectedTopKIndex(elements, factory, ToyMax, seed=1)


def _build_theorem1(elements, factory):
    return WorstCaseTopKIndex(elements, factory, seed=1)


@pytest.fixture(params=["theorem2", "theorem1"])
def rule_index(request):
    """``(elements, index, log)``: a columnar index whose every
    structure probe (ground, core-set levels, ladders) lands in ``log``."""
    elements = make_toy_elements(RULE_N, seed=3)
    log = []
    build = {"theorem2": _build_theorem2, "theorem1": _build_theorem1}
    index = build[request.param](
        elements, lambda items: LoggingPrioritized(items, log)
    )
    assert index._columns is not None
    log.clear()  # construction-time queries are not query work
    return elements, index, log


def _first_scan_matches(elements, predicate):
    heaviest = sorted(elements, key=lambda e: -e.weight)[:FIRST_SCAN]
    return sum(1 for e in heaviest if predicate.matches(e.obj))


class TestOneDecision:
    def test_dense_predicate_answers_within_the_first_scan(self, rule_index):
        elements, index, log = rule_index
        predicate = RangePredicate(0.0, 10.0 * RULE_N)  # everything
        for k in (1, 10, 20):
            assert index.query(predicate, k) == oracle_top_k(elements, predicate, k)
        assert log == []  # zero structure probes
        assert index._scans.peek(predicate).upto == FIRST_SCAN

    def test_sparse_predicate_probes_once_then_answers_from_scan(self, rule_index):
        elements, index, log = rule_index
        predicate = RangePredicate(5000.0, 5300.0)
        k = 20
        matching = len(oracle_top_k(elements, predicate, RULE_N))
        assert _first_scan_matches(elements, predicate) < k < matching
        assert index.query(predicate, k) == oracle_top_k(elements, predicate, k)
        assert log == [False]  # one untruncated probe: every match
        hits = index.stats.memo_hits
        for repeat_k in (k, 5, matching):
            expected = oracle_top_k(elements, predicate, repeat_k)
            assert index.query(predicate, repeat_k) == expected
        assert log == [False]  # repeats answer from the seeded scan
        assert index.stats.memo_hits == hits + 3

    def test_medium_predicate_finishes_on_scan_after_truncated_probe(
        self, rule_index
    ):
        elements, index, log = rule_index
        predicate = RangePredicate(1000.0, 2500.0)
        k = 21
        assert _first_scan_matches(elements, predicate) < k
        assert index.query(predicate, k) == oracle_top_k(elements, predicate, k)
        assert log == [True]  # truncated: more than cap elements match
        scan = index._scans.peek(predicate)
        assert FIRST_SCAN < scan.upto < RULE_N

    def test_k_beyond_the_ladder_scans_without_probing(self, rule_index):
        elements, index, log = rule_index
        predicate = RangePredicate(5000.0, 5300.0)
        scans = index.stats.full_scans
        assert index.query(predicate, RULE_N) == oracle_top_k(
            elements, predicate, RULE_N
        )
        assert log == [] and index.stats.full_scans == scans + 1


def test_updates_drop_the_scans():
    elements = make_toy_elements(RULE_N, seed=3)
    log = []
    index = _build_theorem2(
        elements, lambda items: LoggingPrioritized(items, log)
    )
    predicate = RangePredicate(5000.0, 5300.0)
    current = list(elements)
    extra = Element(5100.0, 1e6)  # heaviest, and inside the predicate
    for update in ("insert", "delete"):
        index.query(predicate, 20)
        assert len(index._scans) == 1
        if update == "insert":
            index.insert(extra)
            current.append(extra)
        else:
            index.delete(extra)
            current.remove(extra)
        assert len(index._scans) == 0
        log.clear()
        assert index.query(predicate, 20) == oracle_top_k(current, predicate, 20)
        assert log == [False]  # a fresh decision, not a stale scan


def test_ground_columns_skip_em_grounds():
    class EMGround:
        ctx = object()  # what an EMContext-carrying structure exposes

    elements = make_toy_elements(20, seed=4)
    assert ground_columns(EMGround(), elements) is None
    assert len(ground_columns(ToyPrioritized(elements), elements)) == 20


# ----------------------------------------------------------------------
# 4. Answer identity: columnar == structure-only == oracle, per problem
# ----------------------------------------------------------------------
def sweep_queries(problem, index, legacy, rng, ks):
    for predicate in problem.predicates(8, seed=rng.randrange(1 << 20)):
        for k in ks:
            expected = oracle_top_k(problem.elements, predicate, k)
            assert index.query(predicate, k) == expected
            assert legacy.query(predicate, k) == expected


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_theorem2_columnar_identical_to_legacy(name):
    rng = random.Random(hash(name) & 0xFFFF)
    for n in (60, 170):
        problem = make_problem(name, n, seed=17)
        index = ExpectedTopKIndex(
            problem.elements, problem.prioritized_factory,
            problem.max_factory, seed=23,
        )
        assert index._columns is not None, "RAM workloads get columns"
        legacy = ExpectedTopKIndex(
            problem.elements, problem.prioritized_factory,
            problem.max_factory, seed=23, columnar=False,
        )
        assert legacy._columns is None
        sweep_queries(problem, index, legacy, rng, ks=(1, 4, n // 3, n + 5))


@pytest.mark.parametrize("name", ["range1d", "interval_stabbing", "circular2d"])
def test_theorem1_columnar_identical_to_legacy(name):
    rng = random.Random(hash(name) & 0xFFFF)
    problem = make_problem(name, 150, seed=19)
    index = WorstCaseTopKIndex(
        problem.elements, problem.prioritized_factory, seed=29,
    )
    assert index._columns is not None
    legacy = WorstCaseTopKIndex(
        problem.elements, problem.prioritized_factory, seed=29, columnar=False,
    )
    assert legacy._columns is None
    sweep_queries(problem, index, legacy, rng, ks=(1, 5, 50, 200))


def test_columnar_false_pins_structure_path():
    elements = make_toy_elements(120, seed=21)
    t2 = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=3, columnar=False)
    t1 = WorstCaseTopKIndex(elements, ToyPrioritized, seed=3, columnar=False)
    assert t2._columns is None and t1._columns is None
    predicate = RangePredicate(20.0, 80.0)
    assert t2.query(predicate, 6) == oracle_top_k(elements, predicate, 6)
    assert t1.query(predicate, 6) == oracle_top_k(elements, predicate, 6)
    assert len(t2._scans) == 0 and len(t1._scans) == 0
    assert t2.stats.monitored_probes > 0 and t1.stats.monitored_probes > 0


def test_columnar_tracks_dynamic_updates():
    elements = make_toy_elements(150, seed=31)
    index = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=5)
    assert index._columns is not None
    current = list(elements)
    rng = random.Random(6)
    for round_no in range(30):
        if rng.random() < 0.5 and current:
            victim = current.pop(rng.randrange(len(current)))
            index.delete(victim)
        else:
            extra = Element(float(rng.randrange(200)), 5000.0 + round_no + 0.5)
            index.insert(extra)
            current.append(extra)
        predicate = RangePredicate(float(rng.randrange(100)), float(rng.randrange(100, 220)))
        assert index.query(predicate, 7) == oracle_top_k(current, predicate, 7)


# ----------------------------------------------------------------------
# Snapshot/restore: columns are derived state, rebuilt on restore
# ----------------------------------------------------------------------
def test_expected_snapshot_roundtrip_stays_columnar():
    elements = make_toy_elements(200, seed=37)
    index = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=7)
    state = decode(encode(index.snapshot_state()))
    restored = ExpectedTopKIndex.restore(state, ToyPrioritized, ToyMax)
    assert restored._columns is not None
    rng = random.Random(8)
    for _ in range(15):
        lo = float(rng.randrange(150))
        predicate = RangePredicate(lo, lo + float(rng.randrange(1, 120)))
        k = rng.choice([1, 5, 12])
        expected = oracle_top_k(elements, predicate, k)
        assert restored.query(predicate, k) == expected
        assert index.query(predicate, k) == expected


def test_worstcase_snapshot_roundtrip_stays_columnar():
    elements = make_toy_elements(200, seed=41)
    index = WorstCaseTopKIndex(elements, ToyPrioritized, seed=9)
    state = decode(encode(index.snapshot_state()))
    restored = WorstCaseTopKIndex.restore(state, ToyPrioritized)
    assert restored._columns is not None
    rng = random.Random(10)
    for _ in range(15):
        lo = float(rng.randrange(150))
        predicate = RangePredicate(lo, lo + float(rng.randrange(1, 120)))
        k = rng.choice([1, 5, 12])
        expected = oracle_top_k(elements, predicate, k)
        assert restored.query(predicate, k) == expected


@pytest.mark.parametrize("reduction", ["theorem1", "theorem2"])
def test_snapshot_roundtrip_keeps_columnar_false(reduction):
    elements = make_toy_elements(200, seed=43)
    if reduction == "theorem2":
        def build(**kwargs):
            return ExpectedTopKIndex(
                elements, ToyPrioritized, ToyMax, seed=7, **kwargs
            )

        def restore(state):
            return ExpectedTopKIndex.restore(state, ToyPrioritized, ToyMax)
    else:
        def build(**kwargs):
            return WorstCaseTopKIndex(elements, ToyPrioritized, seed=9, **kwargs)

        def restore(state):
            return WorstCaseTopKIndex.restore(state, ToyPrioritized)

    # A default build writes no switch: its record stream is unchanged.
    assert "columnar" not in build().snapshot_state()
    restored = restore(decode(encode(build(columnar=False).snapshot_state())))
    assert restored._columns is None
    again = restore(decode(encode(restored.snapshot_state())))
    assert again._columns is None
    predicate = RangePredicate(20.0, 80.0)
    assert restored.query(predicate, 6) == oracle_top_k(elements, predicate, 6)
    assert len(restored._scans) == 0


# ----------------------------------------------------------------------
# Memo-window keys: monotonic structure ids, never address-aliased
# ----------------------------------------------------------------------
class TestMemoWindowKeys:
    def test_structure_ids_are_process_unique(self):
        ids = {next_structure_id() for _ in range(100)}
        assert len(ids) == 100
        assert max(ids) > min(ids)

    def _make_structure(self, seed):
        elements = make_toy_elements(120, seed=seed)
        stats = ReductionStats()
        params = TuningParams(
            lam=1.0, coreset_rate_c=3.0, rank_threshold_c=2.0,
            small_k_factor=4.0, slack=4.0,
        )
        return elements, _TopFStructure(
            elements, 16, ToyPrioritized, params, random.Random(seed), stats
        )

    def test_two_structures_never_share_memo_entries(self):
        """Regression: memo keys were ``(id(self), ...)`` — a freed
        structure's address could be reused by a successor, which then
        read the predecessor's memoized answers.  Keys are now
        process-unique ``sid`` values, so distinct structures can share
        one memo window without any cross-talk, ever."""
        elements_a, structure_a = self._make_structure(seed=1)
        elements_b, structure_b = self._make_structure(seed=2)
        assert structure_a.sid != structure_b.sid
        predicate = RangePredicate(10.0, 60.0)
        memo = {}
        answer_a = structure_a.top_f(predicate, memo=memo)
        assert structure_a.stats.memo_hits == 0
        answer_b = structure_b.top_f(predicate, memo=memo)
        assert structure_b.stats.memo_hits == 0  # b must not hit a's entry
        assert list(answer_b) == list(
            top_k_of(elements_b, predicate, structure_b.f)
        )
        # Same structure, same window: the second call memo-hits.
        assert structure_a.top_f(predicate, memo=memo) == answer_a
        assert structure_a.stats.memo_hits == 1


def test_codec_roundtrips_weight_arrays():
    from array import array

    values = array("d", [-5.5, -1.25, 0.0, 3.75])
    decoded = decode(encode(values))
    assert isinstance(decoded, array)
    assert decoded.typecode == "d"
    assert decoded == values
