"""Batch planning and shared-traversal execution (repro.serving.batch)."""

from __future__ import annotations

import pytest

from repro.core.problem import top_k_of
from repro.core.theorem1 import WorstCaseTopKIndex
from repro.core.theorem2 import ExpectedTopKIndex
from repro.serving.batch import (
    QueryRequest,
    execute_batch,
    plan_batch,
    predicate_key,
)
from toy import RangePredicate, ToyMax, ToyPrioritized, make_toy_elements

from serving_util import make_requests


def test_plan_groups_by_predicate_and_sorts_descending_k():
    p, q = RangePredicate(0, 10), RangePredicate(5, 20)
    requests = [
        QueryRequest(p, 3),
        QueryRequest(q, 7),
        QueryRequest(p, 9),
        QueryRequest(p, 1),
    ]
    plan = plan_batch(requests)
    assert plan.size == 4
    assert plan.traversals == 2          # two distinct predicates
    assert plan.shared == 2              # two requests rode along
    by_key = {group.key: group for group in plan.groups}
    group_p = by_key[predicate_key(p)]
    assert group_p.max_k == 9
    # Members descend in k so the group answer is computed once at max_k.
    assert [k for _, k in group_p.members] == [9, 3, 1]
    # Positions map back to the original request order.
    assert [pos for pos, _ in group_p.members] == [2, 0, 3]


def test_plan_empty_batch():
    plan = plan_batch([])
    assert plan.size == 0 and plan.traversals == 0 and plan.groups == []


def test_predicate_key_distinguishes_unhashable_by_repr():
    class Listy:
        def __init__(self, bounds):
            self.bounds = bounds

        __hash__ = None

        def __repr__(self):
            return f"Listy({self.bounds})"

        def matches(self, obj):
            return self.bounds[0] <= obj <= self.bounds[1]

    a, b = Listy([0, 5]), Listy([0, 6])
    assert predicate_key(a) != predicate_key(b)
    assert predicate_key(a) == predicate_key(Listy([0, 5]))


@pytest.mark.parametrize("builder", ["theorem1", "theorem2", "default"])
def test_batch_answers_equal_serial_queries(builder):
    elements = make_toy_elements(60, seed=11)
    if builder == "theorem1":
        index = WorstCaseTopKIndex(elements, ToyPrioritized, seed=1)
    else:
        index = ExpectedTopKIndex(
            elements, ToyPrioritized, ToyMax, seed=3
        )
    requests = make_requests(40, seed=5)
    if builder == "default":
        # The TopKIndex default implementation, no reduction override.
        answers = execute_batch(index, requests)
    else:
        answers = index.query_topk_batch(requests)
    for request, answer in zip(requests, answers):
        assert answer == top_k_of(elements, request.predicate, request.k)


def test_batch_answers_never_alias():
    elements = make_toy_elements(30, seed=2)
    index = WorstCaseTopKIndex(elements, ToyPrioritized)
    p = RangePredicate(0, 300)  # positions span [0, 10n)
    answers = index.query_topk_batch(
        [QueryRequest(p, 5), QueryRequest(p, 5), QueryRequest(p, 3)]
    )
    answers[0].append("sentinel")
    assert answers[1][-1] != "sentinel"
    assert len(answers[1]) == 5 and len(answers[2]) == 3


def test_batch_zero_k_members():
    elements = make_toy_elements(10, seed=4)
    index = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=3)
    p = RangePredicate(0, 100)
    answers = index.query_topk_batch([QueryRequest(p, 0), QueryRequest(p, 2)])
    assert answers[0] == []
    assert answers[1] == top_k_of(elements, p, 2)


def test_theorem1_memo_window_shares_probes():
    # columnar=False: the window memoizes the core-set descent; a
    # columnar index keeps live scans across windows instead.
    elements = make_toy_elements(80, seed=9)
    index = WorstCaseTopKIndex(elements, ToyPrioritized, seed=1, columnar=False)
    p, q = RangePredicate(0, 600), RangePredicate(100, 500)
    index.stats.reset()
    with index.batched():
        first = index.query(p, 3)
        again = index.query(p, 3)
        other = index.query(q, 2)
    assert again == first
    assert index.stats.memo_hits > 0
    assert other == top_k_of(elements, q, 2)
    # The window closed: probes run fresh again.
    assert index._memo is None
    hits_before = index.stats.memo_hits
    index.query(p, 3)
    assert index.stats.memo_hits == hits_before


def test_theorem2_memo_window_shares_probes_and_clears_on_update():
    elements = make_toy_elements(80, seed=9)
    index = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=3)
    p = RangePredicate(0, 799)
    with index.batched():
        first = index.query(p, 4)
        assert index.query(p, 4) == first
        assert index.stats.memo_hits > 0
        # An update inside the window must not leave stale probes behind.
        extra = make_toy_elements(1, seed=77, weight_offset=5000.0)[0]
        index.insert(extra)
        fresh = index.query(p, 4)
        assert fresh == top_k_of(elements + [extra], p, 4)
        assert fresh[0] == extra
    assert index._memo is None


def test_nested_batched_windows_share_one_memo():
    elements = make_toy_elements(40, seed=1)
    index = WorstCaseTopKIndex(elements, ToyPrioritized)
    with index.batched():
        outer = index._memo
        with index.batched():
            assert index._memo is outer
        assert index._memo is outer
    assert index._memo is None


def test_plan_group_order_is_deterministic_for_default_repr_predicates():
    """Groups must sort identically across runs (satellite bugfix).

    A predicate class without its own ``__repr__`` inherits
    ``object``'s, which embeds the instance's memory address — sorting
    groups by bare repr would then order the same batch differently on
    every run.  ``_sort_key`` masks addresses (and keys dataclasses by
    field values), so the plan's group order depends only on values.
    """

    class Anon:
        def __init__(self, lo, hi):
            self.lo = lo
            self.hi = hi

        def matches(self, obj):
            return self.lo <= obj <= self.hi

    from repro.serving.batch import _sort_key

    a, b = Anon(0, 5), Anon(0, 5)
    assert repr(a) != repr(b)          # default reprs embed addresses
    assert _sort_key(a) == _sort_key(b)  # ...but the sort key is stable

    requests = [QueryRequest(b, 2), QueryRequest(a, 3)]
    plan = plan_batch(requests)
    assert plan.traversals == 2  # distinct objects stay distinct groups
    # Tied keys: plan_batch's sort is stable, so first-seen order holds.
    assert [g.predicate for g in plan.groups] == [b, a]


def test_sort_key_uses_dataclass_fields():
    from repro.serving.batch import _sort_key

    key = _sort_key(RangePredicate(1, 2))
    assert key[0] == "RangePredicate"
    assert "'lo'" in key[1] and "'hi'" in key[1]
    assert key == _sort_key(RangePredicate(1, 2))
    assert key != _sort_key(RangePredicate(1, 3))


def test_sort_key_masks_addresses_inside_dataclass_fields():
    """A dataclass predicate may hold a field *value* without its own
    ``__repr__``; the per-field reprs must mask addresses too, or group
    order is nondeterministic across processes for exactly that case.
    """
    import dataclasses

    from repro.serving.batch import _sort_key

    class Anchor:  # default object repr: embeds a memory address
        def __init__(self, value):
            self.value = value

    @dataclasses.dataclass(frozen=True, eq=False)
    class NearAnchor:
        anchor: Anchor

        def matches(self, obj):
            return obj == self.anchor.value

    a, b = NearAnchor(Anchor(7)), NearAnchor(Anchor(7))
    assert repr(a.anchor) != repr(b.anchor)  # addresses really differ
    assert "0x" not in _sort_key(a)[1].replace("0xADDR", "")
    assert _sort_key(a) == _sort_key(b)
