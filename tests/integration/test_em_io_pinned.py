"""Pinned EM I/O and reduction counts on one seeded workload.

Theorem 1 and Theorem 2 share one ``EMContext(B=16, M=128)`` over
EM-resident interval structures, as in the benchmark's em-direct
workload, and answer 200 stabbing queries with ``k`` in ``[1, 64]``.
Every answer must be oracle-exact, and the context's ``IOStats`` and
both indexes' ``ReductionStats`` must equal the totals pinned below.
A change to a block transfer, the LRU cache or the point where a scan
stops moves these totals even when every answer stays right.

Endpoints, weights and stabbing points are integers or halves, so the
counts depend on no floating-point library and are the same on every
supported Python.  To re-check them without pytest::

    PYTHONPATH=src:tests python tests/integration/test_em_io_pinned.py
"""

import random
from functools import partial

from oracles import oracle_top_k
from repro.core.problem import Element
from repro.core.theorem1 import WorstCaseTopKIndex
from repro.core.theorem2 import ExpectedTopKIndex
from repro.em.model import EMContext
from repro.geometry.primitives import Interval
from repro.structures.interval_stabbing import (
    SegmentTreeIntervalPrioritized,
    StabbingPredicate,
    StaticIntervalStabbingMax,
)

N = 8_000
QUERIES = 200
SPAN = 10_000

#: (reads, writes, cache_hits) of the shared context.
PINNED_IO = {"build": (0, 13259, 0), "queries": (29054, 8, 338)}
PINNED_REDUCTIONS = {
    "theorem1": (
        ("batch_queries", 0), ("fallbacks", 0), ("full_scans", 0),
        ("memo_hits", 0), ("monitored_probes", 100), ("queries", 100),
        ("threshold_fetches", 91),
    ),
    "theorem2": (
        ("batch_queries", 0), ("fallbacks", 73), ("full_scans", 0),
        ("memo_hits", 0), ("monitored_probes", 173), ("queries", 100),
        ("threshold_fetches", 127),
    ),
}


def make_elements(rng):
    weights = rng.sample(range(10 * N), N)
    out = []
    for weight in weights:
        lo = rng.randrange(SPAN)
        out.append(Element(Interval(lo, lo + rng.randrange(SPAN // 3)), float(weight)))
    return out


def run_workload():
    """Build both indexes, run the queries; return the measured totals."""
    rng = random.Random(2016)
    elements = make_elements(rng)
    ctx = EMContext(B=16, M=128)
    prioritized = partial(SegmentTreeIntervalPrioritized, ctx=ctx)
    maximum = partial(StaticIntervalStabbingMax, ctx=ctx)
    indexes = (
        WorstCaseTopKIndex(elements, prioritized, B=16, seed=5),
        ExpectedTopKIndex(elements, prioritized, maximum, B=16, seed=5),
    )
    built = ctx.stats.snapshot()
    inexact = 0
    for i in range(QUERIES):
        predicate = StabbingPredicate(rng.randrange(-20, 2 * SPAN + 20) / 2)
        k = rng.randint(1, 64)
        answer = indexes[i % 2].query(predicate, k)
        inexact += answer != oracle_top_k(elements, predicate, k)
    queried = ctx.stats.delta(built)
    io = {
        "build": (built.reads, built.writes, built.cache_hits),
        "queries": (queried.reads, queried.writes, queried.cache_hits),
    }
    reductions = {
        name: tuple(sorted(vars(index.stats).items()))
        for name, index in zip(("theorem1", "theorem2"), indexes)
    }
    return inexact, io, reductions


def test_em_counts_match_pinned_totals():
    inexact, io, reductions = run_workload()
    assert inexact == 0
    assert io == PINNED_IO
    assert reductions == PINNED_REDUCTIONS


if __name__ == "__main__":
    print(run_workload())
