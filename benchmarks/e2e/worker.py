"""One measured pass of one e2e workload, in a fresh process.

``run.py`` starts this file once per workload (twice with ``--trace``),
so ``setup_s`` and ``peak_rss_mb`` belong to that workload alone.  The
pass:

1. generates its inputs: the workload's fixed data set, and from
   ``--seed`` the op stream and the brute-force oracle answers of a
   seeded sample of reads;
2. builds the stack ``--builds`` times through public constructors and
   reports the median build time as ``setup_s``;
3. runs a warm-up prefix of the op stream untimed, then the measured
   ops from one client thread in a closed loop (each call returns
   before the next is issued);
4. compares the sampled answers with the oracle and prints one JSON
   document as the last line of standard output.

Run length is a fixed op count per workload: the workload's nominal
rate (measured at the commit that defined the benchmark) times
``--seconds``.  A pass that runs past ``DEADLINE_FACTOR`` times
``--seconds`` stops early and says so, to stay inside the caller's
time limit.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.core.problem import Element, top_k_of
from repro.core.theorem1 import WorstCaseTopKIndex
from repro.core.theorem2 import ExpectedTopKIndex
from repro.em.model import EMContext
from repro.geometry.primitives import Interval
from repro.replication.cluster import ReplicaSet
from repro.serving.engine import ServingEngine
from repro.sharding.sharded import sharded_index
from repro.structures.interval_stabbing import (
    SegmentTreeIntervalPrioritized,
    StabbingPredicate,
    StaticIntervalStabbingMax,
)
from repro.structures.range1d import RangePredicate1D
from repro.structures.range1d_dynamic import DynamicRangeTreap

SPAN = 1_000_000.0
WEIGHT_SPAN = 10**9
CHECKS = 100
DEADLINE_FACTOR = 3.0
REF_LOOP_ITERATIONS = 2_000_000
# Host-state probes: about 0.1 ms of fixed work every 20 ms.  The hosts
# this was built on alternate between a fast state and one ~1.6x slower
# in bursts of tens of ms to seconds; a probe above FAST_FACTOR times
# the run's 5th-percentile probe marks the slow state.
PROBE_ITERATIONS = 2_000
PROBE_EVERY_S = 0.02
FAST_FACTOR = 1.3

# Op kinds.  A READ carries a list of (predicate, k) requests served by
# one ``serve()`` call; a QUERY is one em-direct ``query()`` call.
READ, INSERT, DELETE, CHECKPOINT, QUERY = range(5)
KIND_NAMES = {READ: "read", QUERY: "read", INSERT: "update",
              DELETE: "update", CHECKPOINT: "checkpoint"}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    elements: List[Element]
    ops: List[tuple]
    warmup: int                       # leading ops run untimed
    #: op index -> [(request position, oracle answer)]
    checks: Dict[int, list] = field(default_factory=dict)


def _weights(rng: random.Random, count: int) -> List[float]:
    return [float(w) for w in rng.sample(range(WEIGHT_SPAN), count)]


def point_elements(rng: random.Random, n: int) -> List[Element]:
    coords = rng.sample(range(int(SPAN)), n)
    return [Element(float(c), w) for c, w in zip(coords, _weights(rng, n))]


def interval_elements(rng: random.Random, n: int) -> List[Element]:
    """Log-uniform lengths, 0.1%-30% of the span: a point stabs ~1,900."""
    out = []
    for weight in _weights(rng, n):
        length = SPAN * math.exp(rng.uniform(math.log(1e-3), math.log(0.3)))
        lo = rng.uniform(0.0, SPAN - length)
        out.append(Element(Interval(lo, lo + length), weight))
    return out


def range_predicate(rng: random.Random) -> RangePredicate1D:
    """Width log-uniform over 0.1%-20% of the span."""
    width = SPAN * math.exp(rng.uniform(math.log(1e-3), math.log(0.2)))
    lo = rng.uniform(0.0, SPAN - width)
    return RangePredicate1D(lo, lo + width)


def zipf_draw(rng: random.Random, size: int, s: float) -> Callable[[], int]:
    """Draws ranks ``0..size-1`` with probability proportional to 1/(r+1)^s."""
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(size))
    )
    total = cumulative[-1]
    return lambda: bisect.bisect_left(cumulative, rng.random() * total)


def _hot_pool(fixed: random.Random, rng: random.Random):
    """Zipf(1.1) requests over 512 predicates, k uniform in [1, 20].

    The pool and its popularity order come from ``fixed`` (the data
    set's generator): rank 1 alone draws about a sixth of all requests,
    so a pool drawn per seed would make the cost hinge on a few
    predicates' widths.  ``rng`` draws the request sequence.  The
    512 x 20 distinct ``(predicate, k)`` tuples are built once and
    shared, so millions of pre-generated requests cost one pointer each.
    """
    pool = [
        [(predicate, k) for k in range(21)]
        for predicate in (range_predicate(fixed) for _ in range(512))
    ]
    draw = zipf_draw(rng, len(pool), 1.1)
    return lambda: pool[draw()][rng.randint(1, 20)]


def read_hot_traffic(elements, fixed, rng, measured: int, warmup: int) -> Inputs:
    request = _hot_pool(fixed, rng)
    batches = -(-(measured + warmup) // 64)
    ops = [(READ, [request() for _ in range(64)]) for _ in range(batches)]
    return Inputs(elements, ops, warmup // 64)


def read_cold_traffic(elements, fixed, rng, measured: int, warmup: int) -> Inputs:
    batches = -(-(measured + warmup) // 8)
    ops = [
        (READ, [(range_predicate(rng), rng.randint(1, 20)) for _ in range(8)])
        for _ in range(batches)
    ]
    return Inputs(elements, ops, warmup // 8)


def mixed_rw_traffic(elements, fixed, rng, measured: int, warmup: int) -> Inputs:
    """80% reads from the hot pool, 20% updates, checkpoint every 400."""
    request = _hot_pool(fixed, rng)
    used = {e.weight for e in elements}
    live = list(elements)
    ops: List[tuple] = []
    pending: List[tuple] = []
    updates = 0
    warmup_ops = None
    for count in range(measured + warmup):
        if count == warmup:
            if pending:
                ops.append((READ, pending))
                pending = []
            warmup_ops = len(ops)
        if rng.random() < 0.8:
            pending.append(request())
            if len(pending) == 64:
                ops.append((READ, pending))
                pending = []
            continue
        if pending:
            ops.append((READ, pending))
            pending = []
        if rng.random() < 0.5:
            victim = rng.randrange(len(live))
            live[victim], live[-1] = live[-1], live[victim]
            ops.append((DELETE, live.pop()))
        else:
            weight = float(rng.randrange(WEIGHT_SPAN))
            while weight in used:
                weight = float(rng.randrange(WEIGHT_SPAN))
            used.add(weight)
            fresh = Element(rng.uniform(0.0, SPAN), weight)
            live.append(fresh)
            ops.append((INSERT, fresh))
        updates += 1
        if updates % 400 == 0:
            ops.append((CHECKPOINT,))
    if pending:
        ops.append((READ, pending))
    return Inputs(elements, ops, warmup_ops if warmup_ops is not None else 0)


def em_direct_traffic(elements, fixed, rng, measured: int, warmup: int) -> Inputs:
    """Stabbing queries alternating between the Thm 1 and Thm 2 indexes."""
    ops = [
        (QUERY, i % 2, StabbingPredicate(rng.uniform(0.0, SPAN)), rng.randint(1, 64))
        for i in range(measured + warmup)
    ]
    return Inputs(elements, ops, warmup)


def attach_checks(inputs: Inputs, seed: int, count: int = CHECKS) -> None:
    """Oracle answers for a seeded sample of measured read requests.

    Replays the op stream over a mirror of the live elements and
    answers each sampled request with ``top_k_of`` over the mirror at
    that point of the stream — before anything is timed.
    """
    read_ops: List[int] = []
    starts: List[int] = []          # first request ordinal of each read op
    total = 0
    for index in range(inputs.warmup, len(inputs.ops)):
        op = inputs.ops[index]
        if op[0] in (READ, QUERY):
            read_ops.append(index)
            starts.append(total)
            total += op_size(op)
    rng = random.Random(seed * 7919 + 1)
    wanted: Dict[int, List[int]] = {}
    for ordinal in rng.sample(range(total), min(count, total)):
        at = bisect.bisect_right(starts, ordinal) - 1
        wanted.setdefault(read_ops[at], []).append(ordinal - starts[at])
    mirror = dict.fromkeys(inputs.elements)
    for index, op in enumerate(inputs.ops):
        if op[0] == INSERT:
            mirror[op[1]] = None
        elif op[0] == DELETE:
            del mirror[op[1]]
        elif index in wanted:
            requests = op[1] if op[0] == READ else [(op[2], op[3])]
            inputs.checks[index] = [
                (slot, top_k_of(mirror, *requests[slot]))
                for slot in sorted(wanted[index])
            ]


# ----------------------------------------------------------------------
# Stacks (public constructors only)
# ----------------------------------------------------------------------
class ServiceStack:
    """Sharded Thm 2 over treaps behind a caching, batching engine."""

    def __init__(self, elements: List[Element], replicas: int) -> None:
        self.index = sharded_index(
            elements, DynamicRangeTreap, DynamicRangeTreap,
            num_shards=4, strategy="hash", seed=5, B=2,
            replicas_per_shard=replicas,
        )
        self.engine = ServingEngine(
            self.index, cache_capacity=1024, max_staleness=0,
            max_batch=64, pool_size=2,
        )

    def apply(self, op: tuple):
        kind = op[0]
        if kind == READ:
            return self.engine.serve(op[1])
        if kind == INSERT:
            return self.index.insert(op[1])
        if kind == DELETE:
            return self.index.delete(op[1])
        return self.index.checkpoint()

    def close(self) -> None:
        self.engine.close()

    def _machines(self):
        for name in sorted(self.index.router.shards):
            backend = self.index.router.shards[name].backend
            if isinstance(backend, ReplicaSet):
                yield from (replica.durable for replica in backend.replicas)
            else:
                yield backend

    def io(self) -> Dict[str, int]:
        """Block transfers summed over every machine's durable store."""
        out = {"reads": 0, "writes": 0, "cache_hits": 0}
        for durable in self._machines():
            stats = durable.durability_io
            out["reads"] += stats.reads
            out["writes"] += stats.writes
            out["cache_hits"] += stats.cache_hits
        return out

    def counters(self) -> Dict[str, int]:
        serving, cache = self.engine.stats, self.engine.cache.stats
        sharding = self.index.stats
        out = {
            "serving.queries": serving.queries,
            "serving.traversals": serving.traversals,
            "serving.shared_answers": serving.shared_answers,
            "cache.lookups": cache.lookups,
            "cache.hits": cache.hits,
            "sharding.queries": sharding.queries,
            "sharding.shard_probes": sharding.shard_probes,
            "sharding.shards_contacted": sharding.shards_contacted,
            "sharding.shard_slots": sharding.shard_slots,
            "sharding.escalations": sharding.escalations,
            "replication.records_shipped": 0,
            "replication.stale_fallbacks": 0,
        }
        for shard in self.index.router.shards.values():
            if isinstance(shard.backend, ReplicaSet):
                out["replication.records_shipped"] += (
                    shard.backend.stats.records_shipped
                )
                out["replication.stale_fallbacks"] += (
                    shard.backend.stats.stale_fallbacks
                )
        _add_reduction(out, (durable.inner.stats for durable in self._machines()))
        for name, value in self.io().items():
            out[f"io.{name}"] = value
        return out


class EMStack:
    """Thm 1 and Thm 2 sharing one EM context over EM-resident structures."""

    def __init__(self, elements: List[Element]) -> None:
        self.ctx = EMContext(B=16, M=128)
        prioritized = partial(SegmentTreeIntervalPrioritized, ctx=self.ctx)
        maximum = partial(StaticIntervalStabbingMax, ctx=self.ctx)
        self.indexes = (
            WorstCaseTopKIndex(elements, prioritized, B=16, seed=5),
            ExpectedTopKIndex(elements, prioritized, maximum, B=16, seed=5),
        )

    def apply(self, op: tuple):
        return self.indexes[op[1]].query(op[2], op[3])

    def close(self) -> None:
        pass

    def io(self) -> Dict[str, int]:
        stats = self.ctx.stats
        return {"reads": stats.reads, "writes": stats.writes,
                "cache_hits": stats.cache_hits}

    def counters(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        _add_reduction(out, (index.stats for index in self.indexes))
        for name, value in self.io().items():
            out[f"io.{name}"] = value
        return out


REDUCTION_FIELDS = (
    "queries", "monitored_probes", "threshold_fetches", "fallbacks",
    "full_scans", "memo_hits",
)


def _add_reduction(out: Dict[str, int], all_stats) -> None:
    for name in REDUCTION_FIELDS:
        out[f"core.{name}"] = 0
    for stats in all_stats:
        for name in REDUCTION_FIELDS:
            out[f"core.{name}"] += getattr(stats, name)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    data: Callable[[random.Random, int], List[Element]]
    traffic: Callable[..., Inputs]
    build: Callable[[List[Element]], object]
    #: The data set (and the hot predicate pool) is fixed per workload;
    #: ``--seed`` draws the traffic.  Across six data seeds em-direct's
    #: I/Os per query ranged 190-261 (the reductions' random samples
    #: interact with the whole data set), which no run length averages
    #: away; across six traffic seeds over one data set they stayed
    #: within 2%.
    data_seed: int
    n: int
    quick_n: int
    #: Ops per second at the commit that defined the benchmark; sets
    #: the fixed op count for a given ``--seconds``.
    nominal_rate: float
    warmup: int
    quick_ops: int

    def generate(self, seed: int, quick: bool, measured: int, warmup: int) -> Inputs:
        fixed = random.Random(self.data_seed)
        elements = self.data(fixed, self.quick_n if quick else self.n)
        return self.traffic(elements, fixed, random.Random(seed), measured, warmup)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("read-hot", point_elements, read_hot_traffic,
                 partial(ServiceStack, replicas=1), data_seed=101,
                 n=20_000, quick_n=2_000, nominal_rate=150_000.0,
                 warmup=64 * 150, quick_ops=64 * 40),
        Workload("read-cold", point_elements, read_cold_traffic,
                 partial(ServiceStack, replicas=1), data_seed=102,
                 n=50_000, quick_n=4_000, nominal_rate=750.0,
                 warmup=8 * 40, quick_ops=8 * 40),
        Workload("mixed-rw", point_elements, mixed_rw_traffic,
                 partial(ServiceStack, replicas=3), data_seed=103,
                 n=20_000, quick_n=2_000, nominal_rate=500.0,
                 warmup=600, quick_ops=2_200),
        Workload("em-direct", interval_elements, em_direct_traffic,
                 EMStack, data_seed=104,
                 n=32_768, quick_n=2_048, nominal_rate=750.0,
                 warmup=200, quick_ops=300),
    )
}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def loop_ms(iterations: int) -> float:
    """Wall time of a fixed pure-Python loop, in milliseconds."""
    began = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i & 7
    return (time.perf_counter() - began) * 1e3


def op_size(op: tuple) -> int:
    """Requests an op stands for in ``attempted`` (checkpoints count 0)."""
    if op[0] == READ:
        return len(op[1])
    return 0 if op[0] == CHECKPOINT else 1


@dataclass
class PassResult:
    wall_s: float = 0.0               # measured phase, probes excluded
    #: op kind name -> latency of each call, ms, in issue order
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: op kind name -> probe window of each call
    windows: Dict[str, List[int]] = field(default_factory=dict)
    probes_ms: List[float] = field(default_factory=list)
    #: probes from the warm-up, used only to find the fast state
    calibration_ms: List[float] = field(default_factory=list)
    reads: int = 0
    updates: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    completed_ops: int = 0
    #: op kind -> io counter deltas (traced pass only)
    io_by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def fast(self, kind: str) -> List[float]:
        """Latencies of ``kind`` from windows the host ran in its fast state.

        Window ``w`` lies between probes ``w`` and ``w + 1``; it is fast
        when those probes and one more on each side are within
        ``FAST_FACTOR`` of the 5th percentile of every probe of the
        pass, warm-up included (a lone fast probe inside a slow spell
        does not count).  The probes know nothing about the ops, so the
        selection keeps rare expensive calls in proportion.  With no
        fast window at all, every sample is used.
        """
        samples = self.samples.get(kind, [])
        if not samples or len(self.probes_ms) < 2:
            return samples
        reference = self.probes_ms + self.calibration_ms
        cut = FAST_FACTOR * statistics.quantiles(reference, n=20)[0]
        steady = [ms <= cut for ms in self.probes_ms]
        last = len(steady)
        fast_window = [
            all(steady[max(0, w - 1):min(last, w + 3)]) for w in range(last - 1)
        ]
        fast = [
            ms for ms, w in zip(samples, self.windows[kind]) if fast_window[w]
        ]
        return fast or samples


def run_ops(stack, inputs: Inputs, start: int, stop: int, result: PassResult,
            deadline: float = math.inf, tracer=None, probe: bool = False) -> None:
    """Apply ``ops[start:stop]`` in order, one call at a time.

    Exceptions and oracle mismatches count as failed requests and the
    run continues.  With ``probe``, a short fixed loop runs about every
    ``PROBE_EVERY_S`` between calls (untimed) to record the host's
    speed state.  ``tracer`` (traced pass) tags each op with its kind
    and splits durable-store I/O by kind around updates and checkpoints.
    """
    clock = time.perf_counter
    apply, checks, ops = stack.apply, inputs.checks, inputs.ops
    probe_s = 0.0
    window = 0
    if probe:
        result.probes_ms.append(loop_ms(PROBE_ITERATIONS))
    began_all = next_probe = clock()
    for index in range(start, stop):
        op = ops[index]
        kind = op[0]
        name = KIND_NAMES[kind]
        size = op_size(op)
        if tracer is not None:
            tokens = tracer.begin_op(name, index)
            io_before = stack.io() if name != "read" else None
        began = clock()
        try:
            answer = apply(op)
        except Exception as exc:  # counted, reported, and the run goes on
            answer = None
            result.failed += size
            if len(result.errors) < 5:
                result.errors.append(f"op {index}: {exc!r}")
        ended = clock()
        if tracer is not None:
            tracer.end_op(tokens)
            if io_before is not None:
                bucket = result.io_by_kind.setdefault(name, {})
                for counter, value in stack.io().items():
                    bucket[counter] = bucket.get(counter, 0) + value - io_before[counter]
        result.attempted += size
        if name == "read":
            result.reads += size
        elif name == "update":
            result.updates += 1
        result.samples.setdefault(name, []).append((ended - began) * 1e3)
        result.windows.setdefault(name, []).append(window)
        if index in checks and answer is not None:
            answers = answer if kind == READ else [answer]
            for slot, expected in checks[index]:
                if answers[slot] != expected:
                    result.failed += 1
        result.completed_ops = index + 1
        if ended > deadline:
            break
        if probe and ended >= next_probe:
            result.probes_ms.append(loop_ms(PROBE_ITERATIONS))
            window += 1
            next_probe = clock()
            probe_s += next_probe - ended
            next_probe += PROBE_EVERY_S
    if probe:
        result.probes_ms.append(loop_ms(PROBE_ITERATIONS))
    result.wall_s = clock() - began_all - probe_s


def percentile(samples_ms: List[float], q: float) -> dict:
    """Nearest-rank percentile with the number of samples beyond it."""
    ordered = sorted(samples_ms)
    if not ordered:
        return {"value": 0.0, "samples": 0, "beyond": 0}
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return {"value": ordered[rank - 1], "samples": len(ordered),
            "beyond": len(ordered) - rank}


def steady_ops_per_s(result: PassResult) -> float:
    """Requests per second of fast-state time, checkpoints included.

    Each op kind's fast-window mean latency, times the number of ops of
    that kind, estimates the pass's wall time had the host stayed fast.
    """
    seconds = sum(
        len(samples) * statistics.fmean(result.fast(kind)) / 1e3
        for kind, samples in result.samples.items() if samples
    )
    return ratio(result.reads + result.updates, seconds)


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before.get(name, 0) for name in after}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, counts: Dict[str, int],
                      result: PassResult) -> Dict[str, dict]:
    """The traced pass's per-layer metrics (units as in BENCHMARK.json)."""
    reads, updates = result.reads, result.updates
    wall_ns = result.wall_s * 1e9
    us = 1e-3

    def get(name):
        return counts.get(name, 0)

    io_update = result.io_by_kind.get("update", {})
    io_checkpoint = result.io_by_kind.get("checkpoint", {})
    io_read = {
        name: get(f"io.{name}") - io_update.get(name, 0)
        - io_checkpoint.get(name, 0)
        for name in ("reads", "writes", "cache_hits")
    }
    core_queries = get("core.queries")
    structure_calls = tracer.calls("structures.", "read")
    metrics = {
        "serving.self_us_per_read": (
            ratio(tracer.self_ns("serving.", "read") * us, reads), "us"),
        "serving.cache_hit_rate": (
            ratio(get("cache.hits"), get("cache.lookups")), "ratio"),
        "serving.traversals_per_read": (
            ratio(get("serving.traversals"), get("serving.queries")), "count"),
        "serving.shared_answers_per_read": (
            ratio(get("serving.shared_answers"), get("serving.queries")), "count"),
        "sharding.self_us_per_read": (
            ratio(tracer.self_ns("sharding.", "read") * us, reads), "us"),
        "sharding.self_us_per_update": (
            ratio(tracer.self_ns("sharding.", "update") * us, updates), "us"),
        "sharding.probes_per_query": (
            ratio(get("sharding.shard_probes"), get("sharding.queries")), "count"),
        "sharding.contact_ratio": (
            ratio(get("sharding.shards_contacted"), get("sharding.shard_slots")),
            "ratio"),
        "sharding.escalations_per_query": (
            ratio(get("sharding.escalations"), get("sharding.queries")), "count"),
        "replication.self_us_per_read": (
            ratio(tracer.self_ns("replication.", "read") * us, reads), "us"),
        "replication.self_us_per_update": (
            ratio(tracer.self_ns("replication.", "update") * us, updates), "us"),
        "replication.records_shipped_per_update": (
            ratio(get("replication.records_shipped"), updates), "count"),
        "replication.stale_fallbacks": (
            get("replication.stale_fallbacks"), "count"),
        "durability.self_us_per_read": (
            ratio(tracer.self_ns("durability.", "read") * us, reads), "us"),
        "durability.self_us_per_update": (
            ratio(tracer.self_ns("durability.", "update") * us, updates), "us"),
        "durability.block_writes_per_update": (
            ratio(io_update.get("writes", 0), updates), "count"),
        "durability.replayed_records_per_read": (
            ratio(tracer.result_total("durability.replay_unapplied", "read"),
                  reads), "count"),
        "durability.checkpoint_ms": (
            statistics.fmean(result.samples["checkpoint"])
            if result.samples.get("checkpoint") else 0.0, "ms"),
        "core.calls_per_read": (ratio(core_queries, reads), "count"),
        "core.self_us_per_call": (
            ratio(tracer.self_ns("core.", "read") * us,
                  tracer.calls("core.query", "read")), "us"),
        "core.self_us_per_update": (
            ratio(tracer.self_ns("core.", "update") * us, updates), "us"),
        **{
            f"core.{name}_per_call": (
                ratio(get(f"core.{name}"), core_queries), "count")
            for name in REDUCTION_FIELDS[1:]
        },
        "structures.prioritized_probes_per_read": (
            ratio(tracer.calls("structures.prioritized", "read"), reads), "count"),
        "structures.max_probes_per_read": (
            ratio(tracer.calls("structures.max", "read"), reads), "count"),
        "structures.self_us_per_call": (
            ratio(tracer.self_ns("structures.", "read") * us, structure_calls),
            "us"),
        "structures.self_us_per_update": (
            ratio(tracer.self_ns("structures.", "update") * us, updates), "us"),
        "em.block_reads_per_read": (ratio(io_read["reads"], reads), "count"),
        "em.block_writes_per_read": (ratio(io_read["writes"], reads), "count"),
        "em.buffer_hits_per_read": (ratio(io_read["cache_hits"], reads), "count"),
        "em.ios_per_read": (
            ratio(io_read["reads"] + io_read["writes"], reads), "count"),
        "em.self_us_per_read": (
            ratio(tracer.self_ns("em.", "read") * us, reads), "us"),
    }
    for layer in ("serving", "sharding", "replication", "durability", "core",
                  "structures", "em"):
        metrics[f"{layer}.self_pct"] = (
            ratio(tracer.self_ns(f"{layer}.") * 100.0, wall_ns), "%")
    metrics["trace.unattributed_pct"] = (
        ratio((wall_ns - tracer.root_ns) * 100.0, wall_ns), "%")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def run_pass(args) -> dict:
    workload = WORKLOADS[args.workload]
    measured = (
        workload.quick_ops if args.quick
        else max(1, round(workload.nominal_rate * args.seconds))
    )
    warmup = workload.warmup // 4 if args.quick else workload.warmup
    host_ms = loop_ms(REF_LOOP_ITERATIONS)
    inputs = workload.generate(args.seed, args.quick, measured, warmup)
    attach_checks(inputs, args.seed)

    setup_s: List[float] = []
    stack = None
    for _ in range(args.builds):
        if stack is not None:
            stack.close()
            stack = None
            gc.collect()
        began = time.perf_counter()
        stack = workload.build(inputs.elements)
        setup_s.append(time.perf_counter() - began)

    result = PassResult()
    try:
        warm = PassResult()
        run_ops(stack, inputs, 0, inputs.warmup, warm, probe=True)
        result.calibration_ms = warm.probes_ms
        gc.collect()
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        before = stack.counters()
        try:
            run_ops(stack, inputs, inputs.warmup, len(inputs.ops), result,
                    deadline=time.perf_counter() + DEADLINE_FACTOR * args.seconds,
                    tracer=tracer, probe=True)
        finally:
            if tracer is not None:
                tracer.uninstall()
        counts = delta(stack.counters(), before)
    finally:
        stack.close()

    reads = result.fast("read")
    updates = result.fast("update")
    all_reads = result.samples.get("read", [])

    def ms(value):
        return {"value": value, "unit": "ms"}

    def count(value):
        return {"value": value, "unit": "count"}

    tails = {q: percentile(reads, q) for q in (90, 99)}
    update_p99 = percentile(updates, 99)
    doc = {
        "workload": workload.name,
        "seed": args.seed,
        "correct": result.failed == 0,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "truncated": result.completed_ops < len(inputs.ops),
        "errors": result.errors,
        "end_to_end": {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "ops_per_s": {"value": steady_ops_per_s(result), "unit": "ops/s"},
            "read_p50_ms": ms(statistics.median(reads) if reads else 0.0),
            "read_p90_ms": ms(tails[90]["value"]),
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        },
        "extra": {
            "failed_fraction": {
                "value": ratio(result.failed, result.attempted), "unit": "ratio"},
            "read_p99_ms": ms(tails[99]["value"]),
            "read_samples": count(len(reads)),
            "read_p90_beyond": count(tails[90]["beyond"]),
            "read_p99_beyond": count(tails[99]["beyond"]),
            "fast_share": {"value": ratio(len(reads), len(all_reads)), "unit": "ratio"},
            "wall_ops_per_s": {
                "value": ratio(result.reads + result.updates, result.wall_s),
                "unit": "ops/s"},
            "update_p50_ms": ms(statistics.median(updates) if updates else 0.0),
            "update_p99_ms": ms(update_p99["value"]),
            "update_samples": count(update_p99["samples"]),
            "checkpoints": count(len(result.samples.get("checkpoint", []))),
            "ios_per_query": {
                "value": ratio(counts.get("io.reads", 0) + counts.get("io.writes", 0),
                               result.reads) if isinstance(stack, EMStack) else 0.0,
                "unit": "I/Os"},
            "measured_s": {"value": result.wall_s, "unit": "s"},
            "setup_runs_s": {"value": setup_s, "unit": "s"},
            "host.ref_loop_ms": ms(host_ms),
        },
        "counters": counts,
    }
    if tracer is not None:
        doc["per_layer"] = per_layer_metrics(tracer, counts, result)
        if args.trace_out:
            tracer.dump(args.trace_out, {
                "workload": workload.name, "seed": args.seed,
                "wall_ns": int(result.wall_s * 1e9),
            })
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--builds", type=int, default=3)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for every thread of the pass.  The hosts this was built on
    # slow each vCPU down independently; pinned, the probes see the CPU
    # the work runs on.  The serving pool's threads share one GIL, so
    # the pin costs no parallelism (it measured faster: no cross-CPU
    # GIL hand-offs).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    doc = run_pass(args)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
