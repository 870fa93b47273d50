"""The partition scenario grid and the seeded workload driver.

One shared driver runs a seeded insert/delete/query workload against a
:class:`~repro.replication.cluster.ReplicaSet` whose fabric a
:class:`PartitionScenario` sabotages, records every operation in a
:class:`~repro.net.history.HistoryRecorder`, heals the network, forces
convergence, and hands the history to the offline checker.  Tests, the
E22 benchmark, and the example all drive the *same* grid:

==========================  ==========================================
``primary_isolated``        the primary loses both directions to every
                            follower (the classic split-brain bait)
``minority_split``          one follower is cut off; the primary keeps
                            a quorum and service continues
``majority_split``          the primary keeps one follower (majority)
                            while the other is cut off, then the cut
                            follower returns mid-workload
``asymmetric_partition``    primary→followers dead while
                            followers→primary lives — the direction
                            only per-directed-link fault plans can say
``flapping_links``          repeated short symmetric windows between
                            the primary and each follower
``lossy_links``             no partitions at all: drop / duplicate /
                            reorder rates on every link (the dedupe
                            and idempotent-retry stress)
==========================  ==========================================

plus the sharded twin (partition during an online ``split_shard``) in
:func:`run_sharded_partition_scenario`.

The driver advances the fabric's virtual clock on a fixed grid
(``STEP`` units per workload step) so scenario windows land
deterministically regardless of how many messages each op sends.

``fenced=False`` runs the same workload without leases/fencing *and*
forces a failover mid-partition — the ablation in which the checker
must catch the split-brain write loss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from typing import TYPE_CHECKING

from repro.core.problem import Element
from repro.net.fabric import LinkPlan, NetworkFabric
from repro.net.history import CheckResult, HistoryRecorder, check_history
from repro.resilience.errors import (
    ElementMembershipError,
    FailoverError,
    FencedError,
    PartitionedError,
    ReplicaUnavailable,
    ShardUnavailable,
)
from repro.structures.range1d import RangePredicate1D

if TYPE_CHECKING:  # pragma: no cover - import cycle: cluster imports net
    from repro.replication.cluster import ReplicaSet

# Virtual-time layout: every workload step advances the clock to the
# next multiple of STEP, so scenario windows (expressed in steps) are
# deterministic.  The lease TTL spans a few steps: long enough that a
# renewal is only *due* every other step, short enough that an isolated
# primary demotes well inside a partition window.
STEP = 16
LEASE_TTL = 3 * STEP
DEFAULT_STEPS = 48

_SPAN = 1024.0


@dataclass(frozen=True)
class PartitionScenario:
    """One named sabotage of the fabric.

    ``schedule(fabric, names, steps)`` installs fault plans before the
    workload starts; ``names`` is the replica list with ``names[0]``
    the initial primary, windows are in virtual time (multiples of
    :data:`STEP`).
    """

    name: str
    description: str
    schedule: Callable[[NetworkFabric, List[str], int], None]


def _isolate_primary(fabric: NetworkFabric, names: List[str], steps: int) -> None:
    start, end = 8 * STEP, (steps - 16) * STEP
    fabric.isolate(names[0], names, start=start, end=end)


def _minority_split(fabric: NetworkFabric, names: List[str], steps: int) -> None:
    start, end = 8 * STEP, (steps - 12) * STEP
    fabric.isolate(names[-1], names, start=start, end=end)


def _majority_split(fabric: NetworkFabric, names: List[str], steps: int) -> None:
    # The primary keeps names[1] (a majority); names[2] is cut off and
    # returns mid-workload to catch up from its durable watermark.
    start, end = 6 * STEP, (steps // 2) * STEP
    fabric.isolate(names[2], names, start=start, end=end)


def _asymmetric(fabric: NetworkFabric, names: List[str], steps: int) -> None:
    # primary -> follower dead, follower -> primary alive: acks can
    # come home but nothing ships out.
    start, end = 8 * STEP, (steps - 16) * STEP
    for follower in names[1:]:
        fabric.partition(names[0], follower, start=start, end=end, symmetric=False)


def _flapping(fabric: NetworkFabric, names: List[str], steps: int) -> None:
    for flap in range(4, steps - 12, 8):
        start, end = flap * STEP, (flap + 3) * STEP
        for follower in names[1:]:
            fabric.partition(names[0], follower, start=start, end=end)


def _lossy(fabric: NetworkFabric, names: List[str], steps: int) -> None:
    for src in names:
        for dst in names:
            if src != dst:
                fabric.link(src, dst).plan = LinkPlan(
                    drop_rate=0.10, dup_rate=0.10, reorder_rate=0.05,
                    reorder_window=2, delay=1,
                )


SCENARIOS: List[PartitionScenario] = [
    PartitionScenario(
        "primary_isolated",
        "primary loses both directions to every follower",
        _isolate_primary,
    ),
    PartitionScenario(
        "minority_split",
        "one follower cut off; the primary side keeps a quorum",
        _minority_split,
    ),
    PartitionScenario(
        "majority_split",
        "primary+one follower vs one follower, healing mid-workload",
        _majority_split,
    ),
    PartitionScenario(
        "asymmetric_partition",
        "primary->followers dead while followers->primary lives",
        _asymmetric,
    ),
    PartitionScenario(
        "flapping_links",
        "repeated short partition windows between primary and followers",
        _flapping,
    ),
    PartitionScenario(
        "lossy_links",
        "10% drop + 10% duplication + 5% reordering on every link",
        _lossy,
    ),
]


@dataclass
class ScenarioRun:
    """Everything one driver run produced, checker verdict included."""

    scenario: str
    seed: int
    fenced: bool
    check: CheckResult
    fabric: NetworkFabric
    cluster: Optional[ReplicaSet] = None
    ok_writes: int = 0
    failed_writes: int = 0
    indeterminate_writes: int = 0
    reads: int = 0
    failed_reads: int = 0
    post_heal_reads: int = 0
    notes: List[str] = field(default_factory=list)


def scenario_elements(n: int) -> List[Element]:
    """Distinct-weight point elements spread over ``[0, _SPAN)``."""
    return [
        Element(float((i * 37) % 1021) % _SPAN, 1000.0 + i) for i in range(n)
    ]


def run_partition_scenario(
    scenario: PartitionScenario,
    seed: int,
    fenced: bool = True,
    steps: int = DEFAULT_STEPS,
    force_failover_at: Optional[int] = None,
) -> ScenarioRun:
    """One seeded workload under one scenario; returns the checked run.

    The cluster is three canonical Theorem 2 replicas over a treap.
    ``force_failover_at`` (a step index) deposes the primary mid-run —
    the unfenced ablation uses it to manufacture the split-brain window
    the checker must catch; fenced runs may also use it to prove the
    lease wait makes it safe.
    """
    from repro.replication.cluster import replicated_index
    from repro.structures.range1d_dynamic import DynamicRangeTreap

    fabric = NetworkFabric(seed=seed)
    elements = scenario_elements(24)
    cluster = replicated_index(
        elements,
        DynamicRangeTreap,
        DynamicRangeTreap,
        num_replicas=3,
        seed=5,
        fabric=fabric,
        lease_ttl=LEASE_TTL if fenced else 0,
    )
    names = [r.name for r in cluster.replicas]
    scenario.schedule(fabric, names, steps)
    recorder = HistoryRecorder()
    rng = random.Random(repr((seed, scenario.name, fenced)))
    run = ScenarioRun(
        scenario=scenario.name, seed=seed, fenced=fenced,
        check=CheckResult(), fabric=fabric, cluster=cluster,
    )
    acked: List[Element] = list(elements)
    next_weight = 1000.0 + len(elements)
    # ElementMembershipError shows up only when a divergent primary
    # (unfenced split-brain) no longer holds an element we acked — the
    # delete visibly failed, which is exactly what the checker should
    # then reason about.
    write_errors = (
        PartitionedError, FencedError, ReplicaUnavailable, FailoverError,
        ElementMembershipError,
    )

    def record_write(op_id: int, attempt: Callable[[], None]) -> bool:
        try:
            attempt()
        except write_errors as exc:
            if isinstance(exc, PartitionedError) and exc.indeterminate:
                recorder.info(op_id)
                run.indeterminate_writes += 1
            else:
                recorder.fail(op_id)
                run.failed_writes += 1
            return False
        recorder.ok(op_id)
        run.ok_writes += 1
        return True

    def run_query(k: int = 4) -> None:
        lo = rng.uniform(0.0, _SPAN * 0.75)
        predicate = RangePredicate1D(lo, lo + rng.uniform(64.0, _SPAN / 2))
        op_id = recorder.invoke_query(predicate, k)
        run.reads += 1
        try:
            answer = cluster.query(predicate, k)
        except write_errors:
            recorder.fail(op_id)
            run.failed_reads += 1
            return
        recorder.ok(op_id, answer)

    for step in range(steps):
        fabric.advance_to(step * STEP)
        if force_failover_at is not None and step == force_failover_at:
            try:
                successor = cluster.force_failover()
                run.notes.append(
                    f"step {step}: forced failover to {successor.name}"
                )
            except (FailoverError, ReplicaUnavailable) as exc:
                run.notes.append(f"step {step}: forced failover refused: {exc}")
            continue
        draw = rng.random()
        if draw < 0.45:
            element = Element(rng.uniform(0.0, _SPAN), next_weight)
            next_weight += 1.0
            op_id = recorder.invoke_insert(element)
            if record_write(op_id, lambda e=element: cluster.insert(e)):
                acked.append(element)
        elif draw < 0.60 and len(acked) > 8:
            element = acked[rng.randrange(len(acked))]
            op_id = recorder.invoke_delete(element)
            if record_write(op_id, lambda e=element: cluster.delete(e)):
                acked.remove(element)
        else:
            run_query(k=rng.choice((2, 4, 6)))

    # ---- heal + converge: the read-your-writes reckoning ------------
    fabric.heal()
    fabric.flush_all_holdback()
    fabric.advance_to(steps * STEP + LEASE_TTL + 1)
    # A couple of post-heal writes force shipping (and the divergent-
    # tail resync of any deposed primary) before the final audit reads.
    for _ in range(2):
        element = Element(rng.uniform(0.0, _SPAN), next_weight)
        next_weight += 1.0
        op_id = recorder.invoke_insert(element)
        if record_write(op_id, lambda e=element: cluster.insert(e)):
            acked.append(element)
        fabric.advance(STEP)
    try:
        cluster.scrub(repair=True)
    except write_errors:  # pragma: no cover - healed fabric should allow it
        run.notes.append("post-heal scrub failed")
    for _ in range(6):
        run_query(k=rng.choice((3, 5)))
        run.post_heal_reads += 1
    full = RangePredicate1D(0.0, _SPAN)
    op_id = recorder.invoke_query(full, len(acked) + 4)
    run.reads += 1
    run.post_heal_reads += 1
    try:
        recorder.ok(op_id, cluster.query(full, len(acked) + 4))
    except write_errors:
        recorder.fail(op_id)
        run.failed_reads += 1

    run.check = check_history(recorder.events, elements)
    return run


# ----------------------------------------------------------------------
# Sharded twin: partition during an online split_shard
# ----------------------------------------------------------------------
def run_sharded_partition_scenario(
    seed: int,
    steps: int = 32,
    num_shards: int = 4,
    coordinator: str = "coordinator",
):
    """Partition the coordinator from the split donor mid-``split_shard``.

    Shard updates are coordinator-local (the control plane rides the
    majority side), but every scatter-gather probe crosses a link — so
    reads during the window either fail loudly or (with
    ``allow_partial``) are *flagged*, never silently wrong, and reads
    after the heal must be oracle-exact top-k again.  Returns the
    :class:`ScenarioRun` (``cluster`` is None; the index rides along in
    ``notes``).
    """
    from repro.sharding.sharded import sharded_index
    from repro.structures.range1d_dynamic import DynamicRangeTreap

    fabric = NetworkFabric(seed=seed)
    elements = scenario_elements(48)
    index = sharded_index(
        elements,
        DynamicRangeTreap,
        DynamicRangeTreap,
        num_shards=num_shards,
        seed=seed,
        fabric=fabric,
        coordinator=coordinator,
    )
    recorder = HistoryRecorder()
    rng = random.Random(repr((seed, "sharded_split")))
    run = ScenarioRun(
        scenario="partition_during_split", seed=seed, fenced=True,
        check=CheckResult(), fabric=fabric,
    )
    acked: List[Element] = list(elements)
    next_weight = 1000.0 + len(elements)
    donor = index.splittable_shard()
    window = (10 * STEP, 22 * STEP)
    if donor is not None:
        fabric.partition(coordinator, donor, start=window[0], end=window[1])
    split_done = False
    for step in range(steps):
        fabric.advance_to(step * STEP)
        if not split_done and donor is not None and step == 12:
            before, newborn = index.split_shard(donor)
            run.notes.append(f"step {step}: split {before} -> {newborn}")
            split_done = True
            continue
        draw = rng.random()
        if draw < 0.4:
            element = Element(rng.uniform(0.0, _SPAN), next_weight)
            next_weight += 1.0
            op_id = recorder.invoke_insert(element)
            index.insert(element)
            recorder.ok(op_id)
            run.ok_writes += 1
            acked.append(element)
        else:
            lo = rng.uniform(0.0, _SPAN * 0.75)
            predicate = RangePredicate1D(lo, lo + rng.uniform(64.0, _SPAN / 2))
            k = rng.choice((3, 5))
            op_id = recorder.invoke_query(predicate, k)
            run.reads += 1
            try:
                answer = index.query(predicate, k)
            except (ShardUnavailable, PartitionedError):
                recorder.fail(op_id)
                run.failed_reads += 1
                continue
            recorder.ok(op_id, answer)
    fabric.heal()
    fabric.flush_all_holdback()
    fabric.advance_to(steps * STEP + 1)
    for _ in range(6):
        lo = rng.uniform(0.0, _SPAN * 0.75)
        predicate = RangePredicate1D(lo, lo + rng.uniform(64.0, _SPAN / 2))
        op_id = recorder.invoke_query(predicate, 5)
        run.reads += 1
        run.post_heal_reads += 1
        recorder.ok(op_id, index.query(predicate, 5))
    full = RangePredicate1D(0.0, _SPAN)
    op_id = recorder.invoke_query(full, len(acked) + 4)
    run.reads += 1
    recorder.ok(op_id, index.query(full, len(acked) + 4))
    run.check = check_history(recorder.events, elements)
    return run


__all__ = [
    "PartitionScenario",
    "SCENARIOS",
    "ScenarioRun",
    "run_partition_scenario",
    "run_sharded_partition_scenario",
    "scenario_elements",
    "STEP",
    "LEASE_TTL",
    "DEFAULT_STEPS",
]
