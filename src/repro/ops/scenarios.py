"""Chaos scenarios with known ground truth, graded end to end.

The :class:`ChaosScenarioRunner` builds a live replicated (or sharded)
stack, scripts a fault injection with a **known blamed scope**, runs a
steady workload while the :class:`~repro.ops.operator.Operator` ticks
alongside it, and grades the control plane against the ground truth:

* **detection latency** — ticks from injection to the first incident;
* **localization accuracy** — did the first incident blame the scope
  the script actually injected into?
* **time to mitigate** — ticks from detection to resolution;
* **exactness** — every workload answer during the storm, and a probe
  sweep after resolution, is compared to the brute-force oracle.

Five scripted scenarios cover the failure families PRs 1–5 made
injectable (:data:`DEFAULT_SCENARIOS`):

``fault_storm``
    Moderate read+write fault rates on the **primary**.  A ship reads
    only the WAL blocks no earlier ship read, so the stormy primary
    makes a few transfers per tick and its fault streak stays short of
    condemnation.  The control plane's ``fault_spike`` rule fires the
    tick after injection, and ``force_failover`` moves the primary role
    off the machine.  The demoted machine keeps faulting as a follower
    until the cluster's streak condemns it; the ``replica_down``
    incident that opens is closed by a reboot from disk, which restores
    redundancy.
``brownout``
    Injected read/write **latency** on the primary — no faults are
    raised, so the streak policy never sees it and the machine stays
    alive indefinitely.  Only the control plane can notice (counted
    latency units in telemetry) and only its gentle ``force_failover``
    lever moves traffic off the slow primary; a follow-up reboot
    clears the injected latency from the demoted machine.
``condemned_replica``
    A follower with 100% fault rates; the cluster's own streak policy
    condemns it within a tick, leaving redundancy degraded.  The
    operator's job is to *restore redundancy* with a disk reboot.
``shard_loss``
    A shard machine dies between queries.  Aliveness telemetry flags it
    immediately and ``recover_shard`` reboots it **off the query
    path** — the reactive in-query ladder never has to fire.
``slow_drip``
    Read corruption on a follower that reads only a few durable blocks
    per tick (its lazy replays read only new WAL blocks), so about one
    read per tick comes back corrupted.  Per-tick thresholds never
    fire; the sliding-window rule accumulates, and the ladder runs
    scrub → reboot (a scrub repair would *inherit* the corrupting
    environment; adoption on reboot attaches a fresh, disarmed plan —
    the reboot is what actually stops the drip).

Every tick runs the same order: scripted injection, then
``operator.tick()``, then the workload slice — the control plane polls
on its own cadence, it is not gated on query traffic.  Workloads write
as well as read (chaos fires on durable I/O), and the runner maintains
the live element list the oracle and the operator's verification share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.problem import Element, top_k_of
from repro.ops.operator import Operator
from repro.replication.cluster import replicated_index
from repro.replication.failover import FailoverPolicy
from repro.resilience.faults import FaultPlan
from repro.resilience.guard import GuardPolicy, ResilientTopKIndex
from repro.sharding.sharded import sharded_index
from repro.structures.range1d_dynamic import DynamicRangeTreap
from repro.structures.range1d import RangePredicate1D

KIND_FAULT_STORM = "fault_storm"
KIND_BROWNOUT = "brownout"
KIND_CONDEMNED = "condemned_replica"
KIND_SHARD_LOSS = "shard_loss"
KIND_SLOW_DRIP = "slow_drip"

_REPLICATED_KINDS = (
    KIND_FAULT_STORM, KIND_BROWNOUT, KIND_CONDEMNED, KIND_SLOW_DRIP
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One scripted chaos run with known ground truth."""

    name: str
    kind: str
    target: str                 # the machine/shard the script injects into
    ticks: int = 16
    inject_at: int = 3          # tick at which the fault plan arms
    queries_per_tick: int = 8
    writes_per_tick: int = 2
    n_elements: int = 96
    seed: int = 0
    read_fail_rate: float = 0.0
    write_fail_rate: float = 0.0
    corrupt_rate: float = 0.0
    read_latency: int = 0
    write_latency: int = 0
    max_consecutive_faults: int = 3  # cluster condemnation streak


DEFAULT_SCENARIOS: Tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="storm-on-primary", kind=KIND_FAULT_STORM, target="replica-0",
        read_fail_rate=0.35, write_fail_rate=0.35, seed=101,
        max_consecutive_faults=10,
    ),
    ScenarioSpec(
        name="brownout-on-primary", kind=KIND_BROWNOUT, target="replica-0",
        read_latency=4, write_latency=4, seed=505,
    ),
    ScenarioSpec(
        name="condemned-follower", kind=KIND_CONDEMNED, target="replica-1",
        read_fail_rate=1.0, write_fail_rate=1.0, seed=202,
    ),
    ScenarioSpec(
        name="shard-machine-loss", kind=KIND_SHARD_LOSS, target="shard-1",
        writes_per_tick=0, seed=303,
    ),
    ScenarioSpec(
        name="drip-corruption", kind=KIND_SLOW_DRIP, target="replica-1",
        corrupt_rate=0.4, ticks=22, seed=404,
    ),
)


@dataclass
class ScenarioResult:
    """The graded timeline of one run."""

    spec: ScenarioSpec
    truth: str                          # injected scope identifier
    detected_at: Optional[int] = None   # operator tick of first incident
    localized_to: Optional[str] = None  # first incident's blamed scope id
    resolved_at: Optional[int] = None   # tick the truth incident closed
    levers: List[str] = field(default_factory=list)
    incidents: int = 0
    unresolved: int = 0
    answers: int = 0
    answers_exact: int = 0
    post_probes_exact: bool = False
    timeline: List[str] = field(default_factory=list)

    @property
    def detection_latency(self) -> Optional[int]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.spec.inject_at

    @property
    def localization_correct(self) -> bool:
        return self.localized_to == self.truth

    @property
    def mitigated(self) -> bool:
        """Every incident closed, at least one lever genuinely fired."""
        return (
            self.incidents > 0
            and self.unresolved == 0
            and bool(self.levers)
        )

    @property
    def all_exact(self) -> bool:
        return self.answers_exact == self.answers and self.post_probes_exact


class ChaosScenarioRunner:
    """Build, script, run, and grade chaos scenarios (module docstring)."""

    # ------------------------------------------------------------------
    # Stack builders
    # ------------------------------------------------------------------
    @staticmethod
    def _make_elements(n: int, seed: int) -> Tuple[List[Element], List[Element]]:
        """Initial elements plus a distinct-weight insert pool."""
        rng = random.Random(seed)
        total = n + n // 2
        weights = rng.sample(range(10 * total), total)
        positions = rng.sample(range(10 * total), total)
        pool = [
            Element(float(positions[i]), float(weights[i]))
            for i in range(total)
        ]
        return pool[:n], pool[n:]

    @staticmethod
    def _probes(elements: List[Element], seed: int, count: int = 24):
        rng = random.Random(seed + 7)
        span = int(max(e.obj for e in elements)) + 10
        probes = []
        for _ in range(count):
            lo = rng.randrange(-5, span)
            hi = rng.randrange(lo, span + 5)
            probes.append((RangePredicate1D(float(lo), float(hi)), rng.randrange(1, 9)))
        return probes

    def _build_replicated(self, spec: ScenarioSpec):
        elements, pool = self._make_elements(spec.n_elements, spec.seed)
        names = [f"replica-{i}" for i in range(3)]
        plans = []
        for i, name in enumerate(names):
            if name == spec.target:
                plans.append(FaultPlan(
                    seed=spec.seed + i,
                    read_fail_rate=spec.read_fail_rate,
                    write_fail_rate=spec.write_fail_rate,
                    corrupt_rate=spec.corrupt_rate,
                    read_latency=spec.read_latency,
                    write_latency=spec.write_latency,
                    armed=False,
                    machine=name,
                ))
            else:
                plans.append(FaultPlan(seed=spec.seed + i, armed=False, machine=name))
        cluster = replicated_index(
            elements, DynamicRangeTreap, DynamicRangeTreap,
            num_replicas=3, seed=spec.seed,
            names=names, fault_plans=plans,
            failover_policy=FailoverPolicy(
                max_consecutive_faults=spec.max_consecutive_faults
            ),
        )
        guard = ResilientTopKIndex(
            cluster, elements=elements,
            policy=GuardPolicy(seed=spec.seed, spot_check_rate=0.0),
        )
        target_plan = plans[names.index(spec.target)]
        return elements, pool, cluster, guard, target_plan

    def _build_sharded(self, spec: ScenarioSpec):
        elements, pool = self._make_elements(spec.n_elements, spec.seed)
        sharded = sharded_index(
            elements, DynamicRangeTreap, DynamicRangeTreap,
            num_shards=4, strategy="range", seed=spec.seed,
        )
        guard = ResilientTopKIndex(
            sharded, elements=elements,
            policy=GuardPolicy(seed=spec.seed, spot_check_rate=0.0),
        )
        return elements, pool, sharded, guard

    # ------------------------------------------------------------------
    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        """One scripted run: inject → operate → grade."""
        if spec.kind in _REPLICATED_KINDS:
            elements, pool, cluster, guard, target_plan = (
                self._build_replicated(spec)
            )
            backend = cluster
        elif spec.kind == KIND_SHARD_LOSS:
            elements, pool, backend, guard = self._build_sharded(spec)
            target_plan = None
        else:
            raise ValueError(f"unknown scenario kind {spec.kind!r}")

        live = list(elements)  # shared with the operator's oracle
        probes = self._probes(live, spec.seed)
        operator = Operator(
            guard=guard,
            probes=probes,
            elements=live,
        )
        rng = random.Random(spec.seed + 13)
        result = ScenarioResult(spec=spec, truth=spec.target)

        for tick in range(1, spec.ticks + 1):
            # 1. scripted injection
            if tick == spec.inject_at:
                if spec.kind == KIND_SHARD_LOSS:
                    backend.router.shards[spec.target].machine.mark_dead()
                else:
                    target_plan.arm()
            # 2. control plane
            operator.tick()
            # 3. workload slice (writes make chaos fire on durable I/O)
            for _ in range(spec.writes_per_tick):
                if pool:
                    element = pool.pop(0)
                    backend.insert(element)
                    live.append(element)
            for _ in range(spec.queries_per_tick):
                predicate, k = probes[rng.randrange(len(probes))]
                answer = guard.query(predicate, k)
                result.answers += 1
                if answer == top_k_of(live, predicate, k):
                    result.answers_exact += 1

        # Let in-flight incidents settle with a quiet tail.
        settle = 0
        while operator.log.open and settle < 8:
            operator.tick()
            settle += 1

        # 4. grading
        log = operator.log
        result.incidents = len(log.incidents)
        result.unresolved = len(log.open) + sum(
            1 for i in log.incidents if i.status == "exhausted"
        )
        if log.incidents:
            first = log.incidents[0]
            result.detected_at = first.opened_at
            result.localized_to = first.scope[1]
            truth_incidents = [
                i for i in log.incidents if i.scope[1] == spec.target
            ]
            if truth_incidents and truth_incidents[0].resolved_at is not None:
                result.resolved_at = truth_incidents[0].resolved_at
            for incident in log.incidents:
                result.levers.extend(incident.levers_fired)
        result.timeline = log.timeline()
        result.post_probes_exact = all(
            guard.query(predicate, k) == top_k_of(live, predicate, k)
            for predicate, k in probes
        )
        return result

    def run_suite(
        self, specs: Tuple[ScenarioSpec, ...] = DEFAULT_SCENARIOS
    ) -> List[ScenarioResult]:
        return [self.run(spec) for spec in specs]

    # ------------------------------------------------------------------
    def run_healthy(
        self,
        ticks: int = 25,
        queries_per_tick: int = 8,
        writes_per_tick: int = 2,
        seed: int = 0,
    ) -> Operator:
        """A no-chaos soak: the do-no-harm baseline.

        Runs the same replicated stack and workload shape as the chaos
        scenarios with every fault plan at zero rates, and returns the
        operator so callers can assert that **zero incidents opened and
        zero mitigations fired**.
        """
        spec = ScenarioSpec(
            name="healthy-soak", kind=KIND_FAULT_STORM, target="replica-0",
            ticks=ticks, inject_at=ticks + 1,  # never injects
            queries_per_tick=queries_per_tick,
            writes_per_tick=writes_per_tick, seed=seed,
        )
        elements, pool, cluster, guard, _ = self._build_replicated(spec)
        live = list(elements)
        probes = self._probes(live, seed)
        operator = Operator(
            guard=guard,
            probes=probes,
            elements=live,
        )
        rng = random.Random(seed + 13)
        for _ in range(ticks):
            operator.tick()
            for _ in range(writes_per_tick):
                if pool:
                    element = pool.pop(0)
                    cluster.insert(element)
                    live.append(element)
            for _ in range(queries_per_tick):
                predicate, k = probes[rng.randrange(len(probes))]
                answer = guard.query(predicate, k)
                assert answer == top_k_of(live, predicate, k)
        return operator


def grade_suite(results: List[ScenarioResult]) -> Dict[str, object]:
    """Aggregate a suite into the E20 acceptance metrics."""
    graded = len(results)
    localized = sum(1 for r in results if r.localization_correct)
    latencies = [
        r.detection_latency for r in results if r.detection_latency is not None
    ]
    mitigations = [
        r.resolved_at - r.detected_at
        for r in results
        if r.resolved_at is not None and r.detected_at is not None
    ]
    return {
        "scenarios": graded,
        "localization_accuracy": localized / graded if graded else 0.0,
        "mean_detection_latency_ticks": (
            sum(latencies) / len(latencies) if latencies else None
        ),
        "mean_time_to_mitigate_ticks": (
            sum(mitigations) / len(mitigations) if mitigations else None
        ),
        "all_mitigated": all(r.mitigated for r in results),
        "all_answers_exact": all(r.all_exact for r in results),
    }


__all__ = [
    "ScenarioSpec",
    "ScenarioResult",
    "ChaosScenarioRunner",
    "DEFAULT_SCENARIOS",
    "grade_suite",
    "KIND_FAULT_STORM",
    "KIND_BROWNOUT",
    "KIND_CONDEMNED",
    "KIND_SHARD_LOSS",
    "KIND_SLOW_DRIP",
]
