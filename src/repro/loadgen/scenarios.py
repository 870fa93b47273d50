"""Scripted traffic scenarios, with and without the control plane.

Four scripts cover the overload families ROADMAP item 1 names, each a
:class:`LoadScenarioSpec` the :class:`LoadScenarioRunner` can build and
run end to end (sharded stack → engine → open-loop load → optional
operator ticking alongside):

``diurnal``
    A day/night sine around the base rate — the capacity-planning
    baseline; a correctly-sized static topology should hold its SLO
    through the peak.
``flash_crowd``
    The base rate spikes to a multiple for a window.  This is the
    autoscaling acceptance scenario: run it once with a static
    topology (p99 blows through the SLO while the crowd is in) and
    once with the operator's SLO rules + ``split_shard`` ladder armed
    (detection → scale-out → p99 back inside the SLO).
``hot_key_storm``
    Uniform traffic except a window where most requests collapse onto
    one predicate.  The result cache and batcher absorb almost all of
    it — the scenario that proves overload is about *distinct work*,
    not request count.
``fault_overlap``
    Constant rate while a shard machine's :class:`FaultPlan` injects
    read latency mid-run — a brownout *under load*.  The retry budget
    must keep shed-retry amplification bounded while the brownout
    ladder trades answer quality for capacity.

Every run is deterministic: seeded arrivals, seeded mixes, virtual-time
service (``pool_size=0`` engines), counted fault latency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.problem import Element
from repro.loadgen.arrivals import (
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    OpenLoopSchedule,
)
from repro.loadgen.harness import LoadGenerator, LoadReport, ServiceModel
from repro.loadgen.workload import HotKeyStorm, ZipfMix
from repro.ops.detector import DetectorPolicy
from repro.ops.operator import Operator, OperatorPolicy
from repro.resilience.errors import InvalidConfiguration
from repro.resilience.guard import RetryBudget
from repro.serving.brownout import BrownoutPolicy
from repro.serving.engine import ServingEngine
from repro.sharding.sharded import sharded_index
from repro.structures.range1d import RangePredicate1D
from repro.structures.range1d_dynamic import DynamicRangeTreap

SHAPE_DIURNAL = "diurnal"
SHAPE_FLASH_CROWD = "flash_crowd"
SHAPE_HOT_KEY = "hot_key_storm"
SHAPE_FAULT_OVERLAP = "fault_overlap"

_SHAPES = (
    SHAPE_DIURNAL, SHAPE_FLASH_CROWD, SHAPE_HOT_KEY, SHAPE_FAULT_OVERLAP
)


@dataclass(frozen=True)
class LoadScenarioSpec:
    """One scripted load run (module docstring)."""

    name: str
    shape: str = SHAPE_FLASH_CROWD
    duration: float = 60.0
    tick: float = 1.0
    base_rate: float = 30.0
    spike: float = 5.0              # flash-crowd / storm multiplier
    window_start: float = 20.0      # crowd / storm / fault onset
    window_duration: float = 24.0
    deadline: Optional[float] = 2.0
    p99_slo: float = 1.0
    n_elements: int = 96
    num_shards: int = 2
    max_pending: int = 256
    max_batch: int = 32
    cache_capacity: int = 160
    pool_predicates: int = 96
    zipf_s: float = 0.9
    seed: int = 0
    # --- control-plane arms ---
    autoscale: bool = False         # operator with SLO rules + split ladder
    brownout: bool = False          # engine-side brownout ladder
    retry_ratio: Optional[float] = 0.1  # client retry budget (None: no retry)
    fault_latency: int = 6          # fault_overlap: injected read latency

    def __post_init__(self) -> None:
        if self.shape not in _SHAPES:
            raise InvalidConfiguration(
                f"shape must be one of {_SHAPES}, got {self.shape!r}"
            )
        if self.duration <= 0 or self.tick <= 0:
            raise InvalidConfiguration("duration and tick must be > 0")
        if self.num_shards < 1:
            raise InvalidConfiguration(
                f"num_shards must be >= 1, got {self.num_shards}"
            )


@dataclass
class LoadScenarioResult:
    """One run's report plus the control-plane trace."""

    spec: LoadScenarioSpec
    report: LoadReport
    levers: List[str] = field(default_factory=list)
    incidents: int = 0
    final_shards: int = 0
    brownout_escalations: int = 0

    @property
    def slo_met(self) -> bool:
        return self.report.latency.p99 <= self.spec.p99_slo

    def summary(self) -> Dict[str, float]:
        out = self.report.summary()
        out.update({
            "slo": self.spec.p99_slo,
            "slo_met": float(self.slo_met),
            "incidents": float(self.incidents),
            "levers": float(len(self.levers)),
            "final_shards": float(self.final_shards),
        })
        return out


class LoadScenarioRunner:
    """Build the stack a spec describes and run its traffic script."""

    #: Scenario-scale service model.  The result cache is keyed by
    #: predicate and prefix-closed, so a Zipf pool is fully cached
    #: after warmup — the scarce resource under load is per-request
    #: overhead (routing, scoring, serialization), which a hit still
    #: pays (``hit_cost``), with a backend scatter-gather traversal 5x
    #: dearer.  Calibrated so a 2-shard topology comfortably serves
    #: the default base rates but saturates well below the flash-crowd
    #: peak — the regime where admission, brownout, and scale-out have
    #: observable work to do.
    DEFAULT_MODEL_ARGS = dict(
        unit_time=0.01,
        traversal_cost=6.0,
        hit_cost=1.2,
        latency_unit_cost=0.25,
        batch_overhead=1.0,
    )

    def __init__(self) -> None:
        self.model = ServiceModel(**self.DEFAULT_MODEL_ARGS)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @staticmethod
    def _make_elements(n: int, seed: int) -> List[Element]:
        rng = random.Random(seed)
        weights = rng.sample(range(10 * n), n)
        positions = rng.sample(range(10 * n), n)
        return [
            Element(float(positions[i]), float(weights[i])) for i in range(n)
        ]

    @staticmethod
    def _probe_pool(
        elements: List[Element], count: int, seed: int
    ) -> List[RangePredicate1D]:
        rng = random.Random(seed + 7)
        span = int(max(e.obj for e in elements)) + 10
        pool = []
        for _ in range(count):
            lo = rng.randrange(-5, span)
            hi = rng.randrange(lo, span + 5)
            pool.append(RangePredicate1D(float(lo), float(hi)))
        return pool

    def _schedule(self, spec: LoadScenarioSpec) -> OpenLoopSchedule:
        if spec.shape == SHAPE_DIURNAL:
            rate = DiurnalRate(
                base=spec.base_rate,
                amplitude=min(0.9, (spec.spike - 1.0) / (spec.spike + 1.0)),
                period=spec.duration,
            )
        elif spec.shape == SHAPE_FLASH_CROWD:
            rate = FlashCrowdRate(
                base=spec.base_rate, spike=spec.spike,
                start=spec.window_start, duration=spec.window_duration,
            )
        else:
            # Hot-key storms and fault overlaps stress the *service*,
            # not the arrival shape: constant offered rate.
            rate = ConstantRate(spec.base_rate)
        return OpenLoopSchedule(rate, seed=spec.seed, jitter=0.1)

    def _mix(self, spec: LoadScenarioSpec, pool: List[RangePredicate1D]):
        base = ZipfMix(pool, s=spec.zipf_s, k_range=(1, 8), seed=spec.seed)
        if spec.shape == SHAPE_HOT_KEY:
            return HotKeyStorm(
                base, hot=pool[0],
                start=spec.window_start, duration=spec.window_duration,
                hot_fraction=min(0.95, 1.0 - 1.0 / max(2.0, spec.spike)),
                seed=spec.seed,
            )
        return base

    def build(self, spec: LoadScenarioSpec):
        """The live stack: (elements, sharded, engine, loadgen, operator)."""
        elements = self._make_elements(spec.n_elements, spec.seed)
        pool = self._probe_pool(elements, spec.pool_predicates, spec.seed)
        sharded = sharded_index(
            elements, DynamicRangeTreap, DynamicRangeTreap,
            num_shards=spec.num_shards, strategy="range", seed=spec.seed,
        )
        brownout_policy = (
            BrownoutPolicy(
                queue_high=max(8, spec.max_pending // 8),
                queue_low=max(2, spec.max_pending // 32),
                sustain_drains=2,
                recover_drains=3,
                staleness_budget=64,
                k_cap=3,
            )
            if spec.brownout
            else None
        )
        engine = ServingEngine(
            sharded,
            cache_capacity=spec.cache_capacity,
            max_staleness=0,
            max_batch=spec.max_batch,
            max_pending=spec.max_pending,
            pool_size=0,               # serial dispatch: deterministic
            brownout=brownout_policy,
        )
        retry_budget = (
            RetryBudget(ratio=spec.retry_ratio, burst=8.0)
            if spec.retry_ratio is not None
            else None
        )
        loadgen = LoadGenerator(
            engine,
            schedule=self._schedule(spec),
            mix=self._mix(spec, pool),
            model=self.model,
            deadline=spec.deadline,
            retry_budget=retry_budget,
            elements=elements,
            exact_check_rate=0.2,
            seed=spec.seed,
            name=spec.name,
        )
        operator = None
        if spec.autoscale:
            probes = [
                (p, 1 + (i % 8)) for i, p in enumerate(pool)
            ]
            operator = Operator(
                sharded=sharded,
                engine=engine,
                probes=probes,
                elements=elements,
                policy=OperatorPolicy(
                    cooldown_ticks=1, clear_ticks=2, verify_probes=4,
                    max_rungs=8, seed=spec.seed,
                ),
                detector_policy=DetectorPolicy(
                    p99_slo=spec.p99_slo,
                    queue_growth_ticks=2,
                    queue_growth_min=max(8, spec.max_pending // 16),
                    shed_rate_ratio=0.05,
                    shed_rate_min_sheds=2,
                    queue_depth_max=spec.max_pending // 2,
                    # Wall-clock service latency is noise here — the
                    # virtual-time harness measures its own latency.
                    latency_floor=1e9,
                ),
                latency_source=loadgen.window_summary,
            )
        return elements, sharded, engine, loadgen, operator

    # ------------------------------------------------------------------
    def run(self, spec: LoadScenarioSpec) -> LoadScenarioResult:
        elements, sharded, engine, loadgen, operator = self.build(spec)
        fault_plan = None
        if spec.shape == SHAPE_FAULT_OVERLAP:
            # Arm injected read latency on the first shard's machine for
            # the scripted window: a brownout under sustained load.
            first = sorted(sharded.router.shards)[0]
            machine = sharded.router.shards[first].machine
            fault_plan = machine.plan if machine is not None else None

        def on_tick(point: Dict[str, float]) -> None:
            now = point["time"]
            if fault_plan is not None:
                in_window = (
                    spec.window_start
                    <= now
                    < spec.window_start + spec.window_duration
                )
                if in_window and not fault_plan.armed:
                    fault_plan.read_latency = spec.fault_latency
                    fault_plan.arm()
                elif not in_window and fault_plan.armed:
                    fault_plan.disarm()
                    fault_plan.read_latency = 0
            if operator is not None:
                operator.tick()

        report = loadgen.run(
            duration=spec.duration, tick=spec.tick, on_tick=on_tick
        )
        result = LoadScenarioResult(
            spec=spec,
            report=report,
            final_shards=sharded.router.num_shards,
        )
        if operator is not None:
            result.incidents = len(operator.log.incidents)
            result.levers = [
                m.lever
                for incident in operator.log.incidents
                for m in incident.mitigations
                if m.lever != "(deferred)"
            ]
        if engine.brownout is not None:
            result.brownout_escalations = engine.brownout.stats.escalations
        return result

    def flash_crowd_comparison(
        self, spec: LoadScenarioSpec
    ) -> Tuple[LoadScenarioResult, LoadScenarioResult]:
        """The acceptance pair: static topology vs autoscaled + brownout.

        Same seed, same arrivals, same mix — the only difference is the
        control plane (operator SLO rules + split ladder, engine
        brownout).  Returns ``(static, autoscaled)``.
        """
        from dataclasses import replace

        static = self.run(replace(
            spec, name=f"{spec.name}-static", autoscale=False, brownout=False,
        ))
        scaled = self.run(replace(
            spec, name=f"{spec.name}-autoscaled", autoscale=True, brownout=True,
        ))
        return static, scaled


DEFAULT_LOAD_SCENARIOS: Tuple[LoadScenarioSpec, ...] = (
    LoadScenarioSpec(
        name="diurnal-cycle", shape=SHAPE_DIURNAL,
        base_rate=20.0, spike=2.0, duration=60.0, seed=11,
    ),
    LoadScenarioSpec(
        name="flash-crowd", shape=SHAPE_FLASH_CROWD,
        base_rate=25.0, spike=8.0,
        window_start=10.0, window_duration=16.0,
        duration=40.0, tick=0.25, seed=22,
    ),
    LoadScenarioSpec(
        name="hot-key-storm", shape=SHAPE_HOT_KEY,
        base_rate=40.0, spike=5.0,
        window_start=20.0, window_duration=20.0,
        duration=56.0, seed=33,
    ),
    LoadScenarioSpec(
        name="fault-overlap", shape=SHAPE_FAULT_OVERLAP,
        base_rate=110.0, fault_latency=6,
        window_start=16.0, window_duration=24.0,
        duration=56.0, seed=44, brownout=True,
    ),
)


__all__ = [
    "LoadScenarioSpec",
    "LoadScenarioResult",
    "LoadScenarioRunner",
    "DEFAULT_LOAD_SCENARIOS",
    "SHAPE_DIURNAL",
    "SHAPE_FLASH_CROWD",
    "SHAPE_HOT_KEY",
    "SHAPE_FAULT_OVERLAP",
]
