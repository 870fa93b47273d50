"""The self-healing loop: collect → detect → localize → mitigate → verify.

:class:`Operator` is the control plane's outer loop.  Each
:meth:`~Operator.tick` is one simulated control interval:

1. **collect** a :class:`TelemetrySample` from the live stack;
2. **detect** anomalies with the streaming rule engine;
3. **localize** them into blamed scopes and fold each into its open
   :class:`Incident` (or open a new one);
4. **mitigate**: for every open incident whose cooldown has expired,
   ask the :class:`MitigationPlanner` for the current escalation rung's
   lever and fire it — unless the do-no-harm guard vetoes action;
5. **verify**: after a lever fires, replay a seeded subset of the probe
   workload through the stack and compare against the oracle — an
   incident may only close after verification passed *and* its scope
   stayed symptom-free for ``clear_ticks`` consecutive ticks.

Do-no-harm rules, in decreasing bluntness:

* never mitigate while a shard-map topology change is in flux — the
  sharding layer's own latch already serialises movers, and an operator
  firing reboots into a half-installed map could strand buckets; the
  action is recorded as deferred, not skipped silently;
* per-incident cooldown: after a lever fires, the incident waits
  ``cooldown_ticks`` before escalating, giving the mitigation time to
  show up in telemetry instead of machine-gunning the ladder;
* verification failure keeps the incident open (and escalating) — a
  lever that "worked" but left wrong answers is treated as no fix.

Everything is deterministic: verification probes are drawn by a seeded
RNG keyed on the incident and rung, and ticks are simulated counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.problem import top_k_of
from repro.core.validation import spot_check_topk
from repro.ops.detector import Anomaly, AnomalyDetector, DetectorPolicy
from repro.ops.incidents import (
    STATUS_EXHAUSTED,
    STATUS_MITIGATING,
    STATUS_RESOLVED,
    Incident,
    IncidentLog,
    MitigationRecord,
)
from repro.ops.localizer import Blame, FaultLocalizer
from repro.ops.mitigation import MitigationPlanner, PlannedAction
from repro.ops.telemetry import TelemetryCollector, TelemetrySample


@dataclass(frozen=True)
class OperatorPolicy:
    """Pacing and verification knobs of the self-healing loop."""

    cooldown_ticks: int = 2   # ticks between lever pulls per incident
    clear_ticks: int = 2      # symptom-free ticks before an incident closes
    verify_probes: int = 4    # seeded probes per post-mitigation check
    max_rungs: int = 4        # total lever pulls before giving up
    seed: int = 0


@dataclass
class TickReport:
    """What one control interval saw and did."""

    tick: int
    sample: TelemetrySample
    anomalies: List[Anomaly] = field(default_factory=list)
    blames: List[Blame] = field(default_factory=list)
    opened: List[Incident] = field(default_factory=list)
    actions: List[MitigationRecord] = field(default_factory=list)
    resolved: List[Incident] = field(default_factory=list)


class Operator:
    """The self-healing control loop (module docstring).

    Parameters
    ----------
    guard / cluster / sharded / engine:
        The live stack; a cluster or sharded backend reachable from the
        guard or engine is discovered automatically.
    probes:
        ``(predicate, k)`` pairs used for post-mitigation verification;
        a seeded subset is replayed per check.
    elements:
        A **live reference** to the indexed element list (the caller
        keeps it current across inserts/deletes); with it, verification
        compares against the exact :func:`top_k_of` oracle.  Without
        it, answers are spot-checked structurally.
    latency_source:
        End-to-end latency quantiles for the SLO rules (see
        :class:`TelemetryCollector`).

    A durable backend reachable from the guard or engine is the
    ``"storage"`` the flash rules watch and ``compact_store`` fixes;
    the collector discovers it once for both.
    """

    def __init__(
        self,
        guard=None,
        cluster=None,
        sharded=None,
        engine=None,
        policy: Optional[OperatorPolicy] = None,
        detector_policy: Optional[DetectorPolicy] = None,
        probes: Sequence[Tuple[Any, int]] = (),
        elements: Optional[List] = None,
        latency_source=None,
    ) -> None:
        self.policy = policy if policy is not None else OperatorPolicy()
        self.collector = TelemetryCollector(
            guard=guard, cluster=cluster, sharded=sharded, engine=engine,
            latency_source=latency_source,
        )
        self.guard = guard
        self.engine = engine
        self.cluster = self.collector.cluster
        self.sharded = self.collector.sharded
        self.detector = AnomalyDetector(detector_policy)
        self.localizer = FaultLocalizer(
            cluster=self.cluster, sharded=self.sharded
        )
        storage = self.collector.storage
        self.planner = MitigationPlanner(
            cluster=self.cluster, sharded=self.sharded, engine=engine,
            fabric=getattr(self.cluster, "fabric", None),
            stores={"storage": storage} if storage is not None else {},
        )
        self.log = IncidentLog()
        self.probes = list(probes)
        self.elements = elements
        self.clock = 0
        self.deferrals = 0
        self.verifications = 0
        self.verification_failures = 0

    # ------------------------------------------------------------------
    @property
    def query_target(self):
        """Where verification probes are sent (guard-first)."""
        for target in (self.guard, self.cluster, self.sharded, self.engine):
            if target is not None:
                return target
        raise RuntimeError("operator has nothing to verify against")

    def verify(self, incident: Incident) -> bool:
        """Replay a seeded probe subset; exact (or structurally sound)?"""
        if not self.probes:
            return True
        rng = random.Random(
            (self.policy.seed, incident.id, incident.rung, self.clock).__repr__()
        )
        count = min(self.policy.verify_probes, len(self.probes))
        chosen = rng.sample(self.probes, count)
        target = self.query_target
        self.verifications += 1
        for predicate, k in chosen:
            answer = target.query(predicate, k)
            if self.elements is not None:
                if answer != top_k_of(self.elements, predicate, k):
                    self.verification_failures += 1
                    return False
            elif not spot_check_topk(answer, predicate, k):
                self.verification_failures += 1
                return False
        return True

    # ------------------------------------------------------------------
    def tick(self) -> TickReport:
        """One control interval: the five-step loop above."""
        self.clock += 1
        sample = self.collector.collect(self.clock)
        anomalies = self.detector.observe(sample)
        blames = self.localizer.localize(anomalies, sample)
        report = TickReport(
            tick=self.clock, sample=sample, anomalies=anomalies, blames=blames
        )

        flagged = set()
        for blame in blames:
            incident, opened = self.log.fold(
                blame.scope, blame.kind, list(blame.anomalies), self.clock
            )
            flagged.add(blame.scope)
            if opened:
                report.opened.append(incident)

        for incident in self.log.open:
            if incident.scope not in flagged:
                incident.quiet_ticks += 1
            self._drive(incident, sample, report)
        return report

    # ------------------------------------------------------------------
    def _drive(
        self, incident: Incident, sample: TelemetrySample, report: TickReport
    ) -> None:
        policy = self.policy
        quiet = incident.quiet_ticks >= policy.clear_ticks
        verified = any(m.verified for m in incident.mitigations)
        if incident.status == STATUS_MITIGATING and quiet and not verified:
            # Symptoms are gone but the post-mitigation check failed at
            # the time — re-verify against the now-quiet stack rather
            # than deadlocking between "quiet" and "unverified".
            last = incident.mitigations[-1]
            if last.fired:
                last.verified = self.verify(incident)
                verified = bool(last.verified)
        if incident.status == STATUS_MITIGATING and verified and quiet:
            incident.status = STATUS_RESOLVED
            incident.resolved_at = self.clock
            report.resolved.append(incident)
            return

        if incident.status == STATUS_MITIGATING:
            if incident.quiet_ticks > 0:
                return  # symptoms gone; wait out the clear window
            since = self.clock - (incident.last_action_tick or 0)
            if since < policy.cooldown_ticks:
                return  # give the last lever time to land
            incident.rung += 1  # symptoms persist past cooldown: escalate

        pulls = [m for m in incident.mitigations if m.lever != "(deferred)"]
        if len(pulls) >= policy.max_rungs:
            incident.status = STATUS_EXHAUSTED
            return

        # Do-no-harm: never move machines under a topology change.
        if sample.topology_in_flux:
            record = MitigationRecord(
                tick=self.clock,
                lever="(deferred)",
                target=incident.scope[1],
                outcome="deferred: shard topology change in flux",
            )
            incident.mitigations.append(record)
            report.actions.append(record)
            self.deferrals += 1
            return

        action = self.planner.plan(incident)
        if action is None:
            incident.status = STATUS_EXHAUSTED
            return
        record = self._fire(action)
        incident.mitigations.append(record)
        incident.last_action_tick = self.clock
        incident.status = STATUS_MITIGATING
        report.actions.append(record)
        if record.fired:
            record.verified = self.verify(incident)

    def _fire(self, action: PlannedAction) -> MitigationRecord:
        try:
            outcome = f"ok: {action.apply()}"
        except Exception as exc:  # a failed lever is data, not a crash
            outcome = f"failed: {type(exc).__name__}: {exc}"
        return MitigationRecord(
            tick=self.clock,
            lever=action.lever,
            target=action.target,
            outcome=outcome,
        )


__all__ = ["Operator", "OperatorPolicy", "TickReport"]
