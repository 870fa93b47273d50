"""Brownout ladder: graceful degradation under sustained queue growth.

Load shedding is the serving engine's *last* line of defence — it turns
excess demand away.  The brownout ladder is the line before it: under
sustained overload the engine trades answer quality for capacity, one
explicit rung at a time, and climbs back down as soon as pressure
clears.  Rungs, in escalation order:

``LEVEL_HEALTHY`` (0)
    Normal serving: the configured staleness budget, full ``k``, strict
    (non-partial) sharded answers.
``LEVEL_STALE`` (1)
    The result cache's staleness budget is widened to
    ``BrownoutPolicy.staleness_budget`` LSNs: hot answers keep serving
    across more updates, so traversals are saved exactly when they are
    scarcest.  Cached answers remain epoch-safe (a failover still
    invalidates unconditionally) — this rung only relaxes *freshness*,
    never correctness of what was true at the stamped LSN.
``LEVEL_REDUCED_K`` (2)
    Requested ``k`` is capped at ``BrownoutPolicy.k_cap``: a truncated
    answer costs proportionally less to compute and to merge.  Answers
    that were actually truncated are **flagged** (they are exact
    prefixes, but not the full answer the client asked for).
``LEVEL_PARTIAL`` (3)
    Sharded backends serve with ``allow_partial``: a lost shard no
    longer fails the query — surviving shards answer, flagged.  On a
    healthy topology this rung changes nothing (and flags nothing).

Escalation: the controller observes the queue depth at every drain;
``queue_high`` or more pending for ``sustain_drains`` consecutive
observations climbs one rung (and resets the streak).  De-escalation
is symmetric and conservative: ``queue_low`` or fewer for
``recover_drains`` consecutive observations steps one rung down.  Every
transition is recorded in :class:`BrownoutStats`, and the ops plane
reads the ladder position from :attr:`BrownoutController.level`.

The controller is deterministic and wall-clock-free: it reacts only to
the queue-depth sequence it is shown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.resilience.errors import InvalidConfiguration

LEVEL_HEALTHY = 0
LEVEL_STALE = 1
LEVEL_REDUCED_K = 2
LEVEL_PARTIAL = 3

LEVEL_NAMES = ("healthy", "stale_ok", "reduced_k", "partial_ok")


@dataclass(frozen=True)
class BrownoutPolicy:
    """Thresholds and per-rung budgets of the brownout ladder.

    Attributes
    ----------
    queue_high / queue_low:
        Pending-queue watermarks.  At or above ``queue_high`` the
        pressure streak grows; at or below ``queue_low`` the recovery
        streak grows.  In between, both streaks reset (hysteresis).
    sustain_drains / recover_drains:
        Consecutive observations over (under) the watermark required to
        climb (descend) one rung — a single bursty drain never flips
        the ladder.
    staleness_budget:
        The widened cache staleness budget (LSNs) rungs >= 1 serve
        under.
    k_cap:
        The effective ``k`` ceiling rungs >= 2 serve under.
    max_level:
        The highest rung this deployment may climb to (e.g. 2 for an
        unsharded backend where ``partial_ok`` is meaningless).
    """

    queue_high: int = 64
    queue_low: int = 8
    sustain_drains: int = 2
    recover_drains: int = 3
    staleness_budget: int = 64
    k_cap: int = 3
    max_level: int = LEVEL_PARTIAL

    def __post_init__(self) -> None:
        if self.queue_low > self.queue_high:
            raise InvalidConfiguration(
                f"queue_low ({self.queue_low}) must be <= queue_high "
                f"({self.queue_high})"
            )
        if self.sustain_drains < 1 or self.recover_drains < 1:
            raise InvalidConfiguration(
                "sustain_drains and recover_drains must be >= 1"
            )
        if self.k_cap < 1:
            raise InvalidConfiguration(f"k_cap must be >= 1, got {self.k_cap}")
        if not LEVEL_HEALTHY <= self.max_level <= LEVEL_PARTIAL:
            raise InvalidConfiguration(
                f"max_level must be in [0, 3], got {self.max_level}"
            )


@dataclass
class BrownoutStats:
    """Transition counters plus the flagged-answer totals."""

    escalations: int = 0
    deescalations: int = 0
    drains_observed: int = 0
    drains_degraded: int = 0     # drains served at level >= 1
    reduced_k_answers: int = 0   # answers truncated by the k cap
    partial_answers: int = 0     # answers served while a shard was lost


class BrownoutController:
    """Queue-depth observations -> the current brownout rung."""

    def __init__(self, policy: Optional[BrownoutPolicy] = None) -> None:
        self.policy = policy if policy is not None else BrownoutPolicy()
        self.level = LEVEL_HEALTHY
        self.stats = BrownoutStats()
        self._pressure_streak = 0
        self._recovery_streak = 0
        #: ``(direction, from_level, to_level)`` transition history.
        self.transitions: List[Tuple[str, int, int]] = []

    # ------------------------------------------------------------------
    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.level]

    @property
    def active(self) -> bool:
        return self.level > LEVEL_HEALTHY

    def observe(self, queue_depth: int) -> int:
        """Fold one pre-drain queue depth in; returns the (new) level."""
        policy = self.policy
        self.stats.drains_observed += 1
        if queue_depth >= policy.queue_high:
            self._pressure_streak += 1
            self._recovery_streak = 0
            if (
                self._pressure_streak >= policy.sustain_drains
                and self.level < policy.max_level
            ):
                self.transitions.append(("up", self.level, self.level + 1))
                self.level += 1
                self.stats.escalations += 1
                self._pressure_streak = 0
        elif queue_depth <= policy.queue_low:
            self._recovery_streak += 1
            self._pressure_streak = 0
            if (
                self._recovery_streak >= policy.recover_drains
                and self.level > LEVEL_HEALTHY
            ):
                self.transitions.append(("down", self.level, self.level - 1))
                self.level -= 1
                self.stats.deescalations += 1
                self._recovery_streak = 0
        else:
            self._pressure_streak = 0
            self._recovery_streak = 0
        if self.active:
            self.stats.drains_degraded += 1
        return self.level

    # ------------------------------------------------------------------
    # Effective serving parameters at the current rung
    # ------------------------------------------------------------------
    def effective_staleness(self, base: int) -> int:
        """The cache staleness budget this rung serves under."""
        if self.level >= LEVEL_STALE:
            return max(base, self.policy.staleness_budget)
        return base

    def effective_k(self, k: int) -> int:
        """The (possibly capped) k this rung serves under."""
        if self.level >= LEVEL_REDUCED_K:
            return min(k, self.policy.k_cap)
        return k

    @property
    def partial_ok(self) -> bool:
        """Whether sharded answers may be partial at this rung."""
        return self.level >= LEVEL_PARTIAL

    def reset(self) -> None:
        """Back to healthy (operator lever); streaks and level clear."""
        if self.level != LEVEL_HEALTHY:
            self.transitions.append(("reset", self.level, LEVEL_HEALTHY))
        self.level = LEVEL_HEALTHY
        self._pressure_streak = 0
        self._recovery_streak = 0


__all__ = [
    "BrownoutController",
    "BrownoutPolicy",
    "BrownoutStats",
    "LEVEL_HEALTHY",
    "LEVEL_STALE",
    "LEVEL_REDUCED_K",
    "LEVEL_PARTIAL",
    "LEVEL_NAMES",
]
