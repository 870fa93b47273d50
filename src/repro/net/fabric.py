"""`NetworkFabric`: a seeded simulated network between machines.

Every prior fault axis (PR 1's disk chaos, PR 2's crashes, PR 3's
machine deaths) lives *inside* a machine; this module adds the axis
between them.  A :class:`NetworkFabric` owns one directed
:class:`Link` per ``(src, dst)`` pair, each with its own seeded RNG
and a :class:`LinkPlan` of faults:

* **drop** — the message (or only its reply) vanishes; the sender sees
  a timeout and cannot know whether the handler ran
  (:class:`~repro.resilience.errors.PartitionedError` with
  ``indeterminate=True``);
* **duplication** — the handler is invoked twice for one send; the
  receiver's idempotency-key dedupe cache must make the second
  delivery a no-op;
* **reordering** — the message is held back and delivered *late*,
  after younger traffic on the same link (the sender sees a timeout;
  the stale delivery races the retry);
* **counted delay** — each traversal advances the fabric's virtual
  clock by ``1 + delay`` units (lease TTLs count this clock);
* **scheduled partitions** — virtual-time windows during which the
  link refuses traffic outright.  Windows are per *directed* link, so
  asymmetric partitions (A→B dead while B→A lives) are first-class.

Transport is synchronous request/reply: :meth:`NetworkFabric.send`
invokes the destination's registered handler and returns its reply.
Every envelope is a typed :class:`Message` carrying a fencing
``epoch`` and an idempotency ``key``; receivers cache replies by key
(bounded LRU) so duplicated and retried deliveries are *detected* —
counted in :class:`NetStats` — rather than applied twice.

Determinism: one ``random.Random`` per link, seeded from
``(fabric seed, src, dst)``; the virtual clock only moves when
messages move or a caller advances it.  A fabric with no faults
scheduled behaves exactly like direct calls (plus clock ticks), which
is why every distributed layer can route through it unconditionally.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.resilience.errors import (
    FencedError,
    InvalidConfiguration,
    PartitionedError,
)

# Message kinds (the typed envelope vocabulary).
MSG_WAL_SHIP = "wal_ship"        # primary -> follower: committed WAL groups
MSG_LEASE_RENEW = "lease_renew"  # primary -> follower: lease heartbeat / epoch announce
MSG_RESYNC = "resync"            # source -> target: anti-entropy snapshot handoff
MSG_PROBE = "probe"              # coordinator -> shard: scatter-gather top-k probe

_DEDUPE_CAPACITY = 4096


@dataclass(frozen=True)
class Message:
    """One typed envelope on a link.

    ``key`` is the idempotency key: a sender retrying after an
    indeterminate timeout reuses the key, and the receiver's dedupe
    cache replays the original reply instead of re-running the handler.
    ``epoch`` is the fencing token (see ``ReplicaSet``); 0 when the
    sender is not fenced.
    """

    kind: str
    src: str
    dst: str
    key: Any
    epoch: int = 0
    payload: Any = None


@dataclass
class LinkPlan:
    """Fault schedule of one directed link.

    Rates are per-send probabilities drawn from the link's own seeded
    RNG; ``partitions`` is a list of half-open virtual-time windows
    ``(start, end)`` (``end=None`` = until healed) during which the
    link refuses traffic.  ``reorder_window`` is how many subsequent
    sends on the link a held-back message waits behind before its late
    delivery.
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_window: int = 2
    delay: int = 0
    partitions: List[Tuple[int, Optional[int]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in ("drop_rate", "dup_rate", "reorder_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidConfiguration(
                    f"{name} must be in [0, 1], got {value!r}"
                )
        if self.drop_rate + self.dup_rate + self.reorder_rate > 1.0:
            raise InvalidConfiguration(
                "drop_rate + dup_rate + reorder_rate must not exceed 1"
            )
        if self.reorder_window < 1:
            raise InvalidConfiguration(
                f"reorder_window must be >= 1, got {self.reorder_window}"
            )
        if self.delay < 0:
            raise InvalidConfiguration(f"delay must be >= 0, got {self.delay}")

    def blocked(self, now: int) -> bool:
        return any(
            start <= now and (end is None or now < end)
            for start, end in self.partitions
        )


@dataclass
class NetStats:
    """Counters of everything the fabric did (and prevented)."""

    sends: int = 0
    delivered: int = 0
    partition_refusals: int = 0
    drops: int = 0
    reply_drops: int = 0
    duplicates: int = 0
    duplicates_detected: int = 0   # dedupe-cache hits: a dup/retry was absorbed
    reorders_held: int = 0
    late_deliveries: int = 0
    timeouts: int = 0              # indeterminate failures surfaced to senders
    fenced_rejects: int = 0        # stale-epoch messages refused at delivery
    stale_epoch_applies: int = 0   # stale-epoch messages that mutated state
    lease_expirations: int = 0     # mirrored by the cluster on self-demotion


class Link:
    """One directed pipe with its own RNG, plan, and holdback queue."""

    def __init__(self, src: str, dst: str, seed: int) -> None:
        self.src = src
        self.dst = dst
        self.plan = LinkPlan()
        self.rng = random.Random(repr((seed, src, dst)))
        # Messages held for late delivery: (due_serial, Message).
        self._holdback: List[Tuple[int, Message]] = []
        self._serial = 0


class NetworkFabric:
    """All links + the virtual clock + per-endpoint dedupe caches."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.now = 0
        self.stats = NetStats()
        self._links: Dict[Tuple[str, str], Link] = {}
        self._handlers: Dict[str, Callable[[Message], Any]] = {}
        # Per-endpoint idempotency cache: key -> reply of the first
        # successful delivery.  Bounded LRU; duplicates and retries of
        # recent traffic replay the cached reply.
        self._dedupe: Dict[str, "OrderedDict[Any, Any]"] = {}

    # ------------------------------------------------------------------
    # Topology / registration
    # ------------------------------------------------------------------
    def register(self, name: str, handler: Callable[[Message], Any]) -> None:
        """Attach (or replace) the delivery handler for endpoint ``name``."""
        self._handlers[name] = handler
        self._dedupe.setdefault(name, OrderedDict())

    def link(self, src: str, dst: str) -> Link:
        """The directed link ``src -> dst`` (created perfect on demand)."""
        key = (src, dst)
        found = self._links.get(key)
        if found is None:
            found = Link(src, dst, self.seed)
            self._links[key] = found
        return found

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def advance(self, units: int = 1) -> int:
        self.now += max(0, units)
        return self.now

    def advance_to(self, t: int) -> int:
        self.now = max(self.now, t)
        return self.now

    # ------------------------------------------------------------------
    # Fault scheduling / healing
    # ------------------------------------------------------------------
    def partition(
        self,
        src: str,
        dst: str,
        start: Optional[int] = None,
        end: Optional[int] = None,
        symmetric: bool = True,
    ) -> None:
        """Schedule a partition window on ``src -> dst``.

        ``symmetric=False`` leaves the reverse direction untouched —
        the asymmetric case (A cannot reach B while B still reaches A).
        """
        window = (self.now if start is None else start, end)
        self.link(src, dst).plan.partitions.append(window)
        if symmetric:
            self.link(dst, src).plan.partitions.append(window)

    def isolate(
        self, name: str, peers: List[str],
        start: Optional[int] = None, end: Optional[int] = None,
    ) -> None:
        """Cut ``name`` off from every peer, both directions."""
        for peer in peers:
            if peer != name:
                self.partition(name, peer, start=start, end=end)

    def blocked(self, src: str, dst: str) -> bool:
        """Whether ``src -> dst`` refuses traffic right now."""
        return self.link(src, dst).plan.blocked(self.now)

    def active_partitions(self) -> int:
        """Directed links currently refusing traffic (the ops gauge)."""
        return sum(
            1 for link in self._links.values() if link.plan.blocked(self.now)
        )

    def heal(self) -> int:
        """Clear every scheduled partition window; returns links healed.

        The operator's ``heal_partition`` lever.  Loss/dup/reorder
        rates are left in place — healing reconnects the topology, it
        does not replace flaky hardware.
        """
        healed = 0
        for link in self._links.values():
            if link.plan.partitions:
                link.plan.partitions.clear()
                healed += 1
        return healed

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any = None,
        epoch: int = 0,
        key: Any = None,
    ) -> Any:
        """Synchronous request/reply through the ``src -> dst`` link.

        Raises :class:`PartitionedError` — ``indeterminate=False`` when
        the link refused the message outright (partition window),
        ``indeterminate=True`` when the message or its reply was lost
        (the handler may or may not have run).  Handler exceptions
        (e.g. :class:`FencedError`, a follower's ``SimulatedCrash``)
        propagate to the sender as the RPC's failure reply.
        """
        link = self.link(src, dst)
        message = Message(
            kind=kind, src=src, dst=dst, key=key, epoch=epoch, payload=payload
        )
        self.stats.sends += 1
        self.now += 1 + link.plan.delay
        link._serial += 1
        self._flush_holdback(link)
        if link.plan.blocked(self.now):
            self.stats.partition_refusals += 1
            raise PartitionedError(
                f"link {src!r} -> {dst!r} is partitioned",
                src=src, dst=dst, indeterminate=False,
            )
        draw = link.rng.random()
        plan = link.plan
        if draw < plan.drop_rate:
            self.stats.drops += 1
            self.stats.timeouts += 1
            if link.rng.random() < 0.5:
                # Reply-drop: the handler runs, the ack is lost.  The
                # sender's retry MUST dedupe — this is the case the
                # idempotency keys exist for.
                self.stats.reply_drops += 1
                self._deliver(message, swallow=False)
            raise PartitionedError(
                f"message {kind!r} {src!r} -> {dst!r} timed out",
                src=src, dst=dst, indeterminate=True,
            )
        if draw < plan.drop_rate + plan.reorder_rate:
            # Held back: delivered late, behind the next few sends on
            # this link.  The sender sees a timeout now.
            self.stats.reorders_held += 1
            self.stats.timeouts += 1
            link._holdback.append(
                (link._serial + plan.reorder_window, message)
            )
            raise PartitionedError(
                f"message {kind!r} {src!r} -> {dst!r} timed out (reordered)",
                src=src, dst=dst, indeterminate=True,
            )
        if draw < plan.drop_rate + plan.reorder_rate + plan.dup_rate:
            self.stats.duplicates += 1
            reply = self._deliver(message, swallow=False)
            self._deliver(message, swallow=True)  # the duplicate
            return reply
        return self._deliver(message, swallow=False)

    def _flush_holdback(self, link: Link) -> None:
        """Deliver any held messages whose reorder window has passed.

        Late deliveries are one-way (their sender gave up long ago):
        replies are discarded and failures — a fencing reject of the
        stale epoch, a dedupe hit — are counted but not raised.
        """
        if not link._holdback:
            return
        due = [m for serial, m in link._holdback if serial <= link._serial]
        link._holdback = [
            (serial, m) for serial, m in link._holdback if serial > link._serial
        ]
        for message in due:
            self.stats.late_deliveries += 1
            self._deliver(message, swallow=True)

    def flush_all_holdback(self) -> None:
        """Force every held message out (end-of-scenario drain)."""
        for link in self._links.values():
            held = [m for _, m in link._holdback]
            link._holdback = []
            for message in held:
                self.stats.late_deliveries += 1
                self._deliver(message, swallow=True)

    def _deliver(self, message: Message, swallow: bool) -> Any:
        handler = self._handlers.get(message.dst)
        if handler is None:
            if swallow:
                return None
            raise PartitionedError(
                f"no endpoint registered for {message.dst!r}",
                src=message.src, dst=message.dst, indeterminate=False,
            )
        cache = self._dedupe.setdefault(message.dst, OrderedDict())
        if message.key is not None and message.key in cache:
            # A duplicate (or a retry after an indeterminate timeout):
            # detected, not applied twice.
            self.stats.duplicates_detected += 1
            cache.move_to_end(message.key)
            return cache[message.key]
        try:
            reply = handler(message)
        except FencedError:
            self.stats.fenced_rejects += 1
            if swallow:
                return None
            raise
        except Exception:
            if swallow:
                return None
            raise
        self.stats.delivered += 1
        if message.key is not None:
            cache[message.key] = reply
            while len(cache) > _DEDUPE_CAPACITY:
                cache.popitem(last=False)
        return reply


__all__ = [
    "NetworkFabric",
    "Link",
    "LinkPlan",
    "Message",
    "NetStats",
    "MSG_WAL_SHIP",
    "MSG_LEASE_RENEW",
    "MSG_RESYNC",
    "MSG_PROBE",
]
