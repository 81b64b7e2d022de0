"""Hierarchy event bus: first-class observation of the request pipeline.

Every interesting thing the hierarchy does — a lookup resolving, a fill,
an eviction, a prefetch being issued or resolving useful/useless, a
metadata block crossing the LLC port — is published as a
:class:`HierarchyEvent` on the :class:`EventBus`.  Prefetcher training,
usefulness crediting, partition-controller dueling, and post-run probes
all subscribe to the bus instead of being called inline from the demand
path, so adding a new observer (or a new cache level) never requires
editing :meth:`CoreHierarchy.access`.

Events are delivered synchronously, in subscription order, at the exact
point the demand path used to invoke the corresponding hook — the bus is
an indirection, not a queue, so results are bit-identical to the old
hand-wired code.

The bus also counts every published event by ``(kind, level, origin)``
even when nobody subscribes.  Those counters are the basis of the
stats-conservation checks (``tests/test_conservation.py``): bus counts
must agree with the per-cache :class:`~repro.memory.cache.CacheStats`
counters, which catches double-count bugs in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .request import DEMAND, ORIGINS


class EV:
    """Event-kind taxonomy (string constants, stable across versions)."""

    #: A request arrives at a level, *before* the tag lookup.  Published
    #: at the LLC for every descent (demand and prefetch); partition
    #: controllers duel on these, pre-lookup, because a partition resize
    #: may invalidate the very line the lookup is about to find.
    ACCESS = "access"
    LOOKUP_HIT = "lookup-hit"
    LOOKUP_MISS = "lookup-miss"
    FILL = "fill"
    EVICTION = "eviction"
    PREFETCH_ISSUED = "prefetch-issued"
    PREFETCH_DROPPED = "prefetch-dropped"
    PREFETCH_USEFUL = "prefetch-useful"
    PREFETCH_USELESS = "prefetch-useless"
    METADATA_READ = "metadata-read"
    METADATA_WRITE = "metadata-write"
    #: A demand access that reached the L2 has fully resolved (all fills
    #: done).  L2 prefetcher training subscribes here: training runs
    #: after the demand fills, exactly as the unrolled path did.
    DEMAND_COMPLETE = "demand-complete"

    ALL = (ACCESS, LOOKUP_HIT, LOOKUP_MISS, FILL, EVICTION,
           PREFETCH_ISSUED, PREFETCH_DROPPED, PREFETCH_USEFUL,
           PREFETCH_USELESS, METADATA_READ, METADATA_WRITE,
           DEMAND_COMPLETE)


@dataclass
class HierarchyEvent:
    """One observation from the hierarchy."""

    __slots__ = ("kind", "level", "core_id", "blk", "pc", "origin",
                 "now", "hit", "was_prefetched", "owner", "dirty")

    kind: str
    level: str          # "l1d" | "l2" | "llc"
    core_id: int
    blk: int
    pc: int
    origin: str         # request origin: demand/prefetch/writeback/metadata
    now: float
    hit: bool
    was_prefetched: bool
    owner: int
    dirty: bool


Subscriber = Callable[[HierarchyEvent], None]

#: Event counters are keyed by (kind, level, origin).
CountKey = Tuple[str, str, str]
#: Dispatch routes are keyed by (kind, level, origin, core_id).
RouteKey = Tuple[str, str, str, int]
#: A compiled route: the event's counter cell (a one-element list shared
#: by every core's route to the same counter) and its subscribers.
Route = Tuple[List[int], Tuple[Subscriber, ...]]

#: The levels events are published at.
LEVELS = ("l1d", "l2", "llc")


class _Subscription(NamedTuple):
    fn: Subscriber
    level: str              # "" matches every level
    core_id: Optional[int]  # None matches every core
    origin: str             # "" matches every origin

    def matches(self, level: str, origin: str, core_id: int) -> bool:
        return ((not self.level or self.level == level)
                and (self.core_id is None or self.core_id == core_id)
                and (not self.origin or self.origin == origin))


class EventBus:
    """Synchronous pub/sub with per-(kind, level, origin) counters.

    Dispatch is routed: the first publish of each (kind, level, origin,
    core_id) compiles a route holding the counter cell and the matching
    subscribers, in subscription order; later publishes reuse it.  Any
    subscribe or unsubscribe drops every route, so the next publish
    recompiles against the current subscriptions.  A publish that no
    subscriber matches bumps its counter and builds no event object.
    """

    def __init__(self) -> None:
        self._subs: Dict[str, List[_Subscription]] = {}
        self._cells: Dict[CountKey, List[int]] = {}
        self._routes: Dict[RouteKey, Route] = {}

    def subscribe(self, kind: str, fn: Subscriber, *, level: str = "",
                  core_id: Optional[int] = None, origin: str = "") -> None:
        """Register ``fn`` for ``kind``; delivery in subscription order.

        ``level``, ``core_id`` and ``origin`` filter what ``fn`` receives
        (empty/``None`` matches everything), so a handler never sees,
        and need not test for, events of other levels, cores or origins.

        **Contract: subscribers must not retain the event object.**  A
        handler may read any field of the :class:`HierarchyEvent` it is
        called with, but must not store a reference to the event itself
        past its own return — copy the fields out instead.  Checkpoint
        resume relies on this: a handler's state lives only in its own
        snapshotted fields, so a run restored from a snapshot sees the
        same handler state as a straight one.  Every in-tree subscriber
        (prefetcher trainers, usefulness bookkeeping, partition duelers,
        telemetry samplers, the lifecycle tracer) reads fields
        synchronously and retains none.
        """
        if kind not in EV.ALL:
            raise ValueError(f"unknown event kind {kind!r}")
        if level and level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; known: {LEVELS}")
        if origin and origin not in ORIGINS:
            raise ValueError(f"unknown origin {origin!r}; known: {ORIGINS}")
        self._subs.setdefault(kind, []).append(
            _Subscription(fn, level, core_id, origin))
        self._routes.clear()

    def unsubscribe(self, kind: str, fn: Subscriber) -> None:
        """Remove the earliest subscription of ``fn`` to ``kind``; a
        no-op if there is none.

        Idempotent by design: detach paths (probes, telemetry, duelers)
        may run more than once, and a double-unsubscribe must not raise
        or remove someone else's handler.
        """
        subs = self._subs.get(kind, [])
        for i, sub in enumerate(subs):
            if sub.fn == fn:
                del subs[i]
                if not subs:
                    del self._subs[kind]
                self._routes.clear()
                return

    def subscriber_count(self, kind: str = "") -> int:
        """Live subscribers for ``kind``, or across all kinds.

        The leak check: long-lived buses (in-process runners, REPLs)
        must see this return to its baseline after every run, or
        detached observers are still receiving events.
        """
        if kind:
            return len(self._subs.get(kind, ()))
        return sum(len(subs) for subs in self._subs.values())

    def _compile(self, key: RouteKey) -> Route:
        kind, level, origin, core_id = key
        cell = self._cells.setdefault((kind, level, origin), [0])
        subs = tuple(sub.fn for sub in self._subs.get(kind, ())
                     if sub.matches(level, origin, core_id))
        route = self._routes[key] = (cell, subs)
        return route

    def publish(self, kind: str, level: str, core_id: int, blk: int,
                pc: int = 0, origin: str = DEMAND, now: float = 0.0,
                hit: bool = False, was_prefetched: bool = False,
                owner: int = -1, dirty: bool = False) -> None:
        """Count the event and deliver it to subscribers, synchronously."""
        key = (kind, level, origin, core_id)
        route = self._routes.get(key)
        if route is None:
            route = self._compile(key)
        cell, subs = route
        cell[0] += 1
        if not subs:
            return
        event = HierarchyEvent(kind, level, core_id, blk, pc, origin,
                               now, hit, was_prefetched, owner, dirty)
        for fn in subs:
            fn(event)

    # -- counter helpers ---------------------------------------------------

    @property
    def counts(self) -> Dict[CountKey, int]:
        """Counters by ``(kind, level, origin)``, in first-publish order
        (a snapshot; mutating it does not change the bus)."""
        return {key: cell[0] for key, cell in self._cells.items()}

    def count(self, kind: str, level: str = "", origin: str = "") -> int:
        """Total events matching ``kind`` (optionally level/origin)."""
        return sum(cell[0] for (k, lv, og), cell in self._cells.items()
                   if k == kind and (not level or lv == level)
                   and (not origin or og == origin))

    def counts_flat(self) -> Dict[str, int]:
        """Counters as ``"kind@level:origin" -> n`` (JSON/pickle friendly)."""
        return {f"{k}@{lv}:{og}": n
                for (k, lv, og), n in sorted(self.counts.items())}

    def reset_counts(self) -> None:
        # Routes hold cells, so they go too: counters reappear in
        # first-publish order, as a cleared dict would.
        self._cells.clear()
        self._routes.clear()

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Counters only; subscriptions are wiring, rebuilt on attach."""
        return {"counts": [[k, lv, og, cell[0]]
                           for (k, lv, og), cell in self._cells.items()]}

    def load_state(self, state: Dict[str, object]) -> None:
        self.reset_counts()
        self._cells.update({(str(k), str(lv), str(og)): [int(n)]
                            for k, lv, og, n in state["counts"]})
