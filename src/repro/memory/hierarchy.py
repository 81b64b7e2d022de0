"""Three-level memory hierarchy as a generic request pipeline.

One :class:`CoreHierarchy` per core (private L1D + L2); the LLC, its
single R/W port, and DRAM are shared across cores via
:class:`SharedUncore`.  The demand path is a chain of
:class:`CacheLevel` nodes terminated by an :class:`UncoreLevel`: an
access recurses down the chain on a miss as plain arguments (pc, block,
write bit, origin, issue cycle, latency so far) and fills on the way
back up; each level adds its latency share and returns the running
sum, and keeps its last lookup's outcome.  There is no per-level special
casing in the demand path itself — everything level- or
prefetcher-specific (training, partition dueling, telemetry, probes)
observes :class:`~repro.memory.events.EventBus` events instead.  Prefetch
bookkeeping is the one exception: the publishing site itself updates the
owning prefetcher's issued/dropped counts and calls its
``note_useful``/``note_useless``, just before the matching event.

The flow per demand access matches the paper's setup:

* L1D prefetchers (IP-stride, Berti) subscribe to L1D lookup events
  (they observe every L1D access) and prefetch into the L1D.
* L2-level prefetchers subscribe to ``demand-complete`` events, which
  fire for every access that reached the L2.  Their
  :attr:`~repro.prefetchers.base.Prefetcher.train_scope` declares what
  trains them: ``"all_l2"`` (IPCP/Bingo/SPP-PPF) trains on every L2
  access; ``"temporal_events"`` (Triage/Triangel/Streamline) trains on
  L2 misses and on L2 hits to prefetched lines.  They prefetch into the
  L2 at max degree 4.
* Temporal metadata lives in an LLC partition; metadata reads/writes go
  through the shared LLC port (modelled with a busy-until clock), are
  charged to the owning prefetcher's :class:`PartitionController`, and
  appear on the bus as ``metadata-read``/``metadata-write`` events.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..obs.profile import SpanProfiler
from ..prefetchers.base import (Prefetcher, PrefetcherStats, TRAIN_SCOPES,
                                TRAIN_SCOPE_ALL_L2)
from .address import BLOCK_SHIFT
from .cache import Cache, CacheStats
from .dram import DRAM
from .events import EV, EventBus, Subscriber
from .request import DEMAND, METADATA, PREFETCH, WRITEBACK


class SharedUncore:
    """Shared LLC + port + DRAM, the event bus, and the prefetcher registry.

    The uncore owns the :class:`EventBus` because LLC-side events must
    reach every core's observers (dynamic partitioners duel at the LLC,
    so they see *every* core's demand traffic, as in hardware).  Its
    prefetcher registry maps owner ids to prefetchers for the levels'
    prefetch bookkeeping.
    """

    def __init__(self, llc: Cache, dram: DRAM, port_occupancy: float = 1.0,
                 num_cores: int = 1, bus: Optional[EventBus] = None):
        self.llc = llc
        self.dram = dram
        self.port_occupancy = port_occupancy
        self.num_cores = num_cores
        self._port_free = 0.0
        self.prefetchers: Dict[int, Prefetcher] = {}
        self._next_owner = 0
        self.demand_llc_accesses = 0
        self.metadata_llc_accesses = 0
        self.bus = bus if bus is not None else EventBus()

    def register(self, pf: Prefetcher) -> int:
        owner = self._next_owner
        self._next_owner += 1
        pf.owner_id = owner
        self.prefetchers[owner] = pf
        return owner

    def port_delay(self, now: float) -> float:
        """Queue on the single LLC port; returns the queueing delay."""
        delay = max(0.0, self._port_free - now)
        self._port_free = max(now, self._port_free) + self.port_occupancy
        return delay

    def reset_stats(self) -> None:
        self.llc.stats = CacheStats()
        self.dram.stats = type(self.dram.stats)()
        self.demand_llc_accesses = 0
        self.metadata_llc_accesses = 0
        self.bus.reset_counts()

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """LLC + DRAM + port + bus counters; the prefetcher registry is
        wiring (snapshotted separately, in registration order, by the
        engine)."""
        return {"llc": self.llc.state_dict(),
                "dram": self.dram.state_dict(),
                "port_free": self._port_free,
                "demand_llc_accesses": self.demand_llc_accesses,
                "metadata_llc_accesses": self.metadata_llc_accesses,
                "bus": self.bus.state_dict()}

    def load_state(self, state: Dict[str, object]) -> None:
        self.llc.load_state(state["llc"])
        self.dram.load_state(state["dram"])
        self._port_free = float(state["port_free"])
        self.demand_llc_accesses = int(state["demand_llc_accesses"])
        self.metadata_llc_accesses = int(state["metadata_llc_accesses"])
        self.bus.load_state(state["bus"])


class UncoreLevel:
    """The chain terminal: shared LLC port + LLC + DRAM.

    Presents the same ``access``/``writeback`` surface as
    :class:`CacheLevel`, so private levels never know whether the thing
    below them is another cache or the uncore.
    """

    name = "llc"

    def __init__(self, uncore: SharedUncore, core_id: int,
                 profiler: Optional[SpanProfiler] = None):
        self.uncore = uncore
        self.core_id = core_id
        self.profiler = profiler
        #: The last lookup's outcome (see :class:`CacheLevel`).
        self.hit = False
        self.was_prefetched = False
        self.owner = -1
        if profiler is None:
            self.access = self._access  # type: ignore[method-assign]

    def access(self, pc: int, blk: int, is_write: bool, origin: str,
               now: float, latency: float) -> float:
        """Access LLC (and DRAM on miss); fills the LLC on a miss.

        Adds this level's whole contribution (port delay + LLC latency +
        DRAM on a miss) to ``latency`` in one piece and returns the sum.
        """
        prof = self.profiler
        if prof is None:
            return self._access(pc, blk, is_write, origin, now, latency)
        prof.start("lookup:llc")
        try:
            return self._access(pc, blk, is_write, origin, now, latency)
        finally:
            prof.stop()

    def _access(self, pc: int, blk: int, is_write: bool, origin: str,
                now: float, latency: float) -> float:
        uncore = self.uncore
        bus = uncore.bus
        clock = now + latency
        delay = uncore.port_delay(clock)
        uncore.demand_llc_accesses += 1
        bus.publish(EV.ACCESS, self.name, self.core_id, blk, pc, origin, clock)
        res = uncore.llc.lookup(blk, clock + delay)
        hit = self.hit = res.hit
        was_pf = self.was_prefetched = res.was_prefetched
        owner = self.owner = res.owner
        bus.publish(EV.LOOKUP_HIT if hit else EV.LOOKUP_MISS, self.name,
                    self.core_id, blk, pc, origin, clock, hit, was_pf, owner)
        lat = delay + res.latency
        if hit:
            return latency + lat
        prof = self.profiler
        if prof is not None:
            prof.start("dram")
        try:
            dram_lat = uncore.dram.access(blk, clock + lat,
                                          is_prefetch=origin == PREFETCH)
        finally:
            if prof is not None:
                prof.stop()
        lat += dram_lat
        ready = clock + lat
        evicted = uncore.llc.fill(blk, ready, pc)
        bus.publish(EV.FILL, self.name, self.core_id, blk, pc, origin, ready)
        if evicted is not None:
            bus.publish(EV.EVICTION, self.name, self.core_id, evicted.blk,
                        evicted.pc, origin, ready, False, False,
                        evicted.owner, evicted.dirty)
            if evicted.dirty:
                uncore.dram.access(evicted.blk, ready, is_write=True)
        return latency + lat

    def writeback(self, blk: int, pc: int, now: float) -> None:
        """A dirty line evicted from the level above lands in the LLC.

        Off the critical path: the port slot is consumed, but nobody
        waits on the queueing delay.
        """
        uncore = self.uncore
        uncore.port_delay(now)
        evicted = uncore.llc.fill(blk, now, pc, False, True)
        bus = uncore.bus
        bus.publish(EV.FILL, self.name, self.core_id, blk, pc, WRITEBACK,
                    now, False, False, -1, True)
        if evicted is not None:
            bus.publish(EV.EVICTION, self.name, self.core_id, evicted.blk,
                        evicted.pc, WRITEBACK, now, False, False,
                        evicted.owner, evicted.dirty)
            if evicted.dirty:
                uncore.dram.access(evicted.blk, now, is_write=True)


class CacheLevel:
    """One private cache level: a generic link in a core's request chain.

    Every level does the same four things — look up, descend on a miss,
    fill on the way up, hand dirty victims to the level below — and
    publishes the corresponding events.  Level differences (write
    allocation at the L1D, port-mediated writebacks below the L2) live
    in the *wiring*, not in per-level branches on the demand path.

    ``prefetchers`` is the uncore's owner-id registry: a demand hit on an
    untouched prefetched line calls its owner's ``note_useful``, and a
    fill that evicts one calls ``note_useless``, each just before the
    matching event is published.  An unregistered owner is skipped.
    """

    def __init__(self, name: str, cache: Cache, core_id: int, bus: EventBus,
                 below: Union["CacheLevel", UncoreLevel],
                 prefetchers: Dict[int, Prefetcher],
                 sink_writes: bool = False,
                 profiler: Optional[SpanProfiler] = None):
        self.name = name
        self.cache = cache
        self.core_id = core_id
        self.bus = bus
        self.below = below
        self.prefetchers = prefetchers
        #: Only the first level sees the access's write bit; dirtiness
        #: enters lower levels through writebacks.
        self.sink_writes = sink_writes
        self.profiler = profiler
        self._span = "lookup:" + name
        #: The last lookup's outcome: whether it hit, whether it was the
        #: first demand touch of a prefetched line, and the prefetcher
        #: that brought the line in.  ``CoreHierarchy.access`` reads the
        #: L2's to publish ``demand-complete``.
        self.hit = False
        self.was_prefetched = False
        self.owner = -1
        if profiler is None:
            self.access = self._access  # type: ignore[method-assign]

    def access(self, pc: int, blk: int, is_write: bool, origin: str,
               now: float, latency: float) -> float:
        """Serve one access issued at cycle ``now`` that has accumulated
        ``latency`` above this level; returns the accumulated latency
        once it is served here or below.

        Latency is summed top-down: each level adds its share to the
        running total it was given, in chain order.  Floating-point
        addition is not associative, so a different order (say,
        bottom-up) would change results in the last digits.
        """
        prof = self.profiler
        if prof is None:
            return self._access(pc, blk, is_write, origin, now, latency)
        prof.start(self._span)
        try:
            return self._access(pc, blk, is_write, origin, now, latency)
        finally:
            prof.stop()

    def _access(self, pc: int, blk: int, is_write: bool, origin: str,
                now: float, latency: float) -> float:
        cache = self.cache
        res = cache.lookup(blk, now + latency,
                           is_write if self.sink_writes else False)
        hit = self.hit = res.hit
        was_pf = self.was_prefetched = res.was_prefetched
        owner = self.owner = res.owner
        bus = self.bus
        bus.publish(EV.LOOKUP_HIT if hit else EV.LOOKUP_MISS, self.name,
                    self.core_id, blk, pc, origin, now, hit, was_pf, owner)
        if hit:
            if was_pf:
                pf = self.prefetchers.get(owner)
                if pf is not None:
                    pf.note_useful(blk, now)
                bus.publish(EV.PREFETCH_USEFUL, self.name, self.core_id,
                            blk, 0, origin, now, False, False, owner)
            return latency + res.latency
        latency = self.below.access(pc, blk, is_write, origin, now,
                                    latency + cache.latency)
        self.fill(blk, now + latency, pc)
        return latency

    def fill(self, blk: int, ready: float, pc: int,
             prefetch: bool = False, owner: int = -1,
             origin: str = DEMAND) -> None:
        """Install a block; report an unused prefetched victim and write
        back a dirty one."""
        evicted = self.cache.fill(blk, ready, pc, prefetch, False, owner)
        bus = self.bus
        bus.publish(EV.FILL, self.name, self.core_id, blk, pc,
                    PREFETCH if prefetch else origin, ready, False, False,
                    owner)
        if evicted is None:
            return
        bus.publish(EV.EVICTION, self.name, self.core_id, evicted.blk,
                    evicted.pc, origin, ready, False, False, evicted.owner,
                    evicted.dirty)
        if evicted.prefetched and not evicted.pf_touched:
            pf = self.prefetchers.get(evicted.owner)
            if pf is not None:
                pf.note_useless(evicted.blk, ready)
            bus.publish(EV.PREFETCH_USELESS, self.name, self.core_id,
                        evicted.blk, 0, DEMAND, ready, False, False,
                        evicted.owner)
        if evicted.dirty:
            self.below.writeback(evicted.blk, evicted.pc, ready)

    def writeback(self, blk: int, pc: int, now: float) -> None:
        """Absorb a dirty victim from the level above.

        The cascade (a victim of the writeback fill itself) is
        intentionally not modelled at private levels; only the uncore
        propagates writeback victims onward to DRAM.
        """
        evicted = self.cache.fill(blk, now, pc, False, True)
        bus = self.bus
        bus.publish(EV.FILL, self.name, self.core_id, blk, pc, WRITEBACK,
                    now, False, False, -1, True)
        if evicted is not None:
            bus.publish(EV.EVICTION, self.name, self.core_id, evicted.blk,
                        evicted.pc, WRITEBACK, now, False, False,
                        evicted.owner, evicted.dirty)


class CoreHierarchy:
    """One core's private level chain plus its view of the shared uncore."""

    def __init__(self, core_id: int, l1d: Cache, l2: Cache,
                 uncore: SharedUncore,
                 profiler: Optional[SpanProfiler] = None):
        self.core_id = core_id
        self.l1d = l1d
        self.l2 = l2
        self.uncore = uncore
        self.bus = uncore.bus
        self.profiler = profiler
        # The request pipeline: L1D -> L2 -> shared uncore.  Adding a
        # level (e.g. an L3 victim cache) is an insertion here, not an
        # access-path rewrite.
        self.uncore_level = UncoreLevel(uncore, core_id, profiler=profiler)
        self.l2_level = CacheLevel("l2", l2, core_id, self.bus,
                                   self.uncore_level, uncore.prefetchers,
                                   profiler=profiler)
        self.l1_level = CacheLevel("l1d", l1d, core_id, self.bus,
                                   self.l2_level, uncore.prefetchers,
                                   sink_writes=True, profiler=profiler)
        self.l1_prefetcher: Optional[Prefetcher] = None
        self.l2_prefetchers: List[Prefetcher] = []
        # Trainer closures subscribed on behalf of attached prefetchers,
        # recorded so detach_prefetchers() can release them.
        self._pf_subs: List[tuple] = []
        # Demand L2 misses that had to go below (the "uncovered" count in
        # the coverage metric).
        self.uncovered_misses = 0
        self.demand_accesses = 0

    # -- wiring -------------------------------------------------------------

    def attach_l1_prefetcher(self, pf: Prefetcher) -> None:
        self.uncore.register(pf)
        pf.hier = self
        self.l1_prefetcher = pf
        pf.attach(self)
        for kind in (EV.LOOKUP_HIT, EV.LOOKUP_MISS):
            trainer = self._make_trainer(pf, "l1d")
            self.bus.subscribe(kind, trainer, level="l1d",
                               core_id=self.core_id)
            self._pf_subs.append((kind, trainer))

    def attach_l2_prefetcher(self, pf: Prefetcher) -> None:
        if pf.train_scope not in TRAIN_SCOPES:
            raise ValueError(
                f"{pf.name}: train_scope must be one of {TRAIN_SCOPES}, "
                f"got {pf.train_scope!r}")
        self.uncore.register(pf)
        pf.hier = self
        self.l2_prefetchers.append(pf)
        pf.attach(self)
        trainer = self._make_trainer(pf, "l2")
        self.bus.subscribe(EV.DEMAND_COMPLETE, trainer, core_id=self.core_id)
        self._pf_subs.append((EV.DEMAND_COMPLETE, trainer))

    def detach_prefetchers(self) -> None:
        """Release every bus subscription taken for this core's
        prefetchers: the trainer closures subscribed here, and whatever
        each prefetcher registered itself (LLC-side duelers).

        Idempotent.  Prefetcher and cache state stay readable — only
        event delivery stops — so post-run probes are unaffected.
        """
        for kind, fn in self._pf_subs:
            self.bus.unsubscribe(kind, fn)
        self._pf_subs.clear()
        pfs = list(self.l2_prefetchers)
        if self.l1_prefetcher is not None:
            pfs.append(self.l1_prefetcher)
        for pf in pfs:
            pf.detach(self)

    def _make_trainer(self, pf: Prefetcher, target: str) -> Subscriber:
        """A trainer for ``pf`` that issues its candidates into
        ``target``.  The L1D trainer takes every event it is subscribed
        to: this core's L1D lookups.  The L2 trainer takes this core's
        demand completions, gated by the prefetcher's train_scope."""
        every = target == "l1d" or pf.train_scope == TRAIN_SCOPE_ALL_L2
        prof = self.profiler
        if prof is None:
            def train(kind: str, level: str, core_id: int, blk: int,
                      pc: int, origin: str, now: float, hit: bool,
                      was_prefetched: bool, owner: int,
                      dirty: bool) -> None:
                if every or not hit or was_prefetched:
                    for cand in pf.train(pc, blk, hit, was_prefetched, now):
                        self.issue_prefetch(cand, pc, now, pf.owner_id,
                                            target)
            return train
        train_span = "train:" + pf.name
        issue_span = "issue:" + pf.name

        def train_profiled(kind: str, level: str, core_id: int, blk: int,
                           pc: int, origin: str, now: float, hit: bool,
                           was_prefetched: bool, owner: int,
                           dirty: bool) -> None:
            if every or not hit or was_prefetched:
                prof.start(train_span)
                try:
                    cands = list(pf.train(pc, blk, hit, was_prefetched,
                                          now))
                finally:
                    prof.stop()
                if cands:
                    prof.start(issue_span)
                    try:
                        for cand in cands:
                            self.issue_prefetch(cand, pc, now, pf.owner_id,
                                                target)
                    finally:
                        prof.stop()
        return train_profiled

    # -- prefetch issue ---------------------------------------------------------

    def issue_prefetch(self, blk: int, pc: int, now: float, owner: int,
                       target: str = "l2") -> bool:
        """Fetch ``blk`` into ``target`` on behalf of prefetcher ``owner``.

        Returns False (and counts a drop) if the block is already cached
        in the target level.  The owner's ``stats.issued``/``dropped``
        are bumped just before the matching event is published; an
        unregistered owner keeps no stats.
        """
        pf = self.uncore.prefetchers.get(owner)
        bus = self.bus
        if target == "l1d":
            if self.l1d.probe(blk):
                if pf is not None:
                    pf.stats.dropped += 1
                bus.publish(EV.PREFETCH_DROPPED, "l1d", self.core_id, blk,
                            pc, PREFETCH, now, False, False, owner)
                return False
            if self.l2.probe(blk):
                lat: float = self.l2.latency
            else:
                lat = self.l2.latency + self.uncore_level.access(
                    pc, blk, False, PREFETCH, now, 0.0)
                self.l2_level.fill(blk, now + lat, pc)  # fill on the way up
            self.l1_level.fill(blk, now + lat, pc, True, owner, PREFETCH)
            if pf is not None:
                pf.stats.issued += 1
            bus.publish(EV.PREFETCH_ISSUED, "l1d", self.core_id, blk, pc,
                        PREFETCH, now, False, False, owner)
        else:
            if self.l2.probe(blk):
                if pf is not None:
                    pf.stats.dropped += 1
                bus.publish(EV.PREFETCH_DROPPED, "l2", self.core_id, blk,
                            pc, PREFETCH, now, False, False, owner)
                return False
            lat = self.uncore_level.access(pc, blk, False, PREFETCH, now,
                                           0.0)
            self.l2_level.fill(blk, now + lat, pc, True, owner, PREFETCH)
            if pf is not None:
                pf.stats.issued += 1
            bus.publish(EV.PREFETCH_ISSUED, "l2", self.core_id, blk, pc,
                        PREFETCH, now, False, False, owner)
        return True

    # -- temporal metadata path --------------------------------------------------

    def metadata_access(self, now: float, is_write: bool = False) -> float:
        """One metadata block access through the shared LLC port."""
        prof = self.profiler
        if prof is None:
            return self._metadata_access(now, is_write)
        prof.start("metadata")
        try:
            return self._metadata_access(now, is_write)
        finally:
            prof.stop()

    def _metadata_access(self, now: float, is_write: bool) -> float:
        self.uncore.metadata_llc_accesses += 1
        delay = self.uncore.port_delay(now)
        self.bus.publish(EV.METADATA_WRITE if is_write else EV.METADATA_READ,
                         "llc", self.core_id, -1, 0, METADATA, now)
        return delay + self.uncore.llc.latency

    # -- the demand path ---------------------------------------------------------

    def access(self, pc: int, addr: int, is_write: bool,
               now: float) -> float:
        """One demand access; returns its load-to-use latency in cycles."""
        self.demand_accesses += 1
        blk = addr >> BLOCK_SHIFT
        latency = self.l1_level.access(pc, blk, is_write, DEMAND, now, 0.0)
        if not self.l1_level.hit:
            l2 = self.l2_level
            if not l2.hit:
                self.uncovered_misses += 1
            self.bus.publish(EV.DEMAND_COMPLETE, "l2", self.core_id, blk,
                             pc, DEMAND, now, l2.hit, l2.was_prefetched,
                             l2.owner)
        return latency

    # -- stats ----------------------------------------------------------------

    def reset_stats(self) -> None:
        self.l1d.stats = CacheStats()
        self.l2.stats = CacheStats()
        self.uncovered_misses = 0
        self.demand_accesses = 0
        for pf in list(self.l2_prefetchers) + (
                [self.l1_prefetcher] if self.l1_prefetcher else []):
            pf.stats = PrefetcherStats()

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Private caches + demand counters; attached prefetchers are
        snapshotted separately by the engine."""
        return {"l1d": self.l1d.state_dict(),
                "l2": self.l2.state_dict(),
                "uncovered_misses": self.uncovered_misses,
                "demand_accesses": self.demand_accesses}

    def load_state(self, state: Dict[str, object]) -> None:
        self.l1d.load_state(state["l1d"])
        self.l2.load_state(state["l2"])
        self.uncovered_misses = int(state["uncovered_misses"])
        self.demand_accesses = int(state["demand_accesses"])
