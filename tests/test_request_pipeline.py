"""Tests for the level chain, event bus, and train scopes."""

import pytest

from repro.memory.address import block_of
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.events import EV, EventBus
from repro.memory.hierarchy import CoreHierarchy, SharedUncore
from repro.memory.request import DEMAND
from repro.prefetchers.base import (Prefetcher, TRAIN_SCOPE_ALL_L2,
                                    TRAIN_SCOPE_TEMPORAL)
from repro.sim.multicore import REGION_BITS, REGION_MASK, _biased
from repro.sim.trace import TraceBuilder


def build(l1_kb=4, l2_kb=16, llc_kb=64):
    l1 = Cache("L1D", l1_kb * 1024, 4, 5)
    l2 = Cache("L2", l2_kb * 1024, 8, 10)
    llc = Cache("LLC", llc_kb * 1024, 16, 20, replacement="srrip")
    uncore = SharedUncore(llc, DRAM(channels=1, base_latency=100.0))
    return CoreHierarchy(0, l1, l2, uncore), uncore


class Recorder(Prefetcher):
    """Records every training event; prefetches nothing."""

    name = "recorder"

    def __init__(self, scope=TRAIN_SCOPE_TEMPORAL):
        super().__init__()
        self.train_scope = scope
        self.events = []

    def train(self, pc, blk, hit, prefetch_hit, now):
        self.events.append((pc, blk, hit, prefetch_hit))
        return []


class TestEventBus:
    def test_unknown_kind_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.subscribe("no-such-event", lambda *ev: None)

    def test_counts_without_subscribers(self):
        bus = EventBus()
        bus.publish(EV.FILL, "l2", 0, 42)
        bus.publish(EV.FILL, "l2", 0, 43, origin="prefetch")
        assert bus.count(EV.FILL) == 2
        assert bus.count(EV.FILL, origin="prefetch") == 1
        assert bus.counts_flat() == {"fill@l2:demand": 1,
                                     "fill@l2:prefetch": 1}

    def test_delivery_order_and_unsubscribe(self):
        bus = EventBus()
        seen = []
        first = lambda k, lv, c, blk, *_: seen.append(  # noqa: E731
            ("first", blk))
        second = lambda k, lv, c, blk, *_: seen.append(  # noqa: E731
            ("second", blk))
        bus.subscribe(EV.FILL, first)
        bus.subscribe(EV.FILL, second)
        bus.publish(EV.FILL, "l2", 0, 7)
        assert seen == [("first", 7), ("second", 7)]
        bus.unsubscribe(EV.FILL, first)
        bus.publish(EV.FILL, "l2", 0, 8)
        assert seen[-1] == ("second", 8)


class TestEventRouting:
    """Subscription filters and the compiled per-route dispatch."""

    def test_filtered_and_unfiltered_keep_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(EV.FILL, lambda *ev: seen.append("all"))
        bus.subscribe(EV.FILL, lambda *ev: seen.append("l2"), level="l2")
        bus.subscribe(EV.FILL, lambda *ev: seen.append("core0"), core_id=0)
        bus.subscribe(EV.FILL, lambda *ev: seen.append("last"))
        bus.publish(EV.FILL, "l2", 0, 7)
        assert seen == ["all", "l2", "core0", "last"]
        seen.clear()
        bus.publish(EV.FILL, "l1d", 1, 7)
        assert seen == ["all", "last"]

    def test_filters_receive_exactly_the_matching_events(self):
        bus = EventBus()
        got = {"level": [], "core": [], "origin": [], "all": []}
        bus.subscribe(EV.FILL, lambda k, lv, c, blk, *_:
                      got["level"].append(blk), level="l1d")
        bus.subscribe(EV.FILL, lambda k, lv, c, blk, *_:
                      got["core"].append(blk), core_id=2)
        bus.subscribe(EV.FILL, lambda k, lv, c, blk, *_:
                      got["origin"].append(blk), origin="prefetch")
        bus.subscribe(EV.FILL, lambda k, lv, c, blk, *_:
                      got["all"].append(blk),
                      level="l2", core_id=1, origin="writeback")
        blk = 0
        events = []
        for level in ("l1d", "l2", "llc"):
            for core in range(3):
                for origin in ("demand", "prefetch", "writeback"):
                    bus.publish(EV.FILL, level, core, blk, origin=origin)
                    events.append((blk, level, core, origin))
                    blk += 1
        assert got["level"] == [b for b, lv, _, _ in events if lv == "l1d"]
        assert got["core"] == [b for b, _, c, _ in events if c == 2]
        assert got["origin"] == [b for b, _, _, og in events
                                 if og == "prefetch"]
        assert got["all"] == [b for b, lv, c, og in events
                              if (lv, c, og) == ("l2", 1, "writeback")]
        assert bus.count(EV.FILL) == len(events)

    def test_unsubscribe_reroutes_the_next_publish(self):
        bus = EventBus()
        seen = []
        a = lambda k, lv, c, blk, *_: seen.append(("a", blk))  # noqa: E731
        b = lambda k, lv, c, blk, *_: seen.append(("b", blk))  # noqa: E731
        bus.subscribe(EV.FILL, a, level="l2")
        bus.subscribe(EV.FILL, b)
        bus.publish(EV.FILL, "l2", 0, 1)            # compiles the route
        bus.unsubscribe(EV.FILL, a)
        bus.publish(EV.FILL, "l2", 0, 2)
        bus.subscribe(EV.FILL, a)
        bus.publish(EV.FILL, "l2", 0, 3)
        assert seen == [("a", 1), ("b", 1), ("b", 2), ("b", 3), ("a", 3)]

    def test_unsubscribe_from_inside_a_handler(self):
        bus = EventBus()
        seen = []

        def once(kind, level, core_id, blk, *_):
            seen.append(("once", blk))
            bus.unsubscribe(EV.FILL, once)

        bus.subscribe(EV.FILL, once)
        bus.subscribe(EV.FILL, lambda k, lv, c, blk, *_:
                      seen.append(("after", blk)))
        bus.publish(EV.FILL, "l2", 0, 1)
        bus.publish(EV.FILL, "l2", 0, 2)
        # The publish in flight finishes its compiled route; the next
        # one is routed without the removed handler.
        assert seen == [("once", 1), ("after", 1), ("after", 2)]

    def test_detach_during_a_run_stops_training(self):
        core, uncore = build()
        pf = Recorder(TRAIN_SCOPE_ALL_L2)
        core.attach_l1_prefetcher(pf)
        core.access(0x1, 0x1000, False, 0.0)
        core.access(0x1, 0x2000, False, 10.0)
        assert len(pf.events) == 2
        before = uncore.bus.count(EV.LOOKUP_MISS, level="l1d")
        core.detach_prefetchers()
        core.access(0x1, 0x3000, False, 20.0)
        assert len(pf.events) == 2
        assert uncore.bus.count(EV.LOOKUP_MISS, level="l1d") == before + 1

    def test_unmatched_publish_counts_but_builds_no_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe(EV.FILL, lambda *ev: seen.append(ev), level="l1d",
                      core_id=0)
        bus.publish(EV.FILL, "l2", 0, 1)          # wrong level
        bus.publish(EV.FILL, "l1d", 1, 2)         # wrong core
        bus.publish(EV.EVICTION, "l1d", 0, 3)     # nobody subscribed
        assert seen == []
        assert bus.counts_flat() == {"eviction@l1d:demand": 1,
                                     "fill@l1d:demand": 1,
                                     "fill@l2:demand": 1}
        # A match is delivered as the event's fields, positionally.
        bus.publish(EV.FILL, "l1d", 0, 4, 0x40, "prefetch", 9.0, False,
                    False, 3, True)
        assert seen == [(EV.FILL, "l1d", 0, 4, 0x40, "prefetch", 9.0,
                         False, False, 3, True)]

    def test_counters_survive_reset_and_round_trip(self):
        def traffic(bus):
            for core in (0, 1):
                bus.publish(EV.FILL, "l2", core, 1)
                bus.publish(EV.LOOKUP_MISS, "l1d", core, 1)
                bus.publish(EV.FILL, "llc", core, 1, origin="writeback")

        bus = EventBus()
        bus.subscribe(EV.FILL, lambda *ev: None, core_id=0)
        traffic(bus)
        flat = bus.counts_flat()
        state = bus.state_dict()
        bus.reset_counts()
        assert bus.counts_flat() == {} and bus.state_dict() == \
            {"counts": []}
        traffic(bus)                     # the routes are compiled again
        assert bus.counts_flat() == flat and bus.state_dict() == state
        fresh = EventBus()
        fresh.load_state(state)
        assert fresh.counts_flat() == flat
        traffic(fresh)
        bus.load_state(bus.state_dict())  # over compiled routes
        traffic(bus)
        assert bus.counts_flat() == fresh.counts_flat()
        assert bus.counts_flat()["fill@l2:demand"] == 4

    @pytest.mark.parametrize("filt", [{"level": "l3"},
                                      {"origin": "speculative"}])
    def test_unknown_level_or_origin_rejected(self, filt):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown"):
            bus.subscribe(EV.FILL, lambda *ev: None, **filt)
        assert bus.subscriber_count() == 0


class TestRequestPipeline:
    def test_cold_miss_records_every_level(self):
        core, uncore = build()
        blk = block_of(0x1000)
        latency = core.l1_level.access(0x1, blk, False, DEMAND, 0.0, 0.0)
        levels = (core.l1_level, core.l2_level, core.uncore_level)
        assert [(lv.name, lv.hit) for lv in levels] == \
            [("l1d", False), ("l2", False), ("llc", False)]
        # The uncore's share on its own: an identical, idle uncore.
        fresh, _ = build()
        llc = fresh.uncore_level.access(0x1, blk, False, DEMAND, 0.0, 0.0)
        assert latency == core.l1d.latency + core.l2.latency + llc
        assert latency > 100  # went to DRAM

    def test_l1_hit_stops_at_first_level(self):
        core, _ = build()
        core.access(0x1, 0x1000, False, 0.0)
        l2_accesses = core.l2.stats.accesses
        latency = core.l1_level.access(0x1, block_of(0x1000), False, DEMAND,
                                       1000.0, 0.0)
        assert core.l1_level.hit
        assert latency == core.l1d.latency
        assert core.l2.stats.accesses == l2_accesses

    def test_cold_miss_event_order(self):
        core, uncore = build()
        order = []
        for kind in EV.ALL:
            uncore.bus.subscribe(
                kind, lambda k, level, *_: order.append((k, level)))
        core.access(0x1, 0x1000, False, 0.0)
        assert order == [
            (EV.LOOKUP_MISS, "l1d"),
            (EV.LOOKUP_MISS, "l2"),
            (EV.ACCESS, "llc"),
            (EV.LOOKUP_MISS, "llc"),
            (EV.FILL, "llc"),
            (EV.FILL, "l2"),
            (EV.FILL, "l1d"),
            (EV.DEMAND_COMPLETE, "l2"),
        ]

    def test_prefetch_stats_are_bumped_before_the_event(self):
        """Prefetch bookkeeping runs at the publishing site just before
        each prefetch event, so any subscriber already sees it."""
        core, uncore = build()
        pf = Recorder()
        owner = uncore.register(pf)
        seen = []
        fields = {EV.PREFETCH_ISSUED: "issued",
                  EV.PREFETCH_DROPPED: "dropped",
                  EV.PREFETCH_USEFUL: "useful",
                  EV.PREFETCH_USELESS: "useless_evictions"}
        for kind, field in fields.items():
            uncore.bus.subscribe(
                kind, lambda k, *_, f=field: seen.append(
                    (k, getattr(pf.stats, f))))
        sets = core.l2.num_sets
        assert core.issue_prefetch(0, 0x1, 0.0, owner, "l2")
        assert not core.issue_prefetch(0, 0x1, 1.0, owner, "l2")
        assert core.issue_prefetch(sets, 0x1, 2.0, owner, "l2")
        core.access(0x1, 0, False, 1000.0)       # L2 hit on block 0
        for k in range(2, 2 + core.l2.ways):     # evict block `sets`
            core.access(0x1, k * sets * 64, False, 2000.0 + k)
        assert seen == [(EV.PREFETCH_ISSUED, 1), (EV.PREFETCH_DROPPED, 1),
                        (EV.PREFETCH_ISSUED, 2), (EV.PREFETCH_USEFUL, 1),
                        (EV.PREFETCH_USELESS, 1)]

    def test_l1_hit_publishes_no_demand_complete(self):
        core, uncore = build()
        core.access(0x1, 0x1000, False, 0.0)
        before = uncore.bus.count(EV.DEMAND_COMPLETE)
        core.access(0x1, 0x1000, False, 1000.0)
        assert uncore.bus.count(EV.DEMAND_COMPLETE) == before


class TestTrainScopes:
    def test_invalid_scope_rejected_at_attach(self):
        core, _ = build()
        with pytest.raises(ValueError, match="train_scope"):
            core.attach_l2_prefetcher(Recorder(scope="bogus"))

    def test_every_shipped_prefetcher_declares_a_scope(self):
        from repro.core.streamline import StreamlinePrefetcher
        from repro.prefetchers import (BertiPrefetcher, BingoPrefetcher,
                                       IPCPPrefetcher, NullPrefetcher,
                                       SPPPrefetcher, StridePrefetcher,
                                       TriagePrefetcher, TriangelPrefetcher)
        from repro.prefetchers.triage import IdealTriage
        for cls, scope in [
                (StridePrefetcher, TRAIN_SCOPE_ALL_L2),
                (BertiPrefetcher, TRAIN_SCOPE_ALL_L2),
                (IPCPPrefetcher, TRAIN_SCOPE_ALL_L2),
                (BingoPrefetcher, TRAIN_SCOPE_ALL_L2),
                (SPPPrefetcher, TRAIN_SCOPE_ALL_L2),
                (TriagePrefetcher, TRAIN_SCOPE_TEMPORAL),
                (IdealTriage, TRAIN_SCOPE_TEMPORAL),
                (TriangelPrefetcher, TRAIN_SCOPE_TEMPORAL),
                (StreamlinePrefetcher, TRAIN_SCOPE_TEMPORAL),
                (NullPrefetcher, TRAIN_SCOPE_TEMPORAL)]:
            assert "train_scope" in vars(cls), cls.__name__
            assert cls.train_scope == scope, cls.__name__
            assert not hasattr(cls, "train_on_all_l2"), cls.__name__

    def test_temporal_scope_skips_clean_l2_hits(self):
        core, uncore = build()
        temporal = Recorder(TRAIN_SCOPE_TEMPORAL)
        broad = Recorder(TRAIN_SCOPE_ALL_L2)
        core.attach_l2_prefetcher(temporal)
        core.attach_l2_prefetcher(broad)
        bus = uncore.bus
        bus.publish(EV.DEMAND_COMPLETE, "l2", 0, 10, pc=1, hit=False)
        bus.publish(EV.DEMAND_COMPLETE, "l2", 0, 11, pc=1, hit=True)
        bus.publish(EV.DEMAND_COMPLETE, "l2", 0, 12, pc=1, hit=True,
                    was_prefetched=True)
        assert [e[1] for e in temporal.events] == [10, 12]
        assert [e[1] for e in broad.events] == [10, 11, 12]

    def test_training_filters_other_cores(self):
        core, uncore = build()
        pf = Recorder(TRAIN_SCOPE_ALL_L2)
        core.attach_l2_prefetcher(pf)
        uncore.bus.publish(EV.DEMAND_COMPLETE, "l2", 1, 10, hit=False)
        assert pf.events == []

    def test_l1_training_sees_every_l1_access(self):
        core, _ = build()
        pf = Recorder(TRAIN_SCOPE_ALL_L2)
        core.attach_l1_prefetcher(pf)
        core.access(0x1, 0x1000, False, 0.0)     # cold miss
        core.access(0x1, 0x1000, False, 1000.0)  # L1 hit
        assert [(blk_hit[2]) for blk_hit in pf.events] == [False, True]


class TestBiasedRegions:
    def _trace(self, addrs, name="t"):
        b = TraceBuilder(name)
        for a in addrs:
            b.add(0x1, a)
        return b.build()

    def test_core_zero_in_range_is_identity(self):
        addrs = [0x1000, 0x12345678, (1 << REGION_BITS) - 64]
        t = self._trace(addrs)
        assert [rec[1] for rec in _biased(t, 0)] == addrs

    def test_matches_old_additive_bias_for_in_range_addresses(self):
        addrs = [0x1000, 0xDEAD_BEEF_00, (1 << 40) + 4096]
        t = self._trace(addrs)
        for core in (1, 3):
            got = [rec[1] for rec in _biased(t, core)]
            assert got == [a + (core << REGION_BITS) for a in addrs]

    def test_regions_disjoint_even_for_oversized_footprints(self):
        # Addresses that overflow a region used to collide with the
        # next core under the additive bias; the fold keeps them home.
        huge = [(1 << REGION_BITS) + i * 64 for i in range(8)]
        t = self._trace(huge)
        blocks = {}
        for core in (0, 1, 2):
            for _, addr, _, _, _ in _biased(t, core):
                assert addr >> REGION_BITS == core
                blocks.setdefault(core, set()).add(addr)
        assert not (blocks[0] & blocks[1])
        assert not (blocks[1] & blocks[2])

    def test_mask_covers_region(self):
        assert REGION_MASK == (1 << REGION_BITS) - 1
