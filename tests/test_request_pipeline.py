"""Tests for the MemoryRequest pipeline, event bus, and train scopes."""

import pytest

from repro.memory.address import block_of
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.events import EV, EventBus
from repro.memory.hierarchy import CoreHierarchy, SharedUncore
from repro.memory.request import DEMAND, MemoryRequest
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
            bus.subscribe("no-such-event", lambda ev: None)

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
        first = lambda ev: seen.append(("first", ev.blk))   # noqa: E731
        second = lambda ev: seen.append(("second", ev.blk))  # noqa: E731
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
        bus.subscribe(EV.FILL, lambda ev: seen.append("all"))
        bus.subscribe(EV.FILL, lambda ev: seen.append("l2"), level="l2")
        bus.subscribe(EV.FILL, lambda ev: seen.append("core0"), core_id=0)
        bus.subscribe(EV.FILL, lambda ev: seen.append("last"))
        bus.publish(EV.FILL, "l2", 0, 7)
        assert seen == ["all", "l2", "core0", "last"]
        seen.clear()
        bus.publish(EV.FILL, "l1d", 1, 7)
        assert seen == ["all", "last"]

    def test_filters_receive_exactly_the_matching_events(self):
        bus = EventBus()
        got = {"level": [], "core": [], "origin": [], "all": []}
        bus.subscribe(EV.FILL, lambda ev: got["level"].append(ev.blk),
                      level="l1d")
        bus.subscribe(EV.FILL, lambda ev: got["core"].append(ev.blk),
                      core_id=2)
        bus.subscribe(EV.FILL, lambda ev: got["origin"].append(ev.blk),
                      origin="prefetch")
        bus.subscribe(EV.FILL, lambda ev: got["all"].append(ev.blk),
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
        a = lambda ev: seen.append(("a", ev.blk))   # noqa: E731
        b = lambda ev: seen.append(("b", ev.blk))   # noqa: E731
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

        def once(ev):
            seen.append(("once", ev.blk))
            bus.unsubscribe(EV.FILL, once)

        bus.subscribe(EV.FILL, once)
        bus.subscribe(EV.FILL, lambda ev: seen.append(("after", ev.blk)))
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

    def test_unmatched_publish_counts_but_builds_no_event(self, monkeypatch):
        import repro.memory.events as events
        built = []

        class Counting(events.HierarchyEvent):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(events, "HierarchyEvent", Counting)
        bus = EventBus()
        seen = []
        bus.subscribe(EV.FILL, seen.append, level="l1d", core_id=0)
        bus.publish(EV.FILL, "l2", 0, 1)          # wrong level
        bus.publish(EV.FILL, "l1d", 1, 2)         # wrong core
        bus.publish(EV.EVICTION, "l1d", 0, 3)     # nobody subscribed
        assert built == []
        assert bus.counts_flat() == {"eviction@l1d:demand": 1,
                                     "fill@l1d:demand": 1,
                                     "fill@l2:demand": 1}
        bus.publish(EV.FILL, "l1d", 0, 4)
        assert built == [EV.FILL] and [ev.blk for ev in seen] == [4]

    def test_counters_survive_reset_and_round_trip(self):
        def traffic(bus):
            for core in (0, 1):
                bus.publish(EV.FILL, "l2", core, 1)
                bus.publish(EV.LOOKUP_MISS, "l1d", core, 1)
                bus.publish(EV.FILL, "llc", core, 1, origin="writeback")

        bus = EventBus()
        bus.subscribe(EV.FILL, lambda ev: None, core_id=0)
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
            bus.subscribe(EV.FILL, lambda ev: None, **filt)
        assert bus.subscriber_count() == 0


class TestRequestPipeline:
    def test_cold_miss_records_every_level(self):
        core, _ = build()
        req = MemoryRequest(0x1, 0x1000, block_of(0x1000), False, DEMAND,
                            0, 0.0)
        core.l1_level.access(req)
        assert [(o.level, o.hit) for o in req.outcomes] == \
            [("l1d", False), ("l2", False), ("llc", False)]
        assert req.latency == pytest.approx(
            sum(o.latency for o in req.outcomes))
        assert req.latency > 100  # went to DRAM
        assert req.clock == req.now + req.latency

    def test_l1_hit_stops_at_first_level(self):
        core, _ = build()
        core.access(0x1, 0x1000, False, 0.0)
        req = MemoryRequest(0x1, 0x1000, block_of(0x1000), False, DEMAND,
                            0, 1000.0)
        core.l1_level.access(req)
        assert [(o.level, o.hit) for o in req.outcomes] == [("l1d", True)]
        assert req.latency == core.l1d.latency

    def test_cold_miss_event_order(self):
        core, uncore = build()
        order = []
        for kind in EV.ALL:
            uncore.bus.subscribe(
                kind, lambda ev, k=kind: order.append((k, ev.level)))
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
