"""Differential tests: ``CoreHierarchy`` against a naive hierarchy.

Random sequences run on a real L1D -> L2 -> LLC chain with LRU
everywhere and on ``NaiveHierarchy`` (dict-of-lists LRU levels, see its
docstring for the fill, writeback and prefetch rules).  After every
demand access the two must agree on which levels were looked up and
whether each hit, on every eviction (level, block, dirty flag) in
publication order, and on the DRAM read and write counts.  The prefetch
test mixes in ``issue_prefetch`` calls for two registered stub
prefetchers and one unregistered owner, and also compares each
prefetch's issued/dropped outcome, every owner's issued, dropped,
useful and useless counts, and the order of ``note_useful`` /
``note_useless`` calls.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from reference.naive_hierarchy import NaiveHierarchy
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.events import EV
from repro.memory.hierarchy import CoreHierarchy, SharedUncore
from repro.prefetchers.base import Prefetcher

#: (sets, ways) per level: small enough that a few dozen blocks hit,
#: miss and evict at every level, and the L2 is not inclusive of the L1D.
GEOMETRY = {"l1d": (2, 2), "l2": (4, 2), "llc": (4, 4)}

#: Long enough that dirty lines reach the LLC and are evicted to DRAM.
ACCESSES = st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                    min_size=40, max_size=200)


def build():
    caches = {name: Cache(name.upper(), sets * ways * 64, ways, latency)
              for (name, (sets, ways)), latency
              in zip(GEOMETRY.items(), (4, 12, 30))}
    uncore = SharedUncore(caches["llc"], DRAM(channels=1))
    return CoreHierarchy(0, caches["l1d"], caches["l2"], uncore)


def observe(bus):
    """Lists that collect every lookup's ``(level, hit)`` and every
    eviction's ``(level, blk, dirty)``, in publication order."""
    lookups, evictions = [], []

    def on_lookup(kind, level, core_id, blk, pc, origin, now, hit,
                  was_prefetched, owner, dirty):
        lookups.append((level, hit))

    def on_eviction(kind, level, core_id, blk, pc, origin, now, hit,
                    was_prefetched, owner, dirty):
        evictions.append((level, blk, dirty))

    for kind in (EV.LOOKUP_HIT, EV.LOOKUP_MISS):
        bus.subscribe(kind, on_lookup)
    bus.subscribe(EV.EVICTION, on_eviction)
    return lookups, evictions


@settings(max_examples=300, deadline=None)
@given(ACCESSES)
def test_hierarchy_matches_naive_model(accesses):
    core = build()
    model = NaiveHierarchy(**GEOMETRY)
    lookups, evictions = observe(core.bus)
    dram = core.uncore.dram.stats
    now = 0.0
    for blk, is_write in accesses:
        lookups.clear()
        model.evictions.clear()
        evictions.clear()
        now += 10.0
        core.access(0x400, blk * 64 + 8, is_write, now)
        assert lookups == model.access(blk, is_write)
        assert evictions == model.evictions
        assert (dram.reads, dram.writes) == \
            (model.dram_reads, model.dram_writes)


class StubPrefetcher(Prefetcher):
    """Never trains; logs the usefulness verdicts the hierarchy sends."""

    name = "stub"

    def __init__(self, notes):
        super().__init__()
        self.notes = notes

    def note_useful(self, blk, now):
        super().note_useful(blk, now)
        self.notes.append((self.owner_id, "useful", blk))

    def note_useless(self, blk, now):
        super().note_useless(blk, now)
        self.notes.append((self.owner_id, "useless", blk))


#: Owners 0 and 1 are registered stubs; owner 2 is registered nowhere,
#: so its prefetches fill and resolve but no stats are kept for it.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, 40), st.booleans()),
        st.tuples(st.just("prefetch"), st.integers(0, 40),
                  st.integers(0, 2), st.sampled_from(("l1d", "l2")))),
    min_size=40, max_size=200)


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_prefetch_path_matches_naive_model(ops):
    core = build()
    model = NaiveHierarchy(**GEOMETRY)
    notes = []
    stubs = [StubPrefetcher(notes) for _ in range(2)]
    for pf in stubs:
        core.uncore.register(pf)
    registered = [pf.owner_id for pf in stubs]
    lookups, evictions = observe(core.bus)
    dram = core.uncore.dram.stats
    now = 0.0
    for op in ops:
        lookups.clear()
        model.evictions.clear()
        evictions.clear()
        now += 10.0
        if op[0] == "access":
            _, blk, is_write = op
            core.access(0x400, blk * 64 + 8, is_write, now)
            assert lookups == model.access(blk, is_write)
        else:
            _, blk, owner, target = op
            assert core.issue_prefetch(blk, 0x400, now, owner, target) \
                == model.prefetch(blk, owner, target)
        assert evictions == model.evictions
        assert (dram.reads, dram.writes) == \
            (model.dram_reads, model.dram_writes)
        assert notes == [n for n in model.notes if n[0] in registered]
        for pf in stubs:
            owner = pf.owner_id
            assert (pf.stats.issued, pf.stats.dropped) == \
                (model.issued[owner], model.dropped[owner])
            assert (pf.stats.useful, pf.stats.useless_evictions) == (
                sum(1 for n in model.notes if n[:2] == (owner, "useful")),
                sum(1 for n in model.notes if n[:2] == (owner, "useless")))
