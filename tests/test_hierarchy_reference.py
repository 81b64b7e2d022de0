"""Differential test: ``CoreHierarchy.access`` against a naive hierarchy.

Random demand sequences (no prefetchers) run on a real L1D -> L2 -> LLC
chain with LRU everywhere and on ``NaiveHierarchy`` (dict-of-lists LRU
levels, see its docstring for the fill and writeback rules).  After every
access the two must agree on which levels were looked up and whether
each hit, on every eviction (level, block, dirty flag) in publication
order, and on the DRAM read and write counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from reference.naive_hierarchy import NaiveHierarchy
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.events import EV
from repro.memory.hierarchy import CoreHierarchy, SharedUncore

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


@settings(max_examples=300, deadline=None)
@given(ACCESSES)
def test_hierarchy_matches_naive_model(accesses):
    core = build()
    model = NaiveHierarchy(**GEOMETRY)
    lookups, evictions = [], []
    for kind in (EV.LOOKUP_HIT, EV.LOOKUP_MISS):
        core.bus.subscribe(kind, lambda ev: lookups.append(
            (ev.level, ev.hit)))
    core.bus.subscribe(EV.EVICTION, lambda ev: evictions.append(
        (ev.level, ev.blk, ev.dirty)))
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
