"""Differential test: the tag-indexed ``Cache`` against a way-scan model.

``Cache.tag_index`` is the only residency index: ``probe``, ``lookup``,
``fill`` and ``invalidate`` all go through it.  Random operation
sequences run on a real LRU ``Cache`` and on ``NaiveCache`` (linear way
scans, no index), and every outcome must agree: hit/miss, latency,
prefetch crediting, the way a fill lands in, the evicted line, every
resident line's fields and the ``CacheStats`` counters.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from reference.naive_cache import NaiveCache
from repro.memory.cache import Cache

SETS, WAYS, LATENCY = 2, 4, 5
#: Few enough blocks that sets fill up and evict within a short run.
BLOCKS = st.integers(0, 3 * SETS * WAYS)

OPS = st.one_of(
    st.tuples(st.just("fill"), BLOCKS, st.floats(0, 200), st.booleans(),
              st.booleans(), st.integers(-1, 3)),
    st.tuples(st.just("lookup"), BLOCKS, st.floats(0, 200), st.booleans()),
    st.tuples(st.just("probe"), BLOCKS),
    st.tuples(st.just("invalidate"), BLOCKS),
    st.tuples(st.just("set_data_ways"), st.integers(0, SETS - 1),
              st.integers(0, WAYS)),
)


def way_of(cache, blk):
    """Where ``blk`` sits, found by scanning lines, not the index."""
    for way, line in enumerate(cache.lines[cache.set_of(blk)]):
        if line.valid and line.blk == blk:
            return way
    return None


def residency(cache):
    """The model's view of ``cache``, read by scanning lines."""
    return {line.blk: (way, line.dirty, line.prefetched, line.pf_touched,
                       line.pc, line.owner, line.ready)
            for row in cache.lines
            for way, line in enumerate(row) if line.valid}


def line_fields(line):
    return (line.blk, line.dirty, line.prefetched, line.pf_touched,
            line.pc, line.owner)


def model_fields(line):
    return (line["blk"], line["dirty"], line["prefetched"], line["touched"],
            line["pc"], line["owner"])


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, min_size=10, max_size=120))
def test_cache_matches_way_scan_model(ops):
    cache = Cache("T", SETS * WAYS * 64, WAYS, LATENCY, "lru")
    model = NaiveCache(SETS, WAYS, LATENCY)
    stats = Counter()
    for op, *args in ops:
        if op == "fill":
            blk, ready, prefetch, dirty, owner = args
            pc = blk * 3
            evicted = cache.fill(blk, ready, pc, prefetch=prefetch,
                                 dirty=dirty, owner=owner)
            way, want = model.fill(blk, ready, pc, prefetch, dirty, owner)
            assert way_of(cache, blk) == way
            assert (None if evicted is None else line_fields(evicted)) == \
                (None if want is None else model_fields(want))
            stats["prefetch_fills"] += prefetch and way is not None
            stats["evictions"] += want is not None
            stats["writebacks"] += want is not None and want["dirty"]
        elif op == "lookup":
            blk, now, is_write = args
            res = cache.lookup(blk, now, is_write)
            hit, latency, was_pf, owner = model.lookup(blk, now, is_write)
            assert (res.hit, res.latency, res.was_prefetched, res.owner) \
                == (hit, latency, was_pf, owner)
            stats["accesses"] += 1
            stats["hits" if hit else "misses"] += 1
            stats["useful_prefetches"] += was_pf
            stats["late_prefetch_hits"] += was_pf and latency > LATENCY
        elif op == "probe":
            assert cache.probe(args[0]) == model.probe(args[0])
        elif op == "invalidate":
            assert cache.invalidate(args[0]) == model.invalidate(args[0])
        else:
            dropped = cache.set_data_ways(*args)
            assert dropped == model.set_data_ways(*args)
            stats["partition_invalidations"] += dropped
        assert residency(cache) == model.residency()
        assert cache.tag_index == {blk: fields[0] for blk, fields
                                   in model.residency().items()}
        assert cache.free_ways == [
            sum(1 for line in row[:nd] if not line.valid)
            for row, nd in zip(cache.lines, cache._data_ways)]
        assert cache.stats.as_dict() == {
            k: stats[k] for k in cache.stats.as_dict()}
