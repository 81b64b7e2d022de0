"""A way-scanning LRU cache: the reference for ``repro.memory.cache.Cache``."""


class NaiveCache:
    def __init__(self, num_sets, ways, latency):
        self.sets = [[None] * ways for _ in range(num_sets)]
        self.data_ways = [ways] * num_sets
        self.latency = latency
        self.clock = 0

    def _find(self, blk):
        s = blk % len(self.sets)
        row = self.sets[s]
        for way in range(self.data_ways[s]):
            if row[way] is not None and row[way]["blk"] == blk:
                return s, way
        return s, None

    def probe(self, blk):
        return self._find(blk)[1] is not None

    def lookup(self, blk, now, is_write=False):
        """(hit, latency, was_prefetched, owner, late): ``late`` when the
        first demand touch of a prefetch comes before its fill is ready
        (decided from the cycles, not from the latency, which may round
        a tiny wait away)."""
        s, way = self._find(blk)
        if way is None:
            return False, self.latency, False, -1, False
        line = self.sets[s][way]
        self.clock += 1
        line["stamp"] = self.clock
        line["dirty"] = line["dirty"] or is_write
        was_pf = line["prefetched"] and not line["touched"]
        line["touched"] = line["touched"] or was_pf
        return (True, self.latency + max(0.0, line["ready"] - now), was_pf,
                line["owner"], was_pf and line["ready"] > now)

    def fill(self, blk, ready, pc, prefetch, dirty, owner):
        """(way filled, evicted line or None); way is None on a bypass."""
        s, way = self._find(blk)
        row, nd = self.sets[s], self.data_ways[s]
        if nd == 0:
            return None, None
        evicted = None
        if way is None:
            free = [w for w in range(nd) if row[w] is None]
            way = free[0] if free else min(range(nd),
                                           key=lambda w: row[w]["stamp"])
            evicted = row[way]
        self.clock += 1
        row[way] = dict(blk=blk, ready=ready, pc=pc, prefetched=prefetch,
                        touched=False, dirty=dirty, owner=owner,
                        stamp=self.clock)
        return way, evicted

    def invalidate(self, blk):
        s, way = self._find(blk)
        if way is not None:
            self.sets[s][way] = None
        return way is not None

    def set_data_ways(self, s, ways):
        row, old = self.sets[s], self.data_ways[s]
        dropped = sum(row[w] is not None for w in range(ways, old))
        for w in range(ways, old):
            row[w] = None
        self.data_ways[s] = ways
        return dropped

    def residency(self):
        """blk -> (way, dirty, prefetched, touched, pc, owner, ready)"""
        return {line["blk"]: (way, line["dirty"], line["prefetched"],
                              line["touched"], line["pc"], line["owner"],
                              line["ready"])
                for row in self.sets
                for way, line in enumerate(row) if line is not None}
