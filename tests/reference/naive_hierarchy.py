"""A dict-of-lists L1D -> L2 -> LLC demand path with no prefetchers: the
reference for ``repro.memory.hierarchy.CoreHierarchy.access``.

Each level keeps, per set, a list of resident blocks from least to most
recently used and a ``blk -> dirty`` dict.  The rules, spelled out:

* a lookup hit moves the block to the MRU end; a hit at the L1D by a
  write marks the line dirty;
* a miss descends, and the block is filled into every level that missed
  on the way back up (LLC, then L2, then L1D), so the L1D allocates on
  writes as well as reads.  A filled line starts clean: only a write
  *hit* dirties an L1D line, and dirtiness enters lower levels through
  writebacks;
* a full set evicts its LRU block;
* a dirty L2 victim is written back into the LLC; a dirty L1D victim is
  written back into the L2, and whatever that writeback evicts from the
  L2 is dropped (no cascade at private levels);
* a dirty LLC victim goes to DRAM as a write.

:meth:`NaiveHierarchy.access` returns the per-level hit/miss pattern and
records every eviction, in the order the real hierarchy publishes them.
"""


class NaiveLevel:
    def __init__(self, name, num_sets, ways):
        self.name = name
        self.ways = ways
        self.sets = {s: [] for s in range(num_sets)}
        self.dirty = {}

    def _row(self, blk):
        return self.sets[blk % len(self.sets)]

    def lookup(self, blk):
        row = self._row(blk)
        if blk not in row:
            return False
        row.remove(blk)
        row.append(blk)
        return True

    def fill(self, blk, dirty):
        """Install ``blk`` at MRU; returns the victim ``(blk, dirty)`` or
        None.  A refill of a resident block only refreshes it."""
        row = self._row(blk)
        victim = None
        if blk in row:
            row.remove(blk)
        elif len(row) == self.ways:
            old = row.pop(0)
            victim = (old, self.dirty.pop(old))
        row.append(blk)
        self.dirty[blk] = dirty
        return victim


class NaiveHierarchy:
    def __init__(self, l1d, l2, llc):
        """Each argument is ``(num_sets, ways)``."""
        self.l1d = NaiveLevel("l1d", *l1d)
        self.l2 = NaiveLevel("l2", *l2)
        self.llc = NaiveLevel("llc", *llc)
        #: ``(level, blk, dirty)`` per eviction, in publication order.
        self.evictions = []
        self.dram_reads = 0
        self.dram_writes = 0

    def _fill(self, level, blk, dirty=False):
        victim = level.fill(blk, dirty)
        if victim is not None:
            self.evictions.append((level.name,) + victim)
        return victim

    def _fill_llc(self, blk, dirty=False):
        victim = self._fill(self.llc, blk, dirty)
        if victim is not None and victim[1]:
            self.dram_writes += 1

    def access(self, blk, is_write):
        """One demand access; returns ``[(level, hit), ...]`` down to the
        level that hit (or the LLC on a full miss)."""
        if self.l1d.lookup(blk):
            if is_write:
                self.l1d.dirty[blk] = True
            return [("l1d", True)]
        pattern = [("l1d", False)]
        l2_hit = self.l2.lookup(blk)
        pattern.append(("l2", l2_hit))
        if not l2_hit:
            llc_hit = self.llc.lookup(blk)
            pattern.append(("llc", llc_hit))
            if not llc_hit:
                self.dram_reads += 1
                self._fill_llc(blk)
            victim = self._fill(self.l2, blk)
            if victim is not None and victim[1]:
                self._fill_llc(victim[0], dirty=True)
        victim = self._fill(self.l1d, blk)
        if victim is not None and victim[1]:
            self._fill(self.l2, victim[0], dirty=True)
        return pattern
