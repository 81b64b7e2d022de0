"""A dict-of-lists L1D -> L2 -> LLC hierarchy: the reference for
``repro.memory.hierarchy.CoreHierarchy.access`` and ``issue_prefetch``.

Each level keeps, per set, a list of resident blocks from least to most
recently used, a ``blk -> dirty`` dict and a ``blk -> owner`` dict of
prefetched lines no demand has touched yet.  The demand rules, spelled
out:

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

The prefetch rules (:meth:`NaiveHierarchy.prefetch`):

* a prefetch is dropped if its block already sits in the target level
  (an L2 prefetch does not look at the L1D).  A tag check touches no
  replacement state;
* an L1D prefetch of a block the L2 holds is served from the L2;
  otherwise it looks the LLC up like a demand access (filling the LLC
  from DRAM on a miss) and fills the L2 with an untagged line on the
  way up.  The L1D fill is tagged with the prefetch's owner;
* an L2 prefetch looks the LLC up the same way and fills the L2 with a
  tagged line;
* a demand hit on a tagged line makes that prefetch useful and clears
  the tag, so only the first hit counts.  A fill of a resident block
  replaces its tag (a writeback refill clears it);
* a tagged line evicted by a fill of its own level is useless.  A victim
  of a writeback into the L2 resolves neither way: the real hierarchy
  publishes no ``prefetch-useless`` for it.

:meth:`NaiveHierarchy.access` returns the per-level hit/miss pattern and
records every eviction, in the order the real hierarchy publishes them;
``notes`` records each ``(owner, "useful" | "useless", blk)`` verdict
in order, and ``issued``/``dropped`` count prefetches per owner.
"""

from collections import Counter


class NaiveLevel:
    def __init__(self, name, num_sets, ways):
        self.name = name
        self.ways = ways
        self.sets = {s: [] for s in range(num_sets)}
        self.dirty = {}
        self.tag = {}

    def _row(self, blk):
        return self.sets[blk % len(self.sets)]

    def holds(self, blk):
        return blk in self._row(blk)

    def lookup(self, blk):
        row = self._row(blk)
        if blk not in row:
            return False
        row.remove(blk)
        row.append(blk)
        return True

    def fill(self, blk, dirty, owner=None):
        """Install ``blk`` at MRU, tagged with ``owner`` if a prefetch
        brought it; returns the victim ``(blk, dirty, owner)`` (owner
        None unless an untouched prefetch) or None.  A refill of a
        resident block refreshes it and replaces its dirty bit and tag."""
        row = self._row(blk)
        victim = None
        if blk in row:
            row.remove(blk)
        elif len(row) == self.ways:
            old = row.pop(0)
            victim = (old, self.dirty.pop(old), self.tag.pop(old, None))
        row.append(blk)
        self.dirty[blk] = dirty
        self.tag.pop(blk, None)
        if owner is not None:
            self.tag[blk] = owner
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
        #: ``(owner, "useful" | "useless", blk)`` per prefetch verdict.
        self.notes = []
        self.issued = Counter()
        self.dropped = Counter()

    def _fill(self, level, blk, dirty=False, owner=None, writeback=False):
        victim = level.fill(blk, dirty, owner)
        if victim is None:
            return None
        old, old_dirty, old_owner = victim
        self.evictions.append((level.name, old, old_dirty))
        if old_owner is not None and not writeback:
            self.notes.append((old_owner, "useless", old))
        return victim

    def _fill_llc(self, blk, dirty=False):
        victim = self._fill(self.llc, blk, dirty)
        if victim is not None and victim[1]:
            self.dram_writes += 1

    def _fill_l2(self, blk, owner=None):
        victim = self._fill(self.l2, blk, owner=owner)
        if victim is not None and victim[1]:
            self._fill_llc(victim[0], dirty=True)

    def _fill_l1d(self, blk, owner=None):
        victim = self._fill(self.l1d, blk, owner=owner)
        if victim is not None and victim[1]:
            self._fill(self.l2, victim[0], dirty=True, writeback=True)

    def _lookup(self, level, blk):
        hit = level.lookup(blk)
        if hit and blk in level.tag:
            self.notes.append((level.tag.pop(blk), "useful", blk))
        return hit

    def _from_llc(self, blk):
        """Look the LLC up on the way to the L2; fill it on a miss.
        Returns whether it hit."""
        hit = self.llc.lookup(blk)
        if not hit:
            self.dram_reads += 1
            self._fill_llc(blk)
        return hit

    def access(self, blk, is_write):
        """One demand access; returns ``[(level, hit), ...]`` down to the
        level that hit (or the LLC on a full miss)."""
        if self._lookup(self.l1d, blk):
            if is_write:
                self.l1d.dirty[blk] = True
            return [("l1d", True)]
        pattern = [("l1d", False)]
        l2_hit = self._lookup(self.l2, blk)
        pattern.append(("l2", l2_hit))
        if not l2_hit:
            pattern.append(("llc", self._from_llc(blk)))
            self._fill_l2(blk)
        self._fill_l1d(blk)
        return pattern

    def prefetch(self, blk, owner, target):
        """One prefetch of ``blk`` into ``target`` ("l1d" or "l2") for
        ``owner``; returns False if it was dropped."""
        level = self.l1d if target == "l1d" else self.l2
        if level.holds(blk):
            self.dropped[owner] += 1
            return False
        if target == "l1d":
            if not self.l2.holds(blk):
                self._from_llc(blk)
                self._fill_l2(blk)
            self._fill_l1d(blk, owner)
        else:
            self._from_llc(blk)
            self._fill_l2(blk, owner)
        self.issued[owner] += 1
        return True
