"""A set-associative cache with pluggable replacement and way partitioning.

This is the building block for the whole hierarchy (L1I/L1D/L2/LLC).  Two
features exist specifically for on-chip temporal prefetching:

* **Way partitioning** - the LLC can cede a per-set number of ways to a
  metadata store.  ``set_data_ways`` shrinks/grows the data partition of a
  set; shrinking invalidates the lines in the ceded ways (counted as
  partition writebacks, which is the data-movement cost the paper
  discusses).
* **Prefetch tracking** - lines remember whether they were filled by a
  prefetch and when the fill completes, so demand accesses to in-flight
  prefetches pay the *remaining* latency (late-prefetch timeliness) and
  the first demand hit to a prefetched line is counted as a useful
  prefetch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .address import BLOCK_SIZE, is_pow2
from .replacement import make_policy


class Line:
    """One cache line's bookkeeping (tags only; no data payload)."""

    __slots__ = ("blk", "valid", "dirty", "prefetched", "pf_touched",
                 "ready", "pc", "owner")

    def __init__(self) -> None:
        self.blk = -1
        self.valid = False
        self.dirty = False
        self.prefetched = False   # filled by a prefetch
        self.pf_touched = False   # prefetch already credited as useful
        self.ready = 0.0          # cycle at which the fill completes
        self.pc = 0
        self.owner = -1           # prefetcher id that issued the fill

    def reset(self) -> None:
        self.blk = -1
        self.valid = False
        self.dirty = False
        self.prefetched = False
        self.pf_touched = False
        self.ready = 0.0
        self.pc = 0
        self.owner = -1


@dataclass
class CacheStats:
    """Counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    useful_prefetches: int = 0
    late_prefetch_hits: int = 0
    partition_invalidations: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(init=False)
class AccessResult:
    """Outcome of a cache lookup.

    Each cache owns one and :meth:`Cache.lookup` rewrites it in place.
    """

    __slots__ = ("hit", "latency", "was_prefetched", "owner")

    hit: bool
    latency: float
    was_prefetched: bool           # first demand touch of a prefetched line
    owner: int                     # prefetcher that brought the line in

    def __init__(self, hit: bool, latency: float,
                 was_prefetched: bool = False, owner: int = -1) -> None:
        self.hit = hit
        self.latency = latency
        self.was_prefetched = was_prefetched
        self.owner = owner


class Cache:
    """Set-associative cache.

    Parameters
    ----------
    name:
        Label used in stats dumps ("L1D", "L2", "LLC", ...).
    size_bytes / ways:
        Geometry; ``size_bytes / (64 * ways)`` must be a power of two.
    latency:
        Hit latency in cycles, charged by the hierarchy.
    replacement:
        Policy name understood by :func:`repro.memory.replacement.make_policy`.
    """

    def __init__(self, name: str, size_bytes: int, ways: int, latency: int,
                 replacement: str = "lru"):
        num_sets = size_bytes // (BLOCK_SIZE * ways)
        if num_sets == 0 or not is_pow2(num_sets):
            raise ValueError(
                f"{name}: size {size_bytes}B / {ways} ways gives "
                f"{num_sets} sets (must be a power of two)")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.num_sets = num_sets
        self.latency = latency
        self.policy = make_policy(replacement, num_sets, ways)
        self.lines: List[List[Line]] = [
            [Line() for _ in range(ways)] for _ in range(num_sets)]
        self._data_ways: List[int] = [ways] * num_sets
        #: Per-set bitmask of the invalid ways inside the data partition
        #: (bit ``w`` set: way ``w`` is free).  Kept exact by every
        #: mutation, so ``fill`` takes the lowest free way as
        #: ``mask & -mask`` without scanning, and a zero mask means the
        #: set is full (the steady state).
        self.free_mask: List[int] = [(1 << ways) - 1] * num_sets
        self.stats = CacheStats()
        #: blk -> way for every valid line (a block lives in exactly one
        #: way of its set, so the mapping is total, and every valid line
        #: sits inside its set's data partition).  Maintained by every tag
        #: mutation; the one residency index, so ``probe``, ``lookup``,
        #: ``fill`` and ``invalidate`` find a block in O(1) instead of
        #: scanning ways.
        self.tag_index: Dict[int, int] = {}
        self._set_mask = num_sets - 1
        #: The line in no row that ``fill`` swaps in for an evicted one.
        self._spare = Line()
        #: The record ``lookup`` rewrites and returns.
        self._result = AccessResult(False, latency)

    # -- geometry ---------------------------------------------------------

    def set_of(self, blk: int) -> int:
        return blk & self._set_mask

    def data_ways(self, set_idx: int) -> int:
        """Number of ways currently available to data in this set."""
        return self._data_ways[set_idx]

    def set_data_ways(self, set_idx: int, ways: int) -> int:
        """Resize the data partition of one set; returns lines invalidated."""
        if not 0 <= ways <= self.ways:
            raise ValueError(f"data ways {ways} out of range 0..{self.ways}")
        old = self._data_ways[set_idx]
        self._data_ways[set_idx] = ways
        dropped = 0
        if ways < old:
            for w in range(ways, old):
                line = self.lines[set_idx][w]
                if line.valid:
                    self.tag_index.pop(line.blk, None)
                    line.reset()
                    dropped += 1
        self.free_mask[set_idx] = self._free_mask_of(set_idx)
        self.stats.partition_invalidations += dropped
        return dropped

    def _free_mask_of(self, set_idx: int) -> int:
        """The free-way bitmask of one set, recounted from its lines."""
        row = self.lines[set_idx]
        return sum(1 << w for w in range(self._data_ways[set_idx])
                   if not row[w].valid)

    # -- operations -------------------------------------------------------

    def probe(self, blk: int) -> bool:
        """Tag check with no side effects."""
        return blk in self.tag_index

    def lookup(self, blk: int, now: float, is_write: bool = False,
               touch: bool = True) -> AccessResult:
        """Demand lookup.  Does *not* fill on miss (hierarchy does that).

        Returns the cache's one result record, rewritten by every lookup:
        it stays valid only until the next ``lookup`` of this cache, so
        read what you need from it before then.
        """
        stats = self.stats
        stats.accesses += 1
        res = self._result
        way = self.tag_index.get(blk)
        if way is None:
            stats.misses += 1
            res.hit = res.was_prefetched = False
            res.latency = self.latency
            res.owner = -1
            return res
        set_idx = blk & self._set_mask
        line = self.lines[set_idx][way]
        stats.hits += 1
        if touch:
            self.policy.on_hit(set_idx, way)
        if is_write:
            line.dirty = True
        extra = max(0.0, line.ready - now)
        was_pf = False
        if line.prefetched and not line.pf_touched:
            line.pf_touched = True
            was_pf = True
            stats.useful_prefetches += 1
            if extra > 0:
                stats.late_prefetch_hits += 1
        res.hit = True
        res.latency = self.latency + extra
        res.was_prefetched = was_pf
        res.owner = line.owner
        return res

    def fill(self, blk: int, ready: float, pc: int = 0,
             prefetch: bool = False, dirty: bool = False,
             owner: int = -1) -> Optional[Line]:
        """Install ``blk``; returns the evicted line, if any.

        ``ready`` is the cycle at which the data actually arrives; demand
        hits before then pay the difference.  The returned line is the
        victim itself, swapped out of its row for the cache's spare line:
        it stays valid only until the next ``fill`` of this cache, which
        may reuse it, so read what you need from it before then.
        """
        set_idx = blk & self._set_mask
        nd = self._data_ways[set_idx]
        if nd == 0:
            return None  # set fully ceded to metadata; bypass
        row = self.lines[set_idx]
        # Refill/upgrade in place?  The index is authoritative: a valid
        # line's way is always < nd (partition shrinks drop the index
        # entry along with the line).
        way = self.tag_index.get(blk)
        evicted = None
        if way is None:
            free = self.free_mask[set_idx]
            if free:
                # The lowest free way, as a way scan would pick it.
                low = free & -free
                self.free_mask[set_idx] = free ^ low
                way = low.bit_length() - 1
            else:
                # The set is full: swap the victim out of its row for
                # the spare instead of copying it.
                way = self.policy.victim(set_idx, range(nd))
                evicted = row[way]
                self.tag_index.pop(evicted.blk)
                row[way] = self._spare
                self._spare = evicted
                self.stats.evictions += 1
                if evicted.dirty:
                    self.stats.writebacks += 1
        line = row[way]
        self.tag_index[blk] = way
        line.blk = blk
        line.valid = True
        line.dirty = dirty
        line.prefetched = prefetch
        line.pf_touched = False
        line.ready = ready
        line.pc = pc
        line.owner = owner
        if prefetch:
            self.stats.prefetch_fills += 1
        self.policy.on_fill(set_idx, way, blk, pc)
        return evicted

    def invalidate(self, blk: int) -> bool:
        """Drop a block if present (used by multi-core coherence shootdowns)."""
        way = self.tag_index.pop(blk, None)
        if way is None:
            return False
        set_idx = blk & self._set_mask
        self.lines[set_idx][way].reset()
        self.free_mask[set_idx] |= 1 << way
        return True

    def occupancy(self) -> float:
        """Fraction of data-partition lines currently valid."""
        total = valid = 0
        for set_idx in range(self.num_sets):
            nd = self._data_ways[set_idx]
            total += nd
            valid += sum(1 for line in self.lines[set_idx][:nd]
                         if line.valid)
        return valid / total if total else 0.0

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Line metadata (columnar arrays), partition map, stats, policy."""
        n = self.num_sets * self.ways
        blk = np.empty(n, dtype=np.int64)
        pc = np.empty(n, dtype=np.int64)
        owner = np.empty(n, dtype=np.int64)
        ready = np.empty(n, dtype=np.float64)
        flags = np.empty((4, n), dtype=np.bool_)
        for set_idx, row in enumerate(self.lines):
            base = set_idx * self.ways
            for way, line in enumerate(row):
                i = base + way
                blk[i] = line.blk
                pc[i] = line.pc
                owner[i] = line.owner
                ready[i] = line.ready
                flags[0, i] = line.valid
                flags[1, i] = line.dirty
                flags[2, i] = line.prefetched
                flags[3, i] = line.pf_touched
        return {
            "geometry": [self.num_sets, self.ways],
            "blk": blk, "pc": pc, "owner": owner, "ready": ready,
            "flags": flags,
            "data_ways": np.asarray(self._data_ways, dtype=np.int64),
            "stats": self.stats.as_dict(),
            "policy": self.policy.state_dict(),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        num_sets, ways = state["geometry"]
        if (int(num_sets), int(ways)) != (self.num_sets, self.ways):
            raise ValueError(
                f"{self.name}: checkpoint geometry {num_sets}x{ways} != "
                f"{self.num_sets}x{self.ways}")
        # One bulk conversion per array, then plain-list indexing:
        # indexing numpy arrays line by line costs a scalar per field.
        blk, pc, owner, ready = (np.asarray(state[k]).tolist()
                                 for k in ("blk", "pc", "owner", "ready"))
        valid, dirty, prefetched, touched = \
            np.asarray(state["flags"]).tolist()
        i = 0
        for row in self.lines:
            for line in row:
                line.blk = blk[i]
                line.pc = pc[i]
                line.owner = owner[i]
                line.ready = ready[i]
                line.valid = valid[i]
                line.dirty = dirty[i]
                line.prefetched = prefetched[i]
                line.pf_touched = touched[i]
                i += 1
        self._data_ways = [int(w) for w in state["data_ways"]]
        self.free_mask = [self._free_mask_of(s)
                          for s in range(self.num_sets)]
        self.tag_index = {line.blk: way
                          for row in self.lines
                          for way, line in enumerate(row) if line.valid}
        self.stats = CacheStats(
            **{k: int(v) for k, v in state["stats"].items()})
        self.policy.load_state(state["policy"])
