"""The memory request that flows through the hierarchy's level chain.

A :class:`MemoryRequest` is created once per demand access (and once per
prefetch issue) and threaded through the generic
:class:`~repro.memory.hierarchy.CacheLevel` chain.  Each level appends a
:class:`LevelOutcome` and adds its latency contribution, so by the time
the request returns to the core the full per-level history of the access
is available — which level hit, whether the line was prefetched and by
whom, and how much latency each level charged.  Observers on the
:class:`~repro.memory.events.EventBus` receive the same information as
events; the request object is what ties one access's events together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

#: Request origins.  ``WRITEBACK`` and ``METADATA`` never build full
#: requests today; they appear as event origins on the bus.
DEMAND = "demand"
PREFETCH = "prefetch"
WRITEBACK = "writeback"
METADATA = "metadata"

ORIGINS = (DEMAND, PREFETCH, WRITEBACK, METADATA)


@dataclass(init=False)
class LevelOutcome:
    """What one cache level did with a request."""

    __slots__ = ("level", "hit", "was_prefetched", "owner", "latency")

    level: str                    # "l1d" | "l2" | "llc"
    hit: bool
    was_prefetched: bool          # first demand touch of a prefetched line
    owner: int                    # prefetcher that brought the line in
    latency: float                # this level's latency contribution

    def __init__(self, level: str, hit: bool, was_prefetched: bool = False,
                 owner: int = -1, latency: float = 0.0) -> None:
        self.level = level
        self.hit = hit
        self.was_prefetched = was_prefetched
        self.owner = owner
        self.latency = latency


@dataclass(init=False)
class MemoryRequest:
    """One access flowing down (and back up) the hierarchy.

    ``now`` is the cycle the core issued the access; ``latency`` is the
    accumulated load-to-use latency so far, so ``clock`` is the cycle at
    which the request is acting at the current level.
    """

    __slots__ = ("pc", "addr", "blk", "is_write", "origin", "core_id",
                 "now", "latency", "owner", "outcomes")

    pc: int
    addr: int
    blk: int
    is_write: bool
    origin: str
    core_id: int
    now: float
    latency: float
    owner: int                    # issuing prefetcher (prefetch origin)
    outcomes: List[LevelOutcome]

    def __init__(self, pc: int, addr: int, blk: int, is_write: bool,
                 origin: str, core_id: int, now: float,
                 latency: float = 0.0, owner: int = -1,
                 outcomes: Optional[List[LevelOutcome]] = None) -> None:
        self.pc = pc
        self.addr = addr
        self.blk = blk
        self.is_write = is_write
        self.origin = origin
        self.core_id = core_id
        self.now = now
        self.latency = latency
        self.owner = owner
        self.outcomes = [] if outcomes is None else outcomes

    @property
    def clock(self) -> float:
        """The cycle at which the request currently stands."""
        return self.now + self.latency

    def outcome(self, level: str) -> Optional[LevelOutcome]:
        """The recorded outcome at ``level``, if the request got there."""
        for out in self.outcomes:
            if out.level == level:
                return out
        return None
