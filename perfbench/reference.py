"""Samples how fast the host runs while a batch is being timed.

On a small shared host the speed of a CPU drifts by tens of percent,
often switching every few seconds, with the load of whatever shares its
core and caches.  CPU time does not hide that drift: an instruction
simply takes longer.  :class:`HostClock` measures it where the batch
runs: every ``PERIOD_S`` of this process's CPU time a ``SIGPROF``
handler times one slice of a fixed pure-Python walk of the same kind as
the simulator's inner loop (LRU updates of set-associative tag arrays,
one inside the core's own caches and one over a 10 MB table).  The
batch's rate times the mean slice time is how fast the program is, in
simulated accesses per slice, and the two drift together.

The walk is part of the benchmark, not of the program, so no change to
the program can change what a slice costs.  The handler only runs the
walk and appends to a list: it never touches the program's state, and
the benchmark checks that every result is unchanged.  Slices take about
1.5% of a batch's CPU time, which the benchmark subtracts.  Set-up
probes run the clock too, more often, to scale their CPU time.
"""

from __future__ import annotations

import contextlib
import signal
import time
from typing import Iterator, List

#: Blocks of the walk's table, and sets of its two tag arrays.
BLOCKS = 1 << 18
SETS = (256, 4096)
WAYS = 8
#: Steps of the walk per slice: about 0.4 ms on its own, 0.6-0.9 ms
#: between the simulator's work on a 2-vCPU cloud VM.
STEPS = 300
#: CPU seconds of this process between slices.
PERIOD_S = 0.05


class HostClock:
    """The walk's state, which persists from slice to slice, and the
    slice times of the current sampling window."""

    def __init__(self) -> None:
        self.tags = [[[-1] * WAYS for _ in range(sets)] for sets in SETS]
        self.words = [i * 7 + 1_000_003 for i in range(BLOCKS)]
        self.x = 12345
        self.total = 0
        self.samples: List[float] = []

    def slice(self) -> None:
        """Run ``STEPS`` steps of the walk."""
        x, total, words = self.x, self.total, self.words
        arrays = tuple(zip(self.tags, SETS))
        for _ in range(STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            block = (x >> 4) & (BLOCKS - 1)
            total += words[block]
            for tags, sets in arrays:
                row = tags[block & (sets - 1)]
                tag = block // sets
                if tag in row:
                    row.remove(tag)
                else:
                    row.pop()
                row.insert(0, tag)
        self.x, self.total = x, total & 0xFFFF

    def _tick(self, signum, frame) -> None:
        t0 = time.thread_time()
        self.slice()
        self.samples.append(time.thread_time() - t0)

    @contextlib.contextmanager
    def sampling(self, period_s: float = PERIOD_S
                 ) -> Iterator[List[float]]:
        """Time a slice every ``period_s`` of CPU inside the block;
        yields the list the slice times are appended to.  A block too
        short for one tick gets one slice at its end."""
        self.samples = []
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, period_s, period_s)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
            if not self.samples:
                self._tick(signal.SIGPROF, None)
