"""Interval time-series: periodic snapshots of hierarchy counters.

The :class:`IntervalSampler` subscribes to bus events, accumulates a
configurable set of cumulative counters, and every ``interval`` demand
accesses appends one row to a compact columnar time-series (parallel
lists, one per column — cheap to append, trivial to export).  Nothing is
pushed from the hot path: the demand path publishes the same events it
always did, and the sampler is just one more subscriber.

Pacing is driven by L1D lookups, which fire exactly once per committed
demand access, so "every N accesses" means the same thing for every
configuration of prefetchers.

Two kinds of columns exist:

* **counter deltas** — per-interval differences of bus-event counters
  (misses per level, prefetch issues/fills/hits, metadata traffic);
  their interval sums are conserved: summed over the whole series (the
  final partial interval included) they equal the end-of-run bus/cache
  totals, which ``tests/test_telemetry.py`` asserts per counter.
* **gauges** — values pulled at snapshot time from callables the engine
  registers (metadata-store occupancy, LLC occupancy).  Pull-based, so
  they cost nothing between snapshots.

A per-core access rate (accesses per cycle of that core's local clock —
the IPC proxy: the synthetic traces carry a fixed instruction gap per
access) is always sampled.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..memory.events import EV, EventBus, HierarchyEvent
from .config import TelemetryConfig

#: Counter name -> (event kind, level filter, origin filter); empty
#: string matches any level/origin.  The menu ``TelemetryConfig.counters``
#: selects from.
COUNTER_SPECS: Dict[str, Tuple[str, str, str]] = {
    "l1d_misses": (EV.LOOKUP_MISS, "l1d", ""),
    "l2_misses": (EV.LOOKUP_MISS, "l2", ""),
    "llc_misses": (EV.LOOKUP_MISS, "llc", ""),
    "l1d_hits": (EV.LOOKUP_HIT, "l1d", ""),
    "l2_hits": (EV.LOOKUP_HIT, "l2", ""),
    "llc_hits": (EV.LOOKUP_HIT, "llc", ""),
    "pf_issued": (EV.PREFETCH_ISSUED, "", ""),
    "pf_dropped": (EV.PREFETCH_DROPPED, "", ""),
    "pf_fills": (EV.FILL, "", "prefetch"),
    "pf_useful": (EV.PREFETCH_USEFUL, "", ""),
    "pf_useless": (EV.PREFETCH_USELESS, "", ""),
    "meta_reads": (EV.METADATA_READ, "", ""),
    "meta_writes": (EV.METADATA_WRITE, "", ""),
    "evictions": (EV.EVICTION, "", ""),
    "demand_completes": (EV.DEMAND_COMPLETE, "", ""),
}

Gauge = Callable[[], float]


class IntervalSampler:
    """Columnar per-interval counter snapshots, fed by bus events."""

    def __init__(self, bus: EventBus, config: TelemetryConfig,
                 gauges: Optional[Dict[str, Gauge]] = None):
        unknown = [c for c in config.counters if c not in COUNTER_SPECS]
        if unknown:
            raise ValueError(
                f"unknown telemetry counters {unknown}; "
                f"available: {sorted(COUNTER_SPECS)}")
        self.bus = bus
        self.interval = config.interval
        self.max_intervals = config.max_intervals
        self.counters: Tuple[str, ...] = tuple(config.counters)
        self.gauges: Dict[str, Gauge] = dict(gauges or {})
        self.truncated = False
        # Cumulative counters, reset with the warm-up boundary.
        self._cum: Dict[str, int] = {c: 0 for c in self.counters}
        self._prev: Dict[str, int] = dict(self._cum)
        self._accesses = 0
        self._clock = 0.0
        # Per-core pacing state: accesses and local clock at last snapshot.
        self._core_acc: Dict[int, int] = {}
        self._core_clock: Dict[int, float] = {}
        self._core_prev: Dict[int, Tuple[int, float]] = {}
        # The columnar series.
        self._index: List[int] = []
        self._access_col: List[int] = []
        self._clock_col: List[float] = []
        self._delta_cols: Dict[str, List[int]] = {c: [] for c in self.counters}
        self._gauge_cols: Dict[str, List[float]] = \
            {g: [] for g in self.gauges}
        self._core_rate_cols: Dict[int, List[float]] = {}
        # One handler per counter; its subscription filters by the
        # counter's level and origin.
        self._handlers: List[Tuple[str, Callable[[HierarchyEvent], None]]] = []
        for name in self.counters:
            kind, level, origin = COUNTER_SPECS[name]
            handler = self._make_handler(name)
            self._handlers.append((kind, handler))
            bus.subscribe(kind, handler, level=level, origin=origin)
        # Pacing subscriptions (after the counting ones, so a snapshot
        # taken on an l1d lookup includes that lookup's own count).
        for kind in (EV.LOOKUP_HIT, EV.LOOKUP_MISS):
            self._handlers.append((kind, self._on_l1d_lookup))
            bus.subscribe(kind, self._on_l1d_lookup, level="l1d")

    # -- event side ---------------------------------------------------------

    def _make_handler(self, name: str):
        cum = self._cum

        def handle(ev: HierarchyEvent) -> None:
            cum[name] += 1
        return handle

    def _on_l1d_lookup(self, ev: HierarchyEvent) -> None:
        """Pacing: one L1D lookup == one committed demand access."""
        self._accesses += 1
        if ev.now > self._clock:
            self._clock = ev.now
        core = ev.core_id
        self._core_acc[core] = self._core_acc.get(core, 0) + 1
        prev = self._core_clock.get(core, 0.0)
        if ev.now > prev:
            self._core_clock[core] = ev.now
        if self._accesses % self.interval == 0:
            self._snapshot()

    # -- snapshotting -------------------------------------------------------

    def _snapshot(self) -> None:
        if len(self._index) >= self.max_intervals:
            self.truncated = True
            return
        self._index.append(len(self._index))
        self._access_col.append(self._accesses)
        self._clock_col.append(self._clock)
        for name in self.counters:
            cum = self._cum[name]
            self._delta_cols[name].append(cum - self._prev[name])
            self._prev[name] = cum
        for gname, fn in self.gauges.items():
            self._gauge_cols[gname].append(float(fn()))
        rows_before = len(self._index) - 1
        for core, acc in self._core_acc.items():
            col = self._core_rate_cols.setdefault(core, [])
            while len(col) < rows_before:
                col.append(0.0)  # core appeared mid-series
            prev_acc, prev_clk = self._core_prev.get(core, (0, 0.0))
            clk = self._core_clock.get(core, 0.0)
            dt = clk - prev_clk
            col.append((acc - prev_acc) / dt if dt > 0 else 0.0)
            self._core_prev[core] = (acc, clk)

    def flush(self) -> None:
        """Capture the final partial interval (conservation needs it)."""
        last = self._access_col[-1] if self._access_col else 0
        if self._accesses > last:
            self._snapshot()

    # -- results ------------------------------------------------------------

    @property
    def num_samples(self) -> int:
        return len(self._index)

    def series(self) -> Dict[str, object]:
        """The columnar time-series as plain (picklable/JSON) data."""
        return {
            "interval": self.interval,
            "truncated": self.truncated,
            "index": list(self._index),
            "access": list(self._access_col),
            "clock": list(self._clock_col),
            "counters": {c: list(v) for c, v in self._delta_cols.items()},
            "gauges": {g: list(v) for g, v in self._gauge_cols.items()},
            # Pad cores that went quiet before the series ended.
            "core_rate": {str(c): list(v) + [0.0] * (len(self._index)
                                                     - len(v))
                          for c, v in sorted(self._core_rate_cols.items())},
        }

    def totals(self) -> Dict[str, int]:
        """Cumulative counter values (== summed deltas after flush)."""
        return dict(self._cum)

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Drop everything observed so far (the warm-up boundary)."""
        for name in self.counters:
            self._cum[name] = 0
            self._prev[name] = 0
            self._delta_cols[name].clear()
        self._accesses = 0
        self._clock = 0.0
        self._core_acc.clear()
        self._core_clock.clear()
        self._core_prev.clear()
        self._index.clear()
        self._access_col.clear()
        self._clock_col.clear()
        for col in self._gauge_cols.values():
            col.clear()
        self._core_rate_cols.clear()
        self.truncated = False

    def detach(self) -> None:
        """Unsubscribe every handler (idempotent)."""
        for kind, fn in self._handlers:
            self.bus.unsubscribe(kind, fn)
        self._handlers.clear()

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "truncated": self.truncated,
            "cum": [[c, self._cum[c]] for c in self.counters],
            "prev": [[c, self._prev[c]] for c in self.counters],
            "accesses": self._accesses,
            "clock": self._clock,
            "core_acc": [[c, n] for c, n in self._core_acc.items()],
            "core_clock": [[c, t] for c, t in self._core_clock.items()],
            "core_prev": [[c, a, t]
                          for c, (a, t) in self._core_prev.items()],
            "index": list(self._index),
            "access_col": list(self._access_col),
            "clock_col": list(self._clock_col),
            "delta": [[c, list(self._delta_cols[c])]
                      for c in self.counters],
            "gauge": [[g, list(col)]
                      for g, col in self._gauge_cols.items()],
            "core_rate": [[c, list(col)]
                          for c, col in self._core_rate_cols.items()],
        }

    def load_state(self, state: dict) -> None:
        self.truncated = bool(state["truncated"])
        # The counting handlers close over _cum: mutate it in place.
        for name, v in state["cum"]:
            self._cum[str(name)] = int(v)
        self._prev = {str(name): int(v) for name, v in state["prev"]}
        self._accesses = int(state["accesses"])
        self._clock = float(state["clock"])
        self._core_acc = {int(c): int(n) for c, n in state["core_acc"]}
        self._core_clock = {int(c): float(t)
                            for c, t in state["core_clock"]}
        self._core_prev = {int(c): (int(a), float(t))
                           for c, a, t in state["core_prev"]}
        self._index = [int(i) for i in state["index"]]
        self._access_col = [int(a) for a in state["access_col"]]
        self._clock_col = [float(t) for t in state["clock_col"]]
        self._delta_cols = {str(c): [int(v) for v in col]
                            for c, col in state["delta"]}
        self._gauge_cols = {str(g): [float(v) for v in col]
                            for g, col in state["gauge"]}
        self._core_rate_cols = {int(c): [float(v) for v in col]
                                for c, col in state["core_rate"]}
