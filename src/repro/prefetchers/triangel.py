"""Triangel [Ainsworth & Mukhanov, ISCA'24]: the state-of-the-art baseline.

Triangel improves Triage with (1) per-PC confidence that filters
inaccurate metadata and controls degree, (2) a metadata reuse buffer
(MRB) that absorbs LLC metadata traffic, and (3) set-dueling dynamic
partitioning over 9 partition sizes (0-8 LLC ways).  Uncompressed 31-bit
targets give 12 correlations per block.

The confidence machinery follows the paper's structure functionally:

* a **history sampler (HS)** samples correlations and measures, per PC,
  *reuse* confidence (is the correlation looked at again before it falls
  out of the sampler?) and *pattern* confidence (does the trigger keep
  producing the same target?);
* a **second-chance sampler (SCS)** catches reordered reuse the HS
  already evicted;
* per-PC counters gate metadata insertion (low reuse -> bypass, which is
  why Triangel wins on mcf's scan PCs) and set the prefetch degree.

Resizing keeps the paper's defining cost: each resize re-indexes the
store and the moved blocks are charged as rearrangement traffic
(Section III-C2), which is what Streamline's filtered indexing removes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..memory.events import EV
from ..memory.metadata_store import PartitionController
from .base import Prefetcher, TRAIN_SCOPE_TEMPORAL
from .pairwise import PairwiseStore


@dataclass
class _PCState:
    """Triangel's per-PC training-unit entry."""

    last1: int = -1
    last2: int = -1
    reuse_conf: int = 8     # 0..15, starts neutral
    pattern_conf: int = 8   # 0..15
    sample_tick: int = 0

    def degree(self, max_degree: int) -> int:
        if self.pattern_conf >= 12:
            return max_degree
        if self.pattern_conf >= 10:
            return 2
        if self.pattern_conf >= 8:
            return 1
        return 0

    @property
    def can_store(self) -> bool:
        return self.reuse_conf >= 6

    @property
    def lookahead(self) -> bool:
        """Correlate with the second-to-last address for timeliness."""
        return self.pattern_conf >= 13


class _DuelingPartitioner:
    """Set-dueling over 9 partition sizes (0..8 metadata ways).

    Data utility comes from shadow-LRU stack distances on sampled LLC
    sets: an access at stack distance ``d`` would hit every configuration
    with at least ``d+1`` data ways.  Metadata utility comes from shadow
    stores scaled to each candidate size.  Every epoch the best combined
    score wins.
    """

    SAMPLE_EVERY = 16

    def __init__(self, llc_sets: int, llc_ways: int, max_meta_ways: int,
                 entries_per_block: int):
        self.llc_sets = llc_sets
        self.llc_ways = llc_ways
        self.max_meta_ways = max_meta_ways
        self.sizes = list(range(max_meta_ways + 1))
        self._shadow_lru: Dict[int, "OrderedDict[int, bool]"] = {}
        cap_unit = llc_sets * entries_per_block // self.SAMPLE_EVERY
        self._shadow_meta: List["OrderedDict[int, int]"] = [
            OrderedDict() for _ in self.sizes]
        self._meta_caps = [max(1, m * cap_unit) for m in self.sizes]
        self.scores = [0.0] * len(self.sizes)

    def observe_data(self, blk: int, set_idx: Optional[int] = None
                     ) -> None:
        if set_idx is None:
            set_idx = blk & (self.llc_sets - 1)
        if set_idx % self.SAMPLE_EVERY:
            return
        lru = self._shadow_lru.setdefault(set_idx, OrderedDict())
        if blk in lru:
            distance = 0
            for b in reversed(lru):
                if b == blk:
                    break
                distance += 1
            lru.move_to_end(blk)
            for i, meta_ways in enumerate(self.sizes):
                if distance < self.llc_ways - meta_ways:
                    self.scores[i] += 16
        else:
            lru[blk] = True
            if len(lru) > self.llc_ways:
                lru.popitem(last=False)

    def observe_correlation(self, trigger: int, target: int) -> None:
        if trigger % self.SAMPLE_EVERY:
            return
        for i, shadow in enumerate(self._shadow_meta):
            if i == 0:
                continue  # 0 ways stores nothing
            hit = shadow.get(trigger)
            if hit is not None and hit == target:
                self.scores[i] += 16  # Triangel weights all hits equally
            shadow[trigger] = target
            shadow.move_to_end(trigger)
            if len(shadow) > self._meta_caps[i]:
                shadow.popitem(last=False)

    def best_size(self) -> int:
        best = max(range(len(self.sizes)), key=lambda i: self.scores[i])
        self.scores = [0.0] * len(self.sizes)
        return self.sizes[best]

    def state_dict(self) -> Dict[str, object]:
        return {
            "shadow_lru": [[set_idx, list(lru)]
                           for set_idx, lru in self._shadow_lru.items()],
            "shadow_meta": [[[t, tgt] for t, tgt in shadow.items()]
                            for shadow in self._shadow_meta],
            "scores": list(self.scores),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self._shadow_lru = {}
        for set_idx, blks in state["shadow_lru"]:
            self._shadow_lru[int(set_idx)] = OrderedDict(
                (int(b), True) for b in blks)
        self._shadow_meta = [
            OrderedDict((int(t), int(tgt)) for t, tgt in pairs)
            for pairs in state["shadow_meta"]]
        self.scores = [float(s) for s in state["scores"]]


class TriangelPrefetcher(Prefetcher):
    """The full Triangel baseline."""

    name = "triangel"
    level = "l2"
    train_scope = TRAIN_SCOPE_TEMPORAL

    def __init__(self, degree: int = 4, max_ways: int = 8,
                 initial_ways: int = 4, resize_epoch: int = 20_000,
                 hs_size: int = 128, scs_size: int = 128,
                 sample_rate: int = 256, mrb_blocks: int = 32,
                 adaptive: bool = True, dedicated: bool = False,
                 replacement: str = "srrip"):
        super().__init__()
        if replacement not in ("srrip", "tp-mockingjay"):
            raise ValueError("replacement must be srrip or tp-mockingjay")
        self.degree = degree
        self.max_ways = max_ways
        self.initial_ways = initial_ways
        self.resize_epoch = resize_epoch
        self.hs_size = hs_size
        self.scs_size = scs_size
        self.sample_rate = sample_rate
        self.mrb_blocks = mrb_blocks
        self.adaptive = adaptive
        self.dedicated = dedicated
        self.replacement = replacement
        self._pcs: "OrderedDict[int, _PCState]" = OrderedDict()
        self._hs: "OrderedDict[int, tuple]" = OrderedDict()
        self._scs: "OrderedDict[int, tuple]" = OrderedDict()
        self.store: Optional[PairwiseStore] = None
        self.controller: Optional[PartitionController] = None
        self.partitioner: Optional[_DuelingPartitioner] = None
        self._accesses = 0
        self.bypassed_inserts = 0
        self._duel_bus = None  # the bus holding our dueling handler

    def attach(self, hier) -> None:
        llc = hier.uncore.llc
        cores = hier.uncore.num_cores
        own_sets = llc.num_sets // cores
        self.controller = PartitionController(
            None if self.dedicated else llc,
            max_bytes=self.max_ways * own_sets * 64,
            stripe_offset=hier.core_id, stripe_step=cores)
        self.store = PairwiseStore(
            own_sets, self.controller, entries_per_block=12,
            max_ways=self.max_ways, mrb_blocks=self.mrb_blocks,
            compressed=False)
        self.store.resize(self.initial_ways)
        if not self.dedicated:
            self.controller.apply_way_partition(self.initial_ways)
        self.partitioner = _DuelingPartitioner(
            own_sets, llc.ways, self.max_ways, 12)
        # Set dueling is an LLC-side mechanism: it observes every core's
        # demand traffic to this core's stripe, and keeps epochs moving
        # even when this core itself rarely misses in the L2.
        self._stripe = (hier.core_id, cores)
        self._duel_events = 0
        if self.adaptive and not self.dedicated:
            hier.bus.subscribe(EV.ACCESS, self._on_llc_demand,
                               origin="demand")
            self._duel_bus = hier.bus

    def detach(self, hier) -> None:
        if self._duel_bus is not None:
            self._duel_bus.unsubscribe(EV.ACCESS, self._on_llc_demand)
            self._duel_bus = None

    def _on_llc_demand(self, ev) -> None:
        blk = ev.blk
        offset, step = self._stripe
        llc_set = blk % (self.partitioner.llc_sets * step)
        if llc_set % step != offset:
            return
        self.partitioner.observe_data(blk, set_idx=llc_set // step)
        self._duel_events += 1
        if self._duel_events >= self.resize_epoch:
            self._duel_events = 0
            ways = self.partitioner.best_size()
            if ways != self.store.ways:
                self.store.resize(ways)  # charges rearrangement traffic
                self.controller.apply_way_partition(ways)

    # -- training-unit state --------------------------------------------------

    def _pc_state(self, pc: int) -> _PCState:
        st = self._pcs.get(pc)
        if st is None:
            if len(self._pcs) >= 256:
                self._pcs.popitem(last=False)
            st = _PCState()
            self._pcs[pc] = st
        else:
            self._pcs.move_to_end(pc)
        return st

    # -- confidence sampling -----------------------------------------------------

    def _sample(self, pc: int, st: _PCState, trigger: int,
                target: int) -> None:
        """Feed the HS/SCS with this correlation and update confidences."""
        entry = self._hs.get(trigger)
        if entry is not None:
            old_target, old_pc, _ = entry
            owner = self._pcs.get(old_pc)
            if owner is not None:
                if old_target == target:
                    # Asymmetric update: a repeated correlation is strong
                    # evidence, one divergence is weak (streams with a few
                    # multi-successor triggers should still prefetch).
                    owner.pattern_conf = min(15, owner.pattern_conf + 2)
                else:
                    owner.pattern_conf = max(0, owner.pattern_conf - 1)
                owner.reuse_conf = min(15, owner.reuse_conf + 1)
            self._hs[trigger] = (target, pc, True)
            self._hs.move_to_end(trigger)
            return
        scs_entry = self._scs.pop(trigger, None)
        if scs_entry is not None:
            _, old_pc, _ = scs_entry
            owner = self._pcs.get(old_pc)
            if owner is not None:  # reordered reuse: partial credit
                owner.reuse_conf = min(15, owner.reuse_conf + 1)
        st.sample_tick += 1
        if st.sample_tick % self.sample_rate:
            return
        self._hs[trigger] = (target, pc, False)
        if len(self._hs) > self.hs_size:
            old_trigger, (t, p, used) = self._hs.popitem(last=False)
            if not used:
                owner = self._pcs.get(p)
                if owner is not None:
                    owner.reuse_conf = max(0, owner.reuse_conf - 1)
                self._scs[old_trigger] = (t, p, False)
                if len(self._scs) > self.scs_size:
                    self._scs.popitem(last=False)

    # -- main hook -------------------------------------------------------------

    def train(self, pc: int, blk: int, hit: bool, prefetch_hit: bool,
              now: float) -> List[int]:
        self._accesses += 1
        before = self.controller.traffic.total_accesses
        st = self._pc_state(pc)

        trigger = st.last2 if st.lookahead and st.last2 >= 0 else st.last1
        if trigger >= 0 and trigger != blk:
            self._sample(pc, st, trigger, blk)
            self.partitioner.observe_correlation(trigger, blk)
            if st.can_store:
                self.store.insert(trigger, blk)
            else:
                self.bypassed_inserts += 1
        st.last2, st.last1 = st.last1, blk

        candidates: List[int] = []
        degree = st.degree(self.degree)
        cur = blk
        for _ in range(degree):
            target = self.store.lookup(cur)
            if target is None:
                break
            candidates.append(target)
            cur = target
        delta = self.controller.traffic.total_accesses - before
        for _ in range(delta):
            self.hier.metadata_access(now)
        return candidates

    def finalize(self, now: float) -> None:
        if self.store is not None:
            self.store.flush_mrb()

    # -- checkpointing -------------------------------------------------------

    def state_dict(self):
        state = super().state_dict()
        state["pcs"] = [
            [pc, st.last1, st.last2, st.reuse_conf, st.pattern_conf,
             st.sample_tick]
            for pc, st in self._pcs.items()]
        state["hs"] = [[trigger, t, p, used]
                       for trigger, (t, p, used) in self._hs.items()]
        state["scs"] = [[trigger, t, p, used]
                        for trigger, (t, p, used) in self._scs.items()]
        state["store"] = self.store.state_dict()
        state["controller"] = self.controller.state_dict()
        state["partitioner"] = self.partitioner.state_dict()
        state["accesses"] = self._accesses
        state["bypassed_inserts"] = self.bypassed_inserts
        state["duel_events"] = self._duel_events
        return state

    def load_state(self, state) -> None:
        super().load_state(state)
        self._pcs = OrderedDict()
        for pc, last1, last2, reuse, pattern, tick in state["pcs"]:
            self._pcs[int(pc)] = _PCState(
                last1=int(last1), last2=int(last2), reuse_conf=int(reuse),
                pattern_conf=int(pattern), sample_tick=int(tick))
        self._hs = OrderedDict(
            (int(trigger), (int(t), int(p), bool(used)))
            for trigger, t, p, used in state["hs"])
        self._scs = OrderedDict(
            (int(trigger), (int(t), int(p), bool(used)))
            for trigger, t, p, used in state["scs"])
        self.store.load_state(state["store"])
        self.controller.load_state(state["controller"])
        self.partitioner.load_state(state["partitioner"])
        self._accesses = int(state["accesses"])
        self.bypassed_inserts = int(state["bypassed_inserts"])
        self._duel_events = int(state["duel_events"])
