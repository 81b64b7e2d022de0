"""Tests for the timing-proxy core model and the engine's stepping."""

import dataclasses
import heapq

import pytest

from repro.prefetchers.stride import StridePrefetcher
from repro.sim.config import SystemConfig
from repro.sim.engine import CoreModel, Engine, run_single
from repro.sim.trace import TraceBuilder

from conftest import chase_trace


def stream_trace(n=2000, stride=64):
    b = TraceBuilder("stream")
    for i in range(n):
        b.add(0x400, 0x10000000 + i * stride, gap=2)
    return b.build()


class TestCoreModel:
    def cfg(self, **kw):
        return SystemConfig().scaled(**kw) if kw else SystemConfig()

    def test_advance_throughput(self):
        m = CoreModel(self.cfg())
        m.advance(5)  # 6 instructions at width 6 = 1 cycle
        assert m.clock == pytest.approx(1.0)
        assert m.instrs == 6

    def test_mlp_limits_overlap(self):
        m = CoreModel(self.cfg(mlp=2))
        for _ in range(3):
            issue = m.issue_time(False)
            m.complete_access(issue, 100.0, False)
        # Third load had to wait for the first to complete.
        assert m.clock >= 100.0

    def test_independent_loads_overlap(self):
        m = CoreModel(self.cfg(mlp=16))
        for _ in range(4):
            m.advance(0)
            issue = m.issue_time(False)
            m.complete_access(issue, 100.0, False)
        m.drain()
        assert m.clock < 200.0  # overlapped, not 400

    def test_dep_loads_serialize(self):
        m = CoreModel(self.cfg(mlp=16))
        for _ in range(4):
            m.advance(0)
            issue = m.issue_time(True)
            m.complete_access(issue, 100.0, False)
        m.drain()
        assert m.clock >= 400.0  # fully serial chain

    def test_stores_do_not_block(self):
        m = CoreModel(self.cfg(mlp=1))
        for _ in range(10):
            issue = m.issue_time(False)
            m.complete_access(issue, 500.0, True)
        assert m.clock < 10.0

    def test_rob_backpressure(self):
        cfg = self.cfg(rob_size=8, mlp=64)
        m = CoreModel(cfg)
        m.advance(0)
        m.complete_access(m.issue_time(False), 1000.0, False)
        # Dispatch far more than the ROB can hold past the stalled load.
        for _ in range(5):
            m.advance(5)
        assert m.clock >= 1000.0

    def test_drain_waits_for_all(self):
        m = CoreModel(self.cfg())
        m.complete_access(0.0, 123.0, False)
        assert m.drain() >= 123.0


class TestRunSingle:
    def test_deterministic(self, tiny_config, chase):
        a = run_single(chase, tiny_config)
        b = run_single(chase, tiny_config)
        assert a.cycles == b.cycles
        assert a.ipc == b.ipc

    def test_ipc_positive_and_bounded(self, tiny_config, chase):
        r = run_single(chase, tiny_config)
        assert 0 < r.ipc <= tiny_config.commit_width

    def test_stride_prefetcher_speeds_up_stream(self, tiny_config):
        t = stream_trace(stride=256)  # 4-block stride: every access misses
        base = run_single(t, tiny_config)
        pf = run_single(t, tiny_config, l1_prefetcher=StridePrefetcher)
        assert pf.ipc > base.ipc
        assert pf.prefetchers[0].useful > 0

    def test_stride_prefetcher_useless_on_chase(self, tiny_config, chase):
        r = run_single(chase, tiny_config,
                       l1_prefetcher=StridePrefetcher)
        assert r.prefetchers[0].issued == 0

    def test_warmup_excluded_from_stats(self, tiny_config, chase):
        r = run_single(chase, tiny_config)
        warm = int(len(chase) * tiny_config.warmup_fraction)
        assert r.accesses == len(chase) - warm
        assert r.instructions < chase.instructions

    def test_multicore_config_coerced_to_one_core(self, chase):
        cfg = SystemConfig(num_cores=4).scaled_down(8)
        r = run_single(chase, cfg)
        assert r.ipc > 0

    def test_result_fields_populated(self, tiny_config, chase):
        r = run_single(chase, tiny_config)
        assert r.workload == chase.name
        assert r.cycles > 0
        assert 0 <= r.l1d_miss_rate <= 1
        assert r.llc_mpki >= 0
        assert r.uncovered_misses > 0  # chase misses a lot


class TestDepTiming:
    def test_dep_chase_slower_than_independent(self, tiny_config):
        dep = chase_trace(dep=True)
        indep = chase_trace(dep=False)
        r_dep = run_single(dep, tiny_config)
        r_ind = run_single(indep, tiny_config)
        assert r_dep.ipc < r_ind.ipc


class TestStepping:
    """The one stepping loop behind ``_step``, ``run_warmup`` and ``run``."""

    def two_cores(self, config):
        # Different lengths: core 0 runs out 2,000 records before core 1.
        return Engine([chase_trace(n=3000), stream_trace(n=5000)], config,
                      l1_prefetcher=StridePrefetcher)

    def test_run_equals_single_steps_with_uneven_traces(self, tiny_config):
        ran = self.two_cores(tiny_config).run()
        stepped = self.two_cores(tiny_config)
        stepped._start()
        steps = 0
        while stepped._step():
            steps += 1
            assert stepped._counts[0] <= 3000
        assert steps == 8000
        assert stepped._counts == ran._counts == [3000, 5000]
        assert not stepped._step()
        assert stepped.collect() == ran.collect()
        assert stepped.bus.counts_flat() == ran.bus.counts_flat()

    def test_warmup_then_run_equals_straight_run(self, tiny_config):
        config = dataclasses.replace(tiny_config, warmup_fraction=0.5)
        fired = {}

        def engine(name):
            e = Engine([chase_trace(n=4000)], config,
                       l1_prefetcher=StridePrefetcher)
            fired[name] = 0
            e.set_mark_hook(500, lambda _: fired.__setitem__(
                name, fired[name] + 1))
            return e

        straight = engine("straight").run()
        split = engine("split").run_warmup()
        assert split.warmed and split._counts == [2000]
        assert fired["split"] == 0
        split.run()
        assert split.collect() == straight.collect()
        assert split.bus.counts_flat() == straight.bus.counts_flat()
        assert fired["split"] == fired["straight"] == 4

    @pytest.mark.parametrize("two_cores", [False, True])
    def test_marks_fire_at_the_same_records_in_both_drive_orders(
            self, tiny_config, two_cores):
        """run() alone and run_warmup() then run() count the same
        measured steps: the record that crosses the last warm-up
        boundary is not one of them."""
        config = dataclasses.replace(tiny_config, warmup_fraction=0.5)
        fired = {}

        def engine(name):
            e = self.two_cores(config) if two_cores else \
                Engine([chase_trace(n=4000)], config)
            fired[name] = []
            e.set_mark_hook(500, lambda e: fired[name].append(
                list(e._counts)))
            return e

        engine("straight").run()
        engine("split").run_warmup().run()
        assert fired["straight"] == fired["split"]
        if not two_cores:
            # Warm-up ends with record 2,000.
            assert fired["straight"] == [[2500], [3000], [3500], [4000]]

    def test_single_core_skips_the_heap(self, tiny_config, chase,
                                        monkeypatch):
        want = run_single(chase, tiny_config)

        def forbidden(*args):
            raise AssertionError("heap used at N=1")
        monkeypatch.setattr(heapq, "heappop", forbidden)
        monkeypatch.setattr(heapq, "heappush", forbidden)
        assert run_single(chase, tiny_config) == want
