"""Per-layer attribution for the traced run.

:class:`Tracer` wraps the public functions of each layer of ``repro``
from outside the program and keeps a span stack.  Every interval of the
traced wall is charged to exactly one span: the one on top of the stack
when the interval elapsed.  A layer's *self* time therefore excludes its
children, and the self times of all spans plus the benchmark's own time
(the ``bench`` root) sum to the traced wall, with nothing counted twice.

The wrappers only observe: they call the original function with the
original arguments and return its result unchanged, so a traced run's
results are identical to an untraced run's (the benchmark checks this).
They see every call only when the jobs run in this process, which is
why the traced run uses a serial ``SimRunner(jobs=1)``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = "bench"
LEVELS = ("l1d", "l2", "llc")
PREFETCHERS = ("stride", "triangel", "streamline")
#: Counts snapshotted around each ``SimJob.execute`` for the design
#: claims: accesses, Streamline trainings, metadata-store lookups.
JOB_KEYS = ("memory.hierarchy.access", "prefetchers.train.streamline",
            "core.metadata_store.lookup")

Observer = Callable[[tuple], Callable[[Any], None]]


class Tracer:
    """Span stack plus call and outcome counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Outcomes counted where the work happens (hits, records, bytes).
        self.counts: Dict[str, float] = defaultdict(float)
        #: (has_streamline, {JOB_KEYS delta}) per executed job.
        self.jobs: List[Tuple[bool, Dict[str, int]]] = []
        self.wall = 0.0
        self._stack: List[Tuple[str, float]] = []
        self._last = 0.0
        self._t0 = 0.0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- the span stack -----------------------------------------------------

    def start(self) -> None:
        self._t0 = self._last = time.perf_counter()
        self._stack = [(ROOT, self._t0)]

    def stop(self) -> None:
        t = time.perf_counter()
        self.self_s[ROOT] += t - self._last
        self.wall = t - self._t0
        self._stack = []

    def enter(self, name: str) -> None:
        t = time.perf_counter()
        stack = self._stack
        self.self_s[stack[-1][0]] += t - self._last
        self._last = t
        stack.append((name, t))
        self.calls[name] += 1

    def leave(self) -> None:
        t = time.perf_counter()
        name, start = self._stack.pop()
        self.self_s[name] += t - self._last
        self.incl_s[name] += t - start
        self._last = t

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner: Any, attr: str,
             name: "str | Callable[[tuple], str]",
             observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attr`` with a spanned call of the original.

        ``name`` is the span name, or a function of the call's arguments
        giving it.  ``observe(args)`` runs inside the span before the
        call and returns a callback that receives the result.
        """
        orig = owner.__dict__[attr]
        enter, leave = self.enter, self.leave
        named = callable(name)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            enter(name(args) if named else name)
            try:
                if observe is None:
                    return orig(*args, **kwargs)
                done = observe(args)
                out = orig(*args, **kwargs)
                done(out)
                return out
            finally:
                leave()

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def install(self) -> None:
        """Wrap every measured layer (see README.md for the map)."""
        from repro.checkpoint.store import CheckpointStore
        from repro.core.metadata_store import StreamStore
        from repro.core.streamline import StreamlinePrefetcher
        from repro.memory.cache import Cache
        from repro.memory.dram import DRAM
        from repro.memory.events import EventBus
        from repro.memory.hierarchy import CoreHierarchy
        from repro.prefetchers.stride import StridePrefetcher
        from repro.prefetchers.triangel import TriangelPrefetcher
        from repro.runner import traces
        from repro.runner.cache import ResultCache
        from repro.runner.jobs import SimJob
        from repro.runner.runner import SimRunner
        from repro.sim.engine import Engine
        from suite import has_streamline

        counts, calls = self.counts, self.calls
        classes = {"stride": StridePrefetcher,
                   "triangel": TriangelPrefetcher,
                   "streamline": StreamlinePrefetcher}
        label = {cls.name: pf for pf, cls in classes.items()}

        def hits(key: str) -> Observer:
            def done(out):
                counts[key] += out is not None
            return lambda args: done

        def cache_op(op: str) -> Callable[[tuple], str]:
            names = {level.upper(): f"memory.cache.{op}.{level}"
                     for level in LEVELS}
            return lambda args: names[args[0].name]

        def cache_hits(args):
            key = f"memory.cache.hits.{args[0].name.lower()}"

            def done(out):
                counts[key] += out.hit
            return done

        def records(args):
            def done(trace):
                counts["workloads.records"] += len(trace)
            return done

        def engine_steps(args, prefetch_stats: bool):
            engine = args[0]
            before = sum(engine._counts)

            def done(out):
                counts["sim.engine.steps"] += sum(engine._counts) - before
                if not prefetch_stats:
                    return
                # The measured region's prefetcher outcomes.
                for pf in engine.uncore.prefetchers.values():
                    name, stats = label[pf.name], pf.stats
                    counts[f"pf.issued.{name}"] += stats.issued
                    counts[f"pf.useful.{name}"] += stats.useful
                    counts[f"pf.dropped.{name}"] += stats.dropped
            return done

        def job_counts(args):
            job = args[0]
            before = [calls[k] for k in JOB_KEYS]

            def done(out):
                self.jobs.append((has_streamline(job), {
                    k: calls[k] - b for k, b in zip(JOB_KEYS, before)}))
            return done

        def ckpt_bytes(args):
            store, key = args[0], args[1]

            def done(out):
                counts["checkpoint.store.bytes"] += \
                    store.path(key).stat().st_size
            return done

        w = self.wrap
        w(traces, "make", "workloads.make", records)
        w(Engine, "__init__", "sim.engine.build")
        w(Engine, "run_warmup", "sim.engine.run",
          lambda args: engine_steps(args, False))
        w(Engine, "run", "sim.engine.run",
          lambda args: engine_steps(args, True))
        w(CoreHierarchy, "access", "memory.hierarchy.access")
        w(CoreHierarchy, "issue_prefetch",
          "memory.hierarchy.issue_prefetch")
        w(EventBus, "publish", "memory.events.publish")
        w(Cache, "lookup", cache_op("lookup"), cache_hits)
        w(Cache, "fill", cache_op("fill"))
        w(DRAM, "access", "memory.dram.access")
        for pf, cls in classes.items():
            w(cls, "train", f"prefetchers.train.{pf}")
        w(StreamStore, "lookup", "core.metadata_store.lookup",
          hits("core.metadata_store.hits"))
        w(StreamStore, "insert", "core.metadata_store.insert")
        w(SimRunner, "run", "runner.run")
        w(SimJob, "execute", "runner.execute", job_counts)
        w(ResultCache, "get", "runner.cache.get",
          hits("runner.cache.hits"))
        w(ResultCache, "put", "runner.cache.put")
        w(CheckpointStore, "get", "checkpoint.store.get")
        w(CheckpointStore, "put", "checkpoint.store.put", ckpt_bytes)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, untraced_wall: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json, name -> (value, unit)."""
    s, c, k = tr.self_s, tr.calls, tr.counts
    accesses = c["memory.hierarchy.access"]
    m: Dict[str, Tuple[float, str]] = {}
    publish = "memory.events.publish"
    m["memory.events.publish_calls"] = (c[publish], "count")
    m["memory.events.publish_per_access"] = (
        _ratio(c[publish], accesses), "calls/acc")
    m["memory.events.publish_self_s"] = (s[publish], "s")
    for level in LEVELS:
        for op in ("lookup", "fill"):
            span = f"memory.cache.{op}.{level}"
            m[f"memory.cache.{op}_calls.{level}"] = (c[span], "count")
            m[f"memory.cache.{op}_s.{level}"] = (s[span], "s")
        m[f"memory.cache.hit_ratio.{level}"] = (_ratio(
            k[f"memory.cache.hits.{level}"],
            c[f"memory.cache.lookup.{level}"]), "ratio")
    for pf in PREFETCHERS:
        span = f"prefetchers.train.{pf}"
        issued, dropped = k[f"pf.issued.{pf}"], k[f"pf.dropped.{pf}"]
        m[f"prefetchers.train_calls.{pf}"] = (c[span], "count")
        m[f"prefetchers.train_s.{pf}"] = (s[span], "s")
        m[f"prefetchers.useful_ratio.{pf}"] = (
            _ratio(k[f"pf.useful.{pf}"], issued), "ratio")
        m[f"prefetchers.drop_ratio.{pf}"] = (
            _ratio(dropped, issued + dropped), "ratio")
    issue = "memory.hierarchy.issue_prefetch"
    m["memory.hierarchy.issue_prefetch_calls"] = (c[issue], "count")
    m["memory.hierarchy.issue_prefetch_s"] = (s[issue], "s")
    for op in ("lookup", "insert"):
        span = f"core.metadata_store.{op}"
        m[f"core.metadata_store.{op}_calls"] = (c[span], "count")
        m[f"core.metadata_store.{op}_s"] = (s[span], "s")
    m["core.metadata_store.hit_ratio"] = (_ratio(
        k["core.metadata_store.hits"],
        c["core.metadata_store.lookup"]), "ratio")
    m["memory.hierarchy.access_calls"] = (accesses, "count")
    m["memory.hierarchy.access_self_s"] = (
        s["memory.hierarchy.access"], "s")
    m["sim.engine.run_self_s"] = (s["sim.engine.run"], "s")
    m["sim.engine.steps"] = (k["sim.engine.steps"], "count")
    m["memory.dram.access_calls"] = (c["memory.dram.access"], "count")
    m["memory.dram.access_s"] = (s["memory.dram.access"], "s")
    m["sim.engine.build_s"] = (s["sim.engine.build"], "s")
    m["workloads.make_s"] = (s["workloads.make"], "s")
    m["workloads.records_per_s"] = (_ratio(
        k["workloads.records"], s["workloads.make"]), "1/s")
    for op in ("get", "put"):
        m[f"checkpoint.store.{op}_s"] = (s[f"checkpoint.store.{op}"], "s")
    m["checkpoint.store.bytes"] = (k["checkpoint.store.bytes"], "B")
    m["runner.overhead_s"] = (
        tr.incl_s["runner.run"] - tr.incl_s["runner.execute"], "s")
    m["runner.run_self_s"] = (s["runner.run"], "s")
    m["runner.execute_self_s"] = (s["runner.execute"], "s")
    for op in ("get", "put"):
        m[f"runner.cache.{op}_s"] = (s[f"runner.cache.{op}"], "s")
    m["runner.cache.hit_ratio"] = (_ratio(
        k["runner.cache.hits"], c["runner.cache.get"]), "ratio")
    m["trace.wall_s"] = (tr.wall, "s")
    m["trace.bench_self_s"] = (s[ROOT], "s")
    m["trace.overhead_ratio"] = (_ratio(tr.wall, untraced_wall), "ratio")
    return m


#: The metrics above that are self times: with ``trace.bench_self_s``
#: they partition ``trace.wall_s``.
SELF_TIME_METRICS = (
    ["memory.events.publish_self_s"]
    + [f"memory.cache.{op}_s.{lv}" for lv in LEVELS
       for op in ("lookup", "fill")]
    + [f"prefetchers.train_s.{pf}" for pf in PREFETCHERS]
    + ["memory.hierarchy.issue_prefetch_s",
       "core.metadata_store.lookup_s", "core.metadata_store.insert_s",
       "memory.hierarchy.access_self_s", "sim.engine.run_self_s",
       "memory.dram.access_s", "sim.engine.build_s", "workloads.make_s",
       "checkpoint.store.get_s", "checkpoint.store.put_s",
       "runner.run_self_s", "runner.execute_self_s",
       "runner.cache.get_s", "runner.cache.put_s",
       "trace.bench_self_s"])
