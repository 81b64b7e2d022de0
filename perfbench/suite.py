"""The benchmark's four workloads, as seeded ``SimJob`` batches.

Each workload turns a seed into a list of labelled jobs through the
public ``repro.runner.SimJob`` API on the default path: the scaled
Table II system of the experiments, no fast path, no telemetry.  The
seed is the trace seed of every job, and for ``mix-4c`` it also draws
the mixes.  Labels name a job independently of its fingerprint, so the
pinned digests in ``expected/`` survive a change of the canonical job
form that leaves the simulated results alone.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: (label, SimJob) pairs in submission order.
Batch = List[Tuple[str, object]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Trace length per core of every job in the batch.
    n: int
    build: Callable[[int, int], Batch]


# -- job matrices --------------------------------------------------------------

TEMPORAL = ("06.omnetpp", "06.mcf", "gap.pr")
REGULAR = ("06.lbm", "06.libquantum", "17.bwaves")
#: mix-4c draws two cores from each pool.  Both pools hold
#: memory-intensive workloads of similar per-access host cost, so the
#: seed changes which traces share the LLC, not how heavy the mix is.
MIX_IRREGULAR = ("06.omnetpp", "06.mcf", "gap.pr", "06.xalancbmk",
                 "17.xalancbmk", "17.mcf")
MIX_REGULAR = ("17.bwaves", "06.milc", "06.GemsFDTD", "17.roms")
MIX_COUNT = 2
SWEEP = ("gap.pr", "06.omnetpp", "06.mcf")
SWEEP_DEGREES = (1, 2, 4, 8)


def _configs(names):
    from repro.runner import spec
    table = {"stride": (),
             "stride+triangel": (spec("triangel"),),
             "stride+streamline": (spec("streamline"),)}
    return [(name, table[name]) for name in names]


def _single_matrix(workloads, configs, n: int, seed: int) -> Batch:
    from repro.experiments.common import experiment_config
    from repro.runner import SimJob, spec
    cfg, l1 = experiment_config(), spec("stride")
    return [(f"{wl}/{name}",
             SimJob.single(wl, n, cfg, l1=l1, l2=l2, seed=seed))
            for wl in workloads for name, l2 in _configs(configs)]


def temporal_1c(n: int, seed: int) -> Batch:
    return _single_matrix(
        TEMPORAL, ("stride", "stride+triangel", "stride+streamline"),
        n, seed)


def regular_1c(n: int, seed: int) -> Batch:
    return _single_matrix(REGULAR, ("stride", "stride+streamline"),
                          n, seed)


def mixes(seed: int) -> List[List[str]]:
    """The seed's 4-core mixes: two irregular and two regular cores
    each, in a seeded core order."""
    rng = random.Random(seed)
    out = []
    for _ in range(MIX_COUNT):
        mix = rng.sample(MIX_IRREGULAR, 2) + rng.sample(MIX_REGULAR, 2)
        rng.shuffle(mix)
        out.append(mix)
    return out


def mix_4c(n: int, seed: int) -> Batch:
    from repro.experiments.common import experiment_config
    from repro.runner import SimJob, spec
    cfg, l1 = experiment_config(num_cores=4), spec("stride")
    return [(f"mix{i}:{'+'.join(mix)}/{name}",
             SimJob.multi(mix, n, cfg, l1=l1, l2=l2, seed=seed))
            for i, mix in enumerate(mixes(seed))
            for name, l2 in _configs(("stride", "stride+streamline"))]


def sweep_cached(n: int, seed: int) -> Batch:
    """A resumable Streamline degree sweep: every point of a workload
    shares one warm-up snapshot (half the trace), so the cold pass
    exercises checkpoint put/get and the runner's prewarm."""
    from repro.experiments.common import experiment_config
    from repro.runner import SimJob, spec
    cfg = dataclasses.replace(experiment_config(), warmup_fraction=0.5)
    l1 = spec("stride")
    l2 = (spec("streamline", stability_degree=False),)
    return [(f"{wl}/degree={d}",
             SimJob.single(wl, n, cfg, l1=l1, l2=l2, seed=seed,
                           measure_overrides=(("degree", d),),
                           resume=True))
            for wl in SWEEP for d in SWEEP_DEGREES]


#: Why each workload was chosen: README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("temporal-1c", 12_000, temporal_1c),
    Workload("regular-1c", 20_000, regular_1c),
    Workload("mix-4c", 6_000, mix_4c),
    Workload("sweep-cached", 4_000, sweep_cached),
)}


def records(jobs) -> int:
    """Trace records a cold batch of the jobs simulates across all
    cores, warm-up included.  Resumable jobs that share a warm-up
    simulate it once, in the runner's prewarm, and each restores it, so
    such a warm-up counts once and the restores count nothing."""
    total = 0
    warmups = set()
    for job in jobs:
        cores = len(job.workloads)
        total += job.n * cores
        if job.resume:
            warm = int(job.n * job.config.warmup_fraction) * cores
            if job.warmup_fingerprint() in warmups:
                total -= warm
            warmups.add(job.warmup_fingerprint())
    return total


def has_streamline(job) -> bool:
    return any(s.name == "streamline" for s in job.l2)
