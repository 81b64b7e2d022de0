"""Golden ledger: pinned results and job keys for the engine.

Each case below is simulated on the default engine path and compared
with ``tests/data/golden_results.json``, which pins three things:

* ``digest`` — sha256 of the canonical JSON of the run's
  ``dataclasses.asdict(SimResult)`` (every core's, for a multi-core
  mix) plus its bus counters (``EventBus.counts_flat()``), so any
  change to a simulated number or to event accounting shows up; a
  telemetry case also digests ``engine.telemetry.export()`` (the
  interval series and per-core prefetch-lifecycle counts);
* ``fingerprint`` — ``SimJob.fingerprint()``, the result-cache key;
* ``warmup_fingerprint`` — ``SimJob.warmup_fingerprint()``, the
  warm-up checkpoint key.

Unlike the path-A-equals-path-B checks elsewhere in the suite, these
are absolute: a change that alters every path alike still fails here.
The ledger is rewritten only on request, with
``python -m pytest tests/test_golden.py --update-golden``; a rewrite
changes published results or invalidates caches, so say why in the
change that commits it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.checkpoint import dump, load
from repro.runner import SimJob
from repro.sim.config import SystemConfig
from repro.telemetry.config import TelemetryConfig

LEDGER = pathlib.Path(__file__).parent / "data" / "golden_results.json"

N = 5000
SEED = 42

CONFIGS = {"none": (None, ()), "stride": ("stride", ()),
           "stride+streamline": ("stride", ("streamline",))}


def _cases():
    cases = {}
    for workload in ("gap.pr", "06.mcf", "06.lbm"):
        for label, (l1, l2) in CONFIGS.items():
            cases[f"{workload}/{label}"] = dict(workload=workload, l1=l1,
                                                l2=l2)
    for label in ("none", "stride+streamline"):
        l1, l2 = CONFIGS[label]
        cases[f"gap.pr/{label}/telemetry"] = dict(
            workload="gap.pr", l1=l1, l2=l2, telemetry=True)
    # Per-core lifecycle attribution over a shared LLC.
    cases["mix2:gap.pr+06.lbm/stride+streamline/telemetry"] = dict(
        workloads=("gap.pr", "06.lbm"), l1="stride", l2=("streamline",),
        telemetry=True)
    cases["17.xalancbmk/triangel"] = dict(workload="17.xalancbmk",
                                          l1=None, l2=("triangel",))
    cases["gap.pr/streamline/resumed"] = dict(
        workload="gap.pr", l1=None, l2=("streamline",), resume=True)
    # The remaining prefetch paths: Triage resizes the LLC metadata
    # partition (set_data_ways); Berti prefetches into the L1D through
    # the L2 probe of issue_prefetch; IPCP, SPP-PPF and Bingo train on
    # every L2 access, fill the L2 and evict unused prefetches.
    cases["gap.pr/stride+triage"] = dict(workload="gap.pr", l1="stride",
                                         l2=("triage",))
    cases["06.mcf/berti"] = dict(workload="06.mcf", l1="berti", l2=())
    # Under an L2 prefetcher some Berti candidates already sit in the
    # L2, so the L1 prefetch is served from there.
    cases["06.lbm/berti+ipcp"] = dict(workload="06.lbm", l1="berti",
                                      l2=("ipcp",))
    for workload, l2 in (("06.lbm", "ipcp"), ("17.xalancbmk", "spp-ppf"),
                         ("gap.pr", "bingo")):
        cases[f"{workload}/stride+{l2}"] = dict(workload=workload,
                                                l1="stride", l2=(l2,))
    # Shared-LLC mixes: per-core event routing (trainers see only their
    # own core) and LLC-side dueling over every core's demand traffic.
    for mix in (("gap.pr", "06.lbm"),
                ("06.mcf", "17.bwaves", "gap.pr", "06.milc")):
        for label in ("stride", "stride+streamline"):
            l1, l2 = CONFIGS[label]
            cases[f"mix{len(mix)}:{'+'.join(mix)}/{label}"] = dict(
                workloads=mix, l1=l1, l2=l2)
    return cases


CASES = _cases()


def make_job(case) -> SimJob:
    telemetry = TelemetryConfig(interval=500) \
        if case.get("telemetry") else None
    config = dataclasses.replace(SystemConfig().scaled_down(4),
                                 warmup_fraction=0.5, telemetry=telemetry)
    if "workloads" in case:
        return SimJob.multi(case["workloads"], N, config, l1=case["l1"],
                            l2=case["l2"], seed=SEED)
    return SimJob.single(case["workload"], N, config, l1=case["l1"],
                         l2=case["l2"], seed=SEED,
                         resume=case.get("resume", False))


def simulate(job: SimJob, snapshot_dir: pathlib.Path):
    """Run ``job`` on a fresh engine; a resuming job first warms up one
    engine, round-trips its snapshot through the on-disk format, and
    measures on a second engine restored from it.  Returns the single
    core's SimResult, or every core's for a multi-core job, the bus
    counters, and the telemetry export (None with telemetry off)."""
    engine = job._build_engine()
    if job.resume:
        engine.run_warmup()
        path = str(snapshot_dir / "warm.npz")
        dump(path, engine.state_dict(), {})
        _, state = load(path)
        engine = job._build_engine()
        engine.load_state(state)
    results = engine.run().collect()
    result = results if job.kind == "multi" else results[0]
    telemetry = engine.telemetry.export() \
        if engine.telemetry is not None else None
    return result, engine.bus.counts_flat(), telemetry


def digest(result, counts, telemetry=None) -> str:
    if isinstance(result, list):
        fields = [dataclasses.asdict(r) for r in result]
    else:
        fields = dataclasses.asdict(result)
    payload = {"result": fields, "events": counts}
    if telemetry is not None:
        payload["telemetry"] = telemetry
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def read_ledger():
    return json.loads(LEDGER.read_text()) if LEDGER.exists() else {}


def write_ledger(ledger) -> None:
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_ledger(name, tmp_path, update_golden):
    job = make_job(CASES[name])
    entry = {"digest": digest(*simulate(job, tmp_path)),
             "fingerprint": job.fingerprint(),
             "warmup_fingerprint": job.warmup_fingerprint()}
    if update_golden:
        ledger = read_ledger()
        ledger[name] = entry
        write_ledger(ledger)
    assert entry == read_ledger().get(name)


def test_ledger_has_no_stale_cases(update_golden):
    ledger = read_ledger()
    if update_golden:
        write_ledger({k: v for k, v in ledger.items() if k in CASES})
        ledger = read_ledger()
    assert sorted(ledger) == sorted(CASES)
