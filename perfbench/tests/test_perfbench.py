"""Self-test of the benchmark at a tiny trace length.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

It checks that a corrupted pinned digest is reported as a failure, that
a seed without pins is still checked against the default seed's pins,
that the traced run's results equal the untraced run's, and that the
metric names a run prints are those declared in ``BENCHMARK.json``
(plus the three it prints but does not report).
"""

import dataclasses
import json
import os
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import pins  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402

N = 400
SEED = 5
#: Printed with their units but not reported in the JSON result.
PRINTED_ONLY = {"sim_acc_per_s": "acc/s", "warm_jobs_per_s": "jobs/s",
                "failed_frac": "ratio"}
#: A metric line: name, value, unit.
METRIC_LINE = re.compile(r"^([A-Za-z0-9][\w.\-]*)\s+(\S+)\s+(\S+)")


@pytest.fixture(autouse=True)
def quick(monkeypatch, tmp_path):
    """Tiny batches, pins in a temporary directory, one cold batch, two
    warm passes and one set-up probe per run; the benchmark's
    environment isolation is undone afterwards."""
    for name, workload in suite.WORKLOADS.items():
        monkeypatch.setitem(suite.WORKLOADS, name,
                            dataclasses.replace(workload, n=N))
    monkeypatch.setattr(pins, "EXPECTED_DIR", tmp_path / "expected")
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "WARM_PASSES", 2)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)
    try:
        run.SCRATCH.rmdir()
    except OSError:
        pass


def bench(capsys, *argv):
    """(exit code, printed lines) of one benchmark run."""
    code = run.main(["--seconds", "0", *argv])
    return code, capsys.readouterr().out.strip().splitlines()


def result(lines):
    return json.loads(lines[-1])


def pin(capsys, workload, seed):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--regen-pins", "self-test"]) == 0
    capsys.readouterr()


def corrupt(workload, seed):
    path = pins.EXPECTED_DIR / f"{workload}.json"
    data = json.loads(path.read_text())
    jobs = data["seeds"][str(seed)]["jobs"]
    jobs[sorted(jobs)[0]] = "0" * 64
    path.write_text(json.dumps(data))


def test_corrupted_pin_is_a_failure(capsys):
    args = ("--workload", "temporal-1c", "--seed", str(SEED))
    pin(capsys, "temporal-1c", SEED)
    code, lines = bench(capsys, *args)
    assert code == 0 and result(lines)["correct"]
    assert result(lines)["failed"] == 0

    corrupt("temporal-1c", SEED)
    code, lines = bench(capsys, *args)
    assert code == 1
    assert not result(lines)["correct"]
    # The corrupted job fails in the cold batch and every warm pass.
    assert result(lines)["failed"] == 1 + run.WARM_PASSES
    assert 0 < result(lines)["failed"] < result(lines)["attempted"]


def test_unpinned_seed_checks_the_default_seed(capsys):
    args = ("--workload", "sweep-cached", "--seed", str(SEED))
    code, lines = bench(capsys, *args)
    assert code == 1 and not result(lines)["correct"]
    assert any("is not pinned" in line for line in lines)

    pin(capsys, "sweep-cached", run.DEFAULT_SEED)
    code, lines = bench(capsys, *args)
    assert code == 0 and result(lines)["correct"]
    jobs = len(suite.WORKLOADS["sweep-cached"].build(N, SEED))
    # Cold batch, warm passes, then the default seed's batch.
    assert result(lines)["attempted"] == jobs * (2 + run.WARM_PASSES)

    corrupt("sweep-cached", run.DEFAULT_SEED)
    code, lines = bench(capsys, *args)
    assert code == 1 and result(lines)["failed"] == 1


def test_traced_results_equal_untraced(capsys):
    pin(capsys, "sweep-cached", SEED)
    code, lines = bench(capsys, "--workload", "sweep-cached", "--seed",
                        str(SEED), "--trace", "1")
    # Untraced and traced serial passes, cold and warm each, all equal
    # to the pins; the self times account for the traced wall.
    assert code == 0 and result(lines)["correct"]
    assert result(lines)["failed"] == 0
    jobs = len(suite.WORKLOADS["sweep-cached"].build(N, SEED))
    assert result(lines)["attempted"] == 4 * jobs
    metrics = result(lines)["metrics"]
    assert metrics["memory.hierarchy.access_calls"]["value"] > 0
    assert metrics["checkpoint.store.bytes"]["value"] > 0
    assert metrics["runner.cache.hit_ratio"]["value"] == 0.5


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"),
                                        (1, "per_layer")])
def test_printed_metrics_are_declared(capsys, trace, kind):
    pin(capsys, "temporal-1c", SEED)
    code, lines = bench(capsys, "--workload", "temporal-1c", "--seed",
                        str(SEED), "--trace", str(trace))
    assert code == 0 and result(lines)["correct"]
    reported = {name: m["unit"]
                for name, m in result(lines)["metrics"].items()}
    assert reported == declared(kind)
    printed = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(3)
    expected = dict(declared(kind))
    expected.update(PRINTED_ONLY if trace == 0 else
                    {"failed_frac": "ratio"})
    assert printed == expected
