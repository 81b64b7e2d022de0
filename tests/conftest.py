"""Shared fixtures: tiny configs and traces so the suite stays fast."""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.sim.config import SystemConfig
from repro.sim.trace import TraceBuilder

# Keep the suite hermetic: never read results persisted by earlier (and
# possibly semantically different) builds.  Cache tests opt back in with
# explicit ResultCache instances.
os.environ.setdefault("REPRO_CACHE", "0")
# Likewise don't litter benchmarks/.obs with run logs from every runner
# test; obs tests opt back in with REPRO_OBS=1 + a tmp REPRO_OBS_DIR.
os.environ.setdefault("REPRO_OBS", "0")
# And keep sampling off (experiments stay exact) with any plans a test
# does build going to a throwaway directory, not benchmarks/.splans;
# sampling tests opt back in with explicit PlanStore instances.
os.environ.setdefault("REPRO_SAMPLING", "0")
os.environ.setdefault("REPRO_SAMPLING_DIR",
                      tempfile.mkdtemp(prefix="repro-splans-"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/data/golden_results.json from the current "
             "code instead of checking against it")


@pytest.fixture
def tiny_config() -> SystemConfig:
    """1/8-scale hierarchy: big enough to partition, small enough to
    pressure with a few thousand accesses."""
    return SystemConfig().scaled_down(8)


@pytest.fixture
def small_config() -> SystemConfig:
    """The experiments' 1/4-scale hierarchy."""
    return SystemConfig().scaled_down(4)


def chase_trace(name: str = "chase", nodes: int = 4096, n: int = 12288,
                pc: int = 0x400, seed: int = 3, dep: bool = True):
    """A deterministic pointer chase over a fixed permutation."""
    import numpy as np
    rng = np.random.default_rng(seed)
    perm = rng.permutation(nodes)
    base = 0x10000000 + (seed << 32)  # distinct data region per seed
    b = TraceBuilder(name)
    for i in range(n):
        b.add(pc, base + int(perm[i % nodes]) * 64, gap=4, dep=dep)
    return b.build()


@pytest.fixture
def chase():
    return chase_trace()
