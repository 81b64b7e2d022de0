"""``python -m repro.sampling`` — plan / run / validate / report.

* ``plan WORKLOAD --n N`` — feature pass + clustering, persisted to the
  plan store; prints the representatives.
* ``run WORKLOAD --n N [--l2 streamline]`` — sampled execution +
  extrapolated estimates with confidence intervals.
* ``validate`` — sampled-vs-full on a workload x prefetcher grid
  (default: three workloads x baseline/streamline); exits non-zero if
  any observed error exceeds its declared bound.
* ``report`` — the plan store's contents (add a key for full detail).

All subcommands honor ``REPRO_SAMPLING_DIR`` / ``REPRO_SAMPLING_K``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ..experiments.common import experiment_config
from ..runner import spec
from ..workloads import DEFAULT_SEED
from .execute import run_sampled, validate_sampling
from .knobs import sampling_k
from .plan import PlanStore, get_plan

#: The default validation grid: a pointer chase, a scan mix, and a
#: graph kernel, against no-L2-prefetch and the paper's streamlined
#: design.  Pure streams are deliberately absent: with an
#: over-fetching prefetcher their DRAM queue backlog accumulates over
#: the whole run, which bounded warm-up cannot reproduce (see DESIGN.md
#: §8, "Limits").
VALIDATE_WORKLOADS = ["06.omnetpp", "06.mcf", "gap.pr"]
VALIDATE_ARMS = {"baseline": (), "streamline": ("streamline",)}


def _l2(names: Sequence[str]):
    return tuple(spec(name) for name in names)


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=120_000,
                   help="trace length in accesses (default 120000: "
                        "long enough that the full run's measured "
                        "region is past the cache-fill transient)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--interval", type=int, default=None,
                   help="interval length (default: scale with n)")
    p.add_argument("--k", type=int, default=None,
                   help="representative count (default: scale with "
                        "candidates; REPRO_SAMPLING_K overrides)")


def _arm_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l1", default="stride",
                   help="L1 prefetcher spec name (default stride)")
    p.add_argument("--l2", action="append", default=None,
                   help="L2 prefetcher spec name (repeatable; default "
                        "none)")


def cmd_plan(args: argparse.Namespace) -> int:
    plan = get_plan(args.workload, args.n, seed=args.seed,
                    interval=args.interval, k=sampling_k(args.k))
    store = PlanStore()
    print(f"plan {plan.key}")
    print(f"  stored at    {store.path(plan.key)}")
    print(f"  digest       {plan.digest()[:16]}")
    print(f"  interval     {plan.interval}  warmup {plan.warmup}")
    print(f"  candidates   {plan.num_candidates}  k {plan.k}")
    print(f"  simulated    {plan.simulated_accesses()} / {plan.n} "
          f"accesses ({plan.n / max(1, plan.simulated_accesses()):.1f}x "
          f"reduction)")
    for rep in plan.representatives:
        print(f"  rep @{rep.start:>10}  weight {rep.weight:.3f}  "
              f"(cluster size {rep.size})")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    est = run_sampled(args.workload, args.n, experiment_config(),
                      l1=spec(args.l1), l2=_l2(args.l2 or []),
                      seed=args.seed, interval=args.interval, k=args.k)
    print(f"{est.workload} n={est.n}: {est.representatives} "
          f"representatives, {est.simulated_accesses} simulated "
          f"accesses ({est.access_reduction:.1f}x reduction)")
    for name, me in est.metrics.items():
        bound = "" if me.bound is None else f"  (bound {me.bound:.0%})"
        print(f"  {name:<14} {me.estimate:.6f} +/- {me.ci95:.6f}"
              f"{bound}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    workloads = args.workloads or VALIDATE_WORKLOADS
    arms = {name: _l2(l2) for name, l2 in VALIDATE_ARMS.items()}
    rows = validate_sampling(workloads, args.n, experiment_config(),
                             arms, l1=spec(args.l1), seed=args.seed,
                             interval=args.interval, k=args.k)
    failures = 0
    print(f"{'workload':<14} {'arm':<11} {'metric':<14} "
          f"{'full':>9} {'sampled':>9} {'err':>7} {'bound':>7}")
    for row in rows:
        flag = "" if row.ok else "  EXCEEDED"
        failures += 0 if row.ok else 1
        print(f"{row.workload:<14} {row.arm:<11} {row.metric:<14} "
              f"{row.full:>9.5f} {row.estimate:>9.5f} "
              f"{row.rel_error:>6.1%} {row.bound:>6.0%}{flag}")
    worst = max((r.rel_error for r in rows), default=0.0)
    print(f"worst observed error {worst:.1%} over {len(rows)} checks")
    if failures:
        print(f"FAIL: {failures} observed errors exceed their declared "
              f"bounds", file=sys.stderr)
        return 1
    print("OK: every observed error is within its declared bound")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    store = PlanStore()
    if args.key:
        plan = store.get(args.key)
        if plan is None:
            print(f"no plan stored for key {args.key!r}",
                  file=sys.stderr)
            return 1
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
        return 0
    entries = store.entries()
    print(f"plan store: {store.directory} ({len(entries)} plans)")
    for key in entries:
        print(f"  {key}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sampling",
        description="Representative interval sampling (plan / run / "
                    "validate / report).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="build (or restore) a sampling plan")
    p.add_argument("workload")
    _common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="sampled execution + extrapolation")
    p.add_argument("workload")
    _common(p)
    _arm_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("validate",
                       help="sampled-vs-full error check (exit 1 if any "
                            "bound is exceeded)")
    p.add_argument("--workloads", nargs="*", default=None)
    _common(p)
    p.add_argument("--l1", default="stride")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="inspect the plan store")
    p.add_argument("key", nargs="?", default=None)
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
