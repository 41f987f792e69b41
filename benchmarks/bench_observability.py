#!/usr/bin/env python3
"""Observability overhead + determinism gate for the fault drill.

Runs the 256-node batched fault drill twice — instrumentation disabled
(the shared no-op registry) and enabled (full metrics + tracing) — and
checks the two contracts the layer ships with:

1. **Determinism**: the telemetry event-log digests are byte-identical
   at equal seeds.  Metrics and spans are a side store; they must never
   perturb an RNG draw or an event ordering.
2. **Cost**: the enabled run's wall-clock overhead stays under the
   budget (default 10 %) against the no-op baseline.  The drill runs
   ``--reps`` alternating disabled/enabled pairs, switching which side
   runs first each pair, and the gate is the median of the per-pair
   overheads: a ratio of two single ~15 ms timings swung by more than
   the budget on unchanged code, and adjacent runs share host drift.

Also cross-checks ``ops_report()`` against ground truth (the broker's
own publish counters and the event log's scheduler counts) so the
summary numbers cannot silently drift from what happened.

Run:  python benchmarks/bench_observability.py [--nodes 256] [--reps 31]
                                               [--tolerance 0.10]
                                               [--out BENCH_observability.json]

Exits non-zero when a digest differs, a reconciliation fails, or the
overhead exceeds the tolerance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import ClusterBuilder  # noqa: E402
from repro.faults import FaultKind, FaultSpec  # noqa: E402

SEED = 2026
BUDGET_PER_NODE_W = 875.0


def campaign(n_nodes: int) -> list[FaultSpec]:
    """The bench_scale drill campaign: one of every fault kind."""
    return [
        FaultSpec(FaultKind.NODE_CRASH, at_s=25.0, duration_s=30.0, target=3 % n_nodes),
        FaultSpec(FaultKind.BROKER_OUTAGE, at_s=40.0, duration_s=14.0),
        FaultSpec(FaultKind.SENSOR_SPIKE, at_s=60.0, duration_s=8.0,
                  target=5 % n_nodes, magnitude=900.0),
        FaultSpec(FaultKind.PSU_FAILURE, at_s=70.0, duration_s=40.0),
        FaultSpec(FaultKind.CLOCK_DRIFT, at_s=80.0, duration_s=25.0,
                  target=7 % n_nodes, magnitude=2e-4),
        FaultSpec(FaultKind.SENSOR_DROPOUT, at_s=100.0, duration_s=8.0,
                  target=9 % n_nodes),
    ]


def build_drill(n_nodes: int, observability: bool):
    budget_w = BUDGET_PER_NODE_W * n_nodes
    builder = (
        ClusterBuilder(n_nodes=n_nodes, seed=SEED)
        .with_gateways(period_s=1.0, batched=True)
        .with_scheduler(cap_w=budget_w)
        .with_faults(shelf_psu_rating_w=budget_w * 3.0 / 14.0)
        .with_observability(enabled=observability)
    )
    return builder.build_drill()


def timed_run(n_nodes: int, observability: bool):
    """One drill's wall time plus its artifacts."""
    drill = build_drill(n_nodes, observability)
    t0 = time.perf_counter()
    report = drill.run(faults=campaign(n_nodes))
    return time.perf_counter() - t0, drill, report


def timed_pairs(n_nodes: int, reps: int):
    """``reps`` disabled/enabled pairs, the first side alternating.

    Returns each pair's (disabled, enabled) wall time, whether every
    pair's two log digests were equal, and the last enabled run's drill
    and report.
    """
    pairs, digests_equal = [], True
    for i in range(reps):
        order = (False, True) if i % 2 == 0 else (True, False)
        runs = {obs: timed_run(n_nodes, obs) for obs in order}
        (off_wall, _, off_report), (on_wall, on_drill, on_report) = runs[False], runs[True]
        digests_equal &= off_report.log.digest() == on_report.log.digest()
        pairs.append((off_wall, on_wall))
    return pairs, digests_equal, on_drill, on_report


def reconcile(drill, report) -> list[str]:
    """Compare ops_report() against ground truth; returns mismatches."""
    ops = drill.ops_report()
    counts = report.log.counts()
    checks = {
        "broker.published == broker.published_count":
            ops["broker"]["published"] == drill.broker.published_count,
        "broker.rejected == broker.rejected_count":
            ops["broker"]["rejected"] == drill.broker.rejected_count,
        "scheduler.jobs_started == log job_start":
            ops["scheduler"]["jobs_started"] == counts.get("job_start", 0),
        "scheduler.decisions == log job_start":
            ops["scheduler"]["decisions"] == counts.get("job_start", 0),
        "scheduler.jobs_requeued == log job_requeued":
            ops["scheduler"]["jobs_requeued"] == counts.get("job_requeued", 0),
        "capping.actuations == log trim + cap_change":
            ops["capping"]["actuations"]
            == counts.get("trim", 0) + counts.get("cap_change", 0),
        "telemetry.samples_published > 0":
            ops["telemetry"]["samples_published"] > 0,
        "invariants.checks > 0": ops["invariants"]["checks"] > 0,
    }
    return [name for name, passed in checks.items() if not passed]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=256)
    parser.add_argument("--reps", type=int, default=31,
                        help="alternating disabled/enabled pairs (default 31)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional overhead (default 0.10)")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                             / "BENCH_observability.json"))
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    pairs, digests_equal, on_drill, on_report = timed_pairs(args.nodes, args.reps)
    overheads = [on / off - 1.0 for off, on in pairs]
    overhead = statistics.median(overheads)
    off_wall = statistics.median(off for off, _ in pairs)
    on_wall = statistics.median(on for _, on in pairs)
    mismatches = reconcile(on_drill, on_report)
    ops = on_drill.ops_report()

    print(f"drill n={args.nodes}: disabled {off_wall:.3f}s, enabled {on_wall:.3f}s "
          f"(medians of {args.reps} pairs) -> median pair overhead "
          f"{overhead * 100:+.1f}% (budget {args.tolerance * 100:.0f}%)")
    print(f"digests {'EQUAL' if digests_equal else 'DIFFER'}; "
          f"{ops['tracing']['spans_started']} spans, "
          f"{int(ops['telemetry']['samples_published'])} samples published, "
          f"{int(ops['scheduler']['jobs_started'])} jobs started")
    for name in mismatches:
        print(f"RECONCILIATION FAILED: {name}", file=sys.stderr)

    report = {
        "seed": SEED,
        "n_nodes": args.nodes,
        "reps": args.reps,
        "wall_s_disabled": round(off_wall, 4),
        "wall_s_enabled": round(on_wall, 4),
        "overhead_fraction": round(overhead, 4),
        "pair_overheads": [round(o, 4) for o in overheads],
        "tolerance": args.tolerance,
        "digests_equal": digests_equal,
        "reconciliation_failures": mismatches,
        "ops_report": ops,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    ok = True
    if not digests_equal:
        print("ERROR: event-log digest changed when observability was enabled "
              "in at least one pair", file=sys.stderr)
        ok = False
    if mismatches:
        ok = False
    if overhead > args.tolerance:
        print(f"ERROR: observability overhead {overhead * 100:.1f}% exceeds "
              f"{args.tolerance * 100:.0f}% budget", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
