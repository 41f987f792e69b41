#!/usr/bin/env python3
"""Scale sweep of the simulation hot path: per-sample vs batched telemetry.

Runs the two scenario families that dominate wall-clock in this repo —
the cluster-wide fault drill (gateways + MQTT + capper + dispatcher on
the kernel) and power-capped scheduling — across node counts, and
records for each run:

* wall-clock seconds and simulated seconds (→ sim-seconds per
  wall-second, the headline throughput number); the drill runs
  :data:`REPEATS` times per telemetry mode, per-sample and batched
  alternating, and each mode records its median;
* kernel events scheduled (→ events/s);
* peak RSS (``ru_maxrss``; cumulative high-water mark for the process,
  recorded after each run);
* the telemetry event-log digest, to prove the vectorized
  :class:`~repro.monitoring.GatewayArray` path replays the per-daemon
  path byte-for-byte at equal seeds.

The drill campaign deliberately keeps the sensor dropout clear of the
broker outage — the one scenario where per-daemon backoff schedules
diverge and batched equivalence is documented not to hold.

Run:  python benchmarks/bench_scale.py [--nodes 16,64,256,1024]
                                       [--out BENCH_scale.json]

Writes ``BENCH_scale.json`` next to the repo root by default and prints
a summary table, including the batched-vs-per-sample speedup at each
node count: the median over the repetitions of batched over per-sample
throughput, each ratio taken from one adjacent pair of runs, so a change
of host speed between pairs cancels out.  ``--check-against`` gates that
median ratio.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import _gate  # noqa: E402
from repro.cluster import ClusterBuilder  # noqa: E402
from repro.faults import FaultKind, FaultSpec  # noqa: E402
from repro.scheduler import EasyBackfillScheduler, WorkloadConfig, WorkloadGenerator  # noqa: E402

import numpy as np  # noqa: E402

SEED = 2026
#: Drill repetitions per telemetry mode and node count.  One run per
#: mode made the gated ratio swing by about as much as its tolerance;
#: the median of this many adjacent pairs does not.
REPEATS = 31
#: Per-node budget share: enough headroom over the 300 W idle floor that
#: the drill exercises capping without pinning every node at min trim.
BUDGET_PER_NODE_W = 875.0


def drill_campaign(n_nodes: int) -> list[FaultSpec]:
    """One of every fault kind, scaled to the cluster size.

    Sensor dropout (100–108 s) never overlaps the broker outage
    (40–54 s): during an outage every daemon backs off in lockstep, and
    a dropout at that moment would desynchronize their probe schedules —
    the documented exception to batched equivalence.
    """
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


def peak_rss_mb() -> float:
    """Process high-water-mark RSS in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_drill(n_nodes: int, batched: bool) -> dict:
    """One fault-drill run; returns the measurement record."""
    budget_w = BUDGET_PER_NODE_W * n_nodes
    builder = (
        ClusterBuilder(n_nodes=n_nodes, seed=SEED)
        .with_gateways(period_s=1.0, batched=batched)
        .with_scheduler(cap_w=budget_w)
        # Scale the rack shelf with the budget (default ratio 18/14):
        # one PSU loss still covers the budget, two force a retarget.
        .with_faults(shelf_psu_rating_w=budget_w * 3.0 / 14.0)
    )
    drill = builder.build_drill()
    t0 = time.perf_counter()
    report = drill.run(faults=drill_campaign(n_nodes))
    wall_s = time.perf_counter() - t0
    sim_s = drill.env.now
    events = drill.env._counter
    return {
        "scenario": "fault_drill",
        "mode": "batched" if batched else "per_sample",
        "n_nodes": n_nodes,
        "wall_s": round(wall_s, 4),
        "sim_s": round(sim_s, 3),
        "sim_s_per_wall_s": round(sim_s / wall_s, 2),
        "events": events,
        "events_per_s": round(events / wall_s, 1),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "log_digest": report.summary["log_digest"],
        "violations": report.summary["violations"],
    }


def run_scheduling(n_nodes: int) -> dict:
    """One power-capped scheduling run (no telemetry daemons)."""
    jobs = WorkloadGenerator(
        WorkloadConfig(n_jobs=max(100, 2 * n_nodes), cluster_nodes=n_nodes,
                       load_factor=1.15),
        rng=np.random.default_rng(SEED),
    ).generate()
    sim = (
        ClusterBuilder(n_nodes=n_nodes)
        .with_scheduler(EasyBackfillScheduler(), cap_w=BUDGET_PER_NODE_W * n_nodes)
        .build_simulator()
    )
    t0 = time.perf_counter()
    result = sim.run(jobs)
    wall_s = time.perf_counter() - t0
    makespan = float(result.makespan_s)
    return {
        "scenario": "capped_scheduling",
        "mode": "event_driven",
        "n_nodes": n_nodes,
        "n_jobs": len(jobs),
        "wall_s": round(wall_s, 4),
        "sim_s": round(makespan, 1),
        "sim_s_per_wall_s": round(makespan / wall_s, 1),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "peak_power_w": round(result.peak_power_w(), 1),
    }


def drill_pairs(n_nodes: int) -> tuple[dict, dict, list[float], bool]:
    """:data:`REPEATS` alternating per-sample/batched drill runs.

    Returns each mode's record with median timings, the batched over
    per-sample throughput ratio of every pair, and whether every run of
    both modes produced the same log digest.
    """
    runs: dict[bool, list[dict]] = {False: [], True: []}
    ratios: list[float] = []
    for _ in range(REPEATS):
        per = run_drill(n_nodes, batched=False)
        bat = run_drill(n_nodes, batched=True)
        runs[False].append(per)
        runs[True].append(bat)
        ratios.append(bat["sim_s_per_wall_s"] / per["sim_s_per_wall_s"])
    digests = {run["log_digest"] for mode in runs.values() for run in mode}
    return _median_record(runs[False]), _median_record(runs[True]), ratios, len(digests) == 1


def _median_record(runs: list[dict]) -> dict:
    """The last run's record (its RSS is the high-water mark of them
    all) with its timings replaced by the medians."""
    wall_s = statistics.median(run["wall_s"] for run in runs)
    record = dict(runs[-1], repeats=len(runs), wall_s=round(wall_s, 4))
    record["sim_s_per_wall_s"] = round(
        statistics.median(run["sim_s_per_wall_s"] for run in runs), 2)
    record["events_per_s"] = round(record["events"] / wall_s, 1)
    record["violations"] = max(run["violations"] for run in runs)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", default="16,64,256,1024",
                        help="comma-separated node counts to sweep")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                             / "BENCH_scale.json"),
                        help="where to write the JSON report")
    parser.add_argument("--skip-scheduling", action="store_true",
                        help="only run the fault-drill sweep")
    _gate.add_arguments(parser, tolerance=0.20,
                        checks="the median batched speedup (ratio-of-ratios, "
                               "so runner speed cancels out)")
    args = parser.parse_args(argv)
    node_counts = [int(n) for n in args.nodes.split(",") if n]

    runs: list[dict] = []
    speedups: dict[str, float] = {}
    pair_speedups: dict[str, list[float]] = {}
    digests_equal: dict[str, bool] = {}
    for n in node_counts:
        per, bat, ratios, equal = drill_pairs(n)
        runs += [per, bat]
        speedup = statistics.median(ratios)
        speedups[str(n)] = round(speedup, 2)
        pair_speedups[str(n)] = [round(r, 2) for r in ratios]
        digests_equal[str(n)] = equal
        print(f"drill n={n:5d}: per-sample {per['sim_s_per_wall_s']:8.1f} sim-s/s, "
              f"batched {bat['sim_s_per_wall_s']:8.1f} sim-s/s (medians of "
              f"{REPEATS}) -> {speedup:5.2f}x median of pairs "
              f"{min(ratios):.2f}-{max(ratios):.2f}x "
              f"(digests {'EQUAL' if equal else 'DIFFER'})")
        if not args.skip_scheduling:
            sched = run_scheduling(n)
            runs.append(sched)
            print(f"sched n={n:5d}: {sched['sim_s_per_wall_s']:8.1f} sim-s/s, "
                  f"{sched['n_jobs']} jobs, peak {sched['peak_power_w'] / 1e3:.1f} kW")

    report = {
        "seed": SEED,
        "repeats": REPEATS,
        "node_counts": node_counts,
        "runs": runs,
        "batched_speedup_by_nodes": speedups,
        "pair_speedups_by_nodes": pair_speedups,
        "digests_equal_by_nodes": digests_equal,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    ok = all(digests_equal.values())
    if not ok:
        print("ERROR: batched and per-sample telemetry digests diverged", file=sys.stderr)

    if args.check_against:
        baseline = _gate.load_baseline(args.check_against)
        base_speedups = baseline.get("batched_speedup_by_nodes", {})
        ok &= _gate.check_speedups(
            {f"n={key}": value for key, value in speedups.items()},
            {f"n={key}": value for key, value in base_speedups.items()},
            args.tolerance)

    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
