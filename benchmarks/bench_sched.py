#!/usr/bin/env python3
"""Scale sweep of the scheduler hot path across both simulator cores.

Runs power-capped and uncapped scheduling across (nodes × jobs) points
with the structure-of-arrays core (``core="array"``, the default) and
the naive ``reference`` loop (the oracle), and records for each point:

* wall-clock seconds and jobs/s per core, and the array-vs-reference
  speedup wherever the reference core ran;
* the result content digest of every core that ran, to prove the array
  core replays the reference float-for-float at equal seeds (the
  DESIGN.md §9–10 equivalence contract) — a speedup claim is
  meaningless if the fast core computes something else;
* a campaign-runner scaling measurement: a fixed policy×cap×seed grid
  through ``run_campaign`` serially and with a process pool, with the
  merged-campaign digests compared (pool size must not change results).

The reference core is O(running) per event, so it is skipped above
``--max-ref-jobs``; EASY backfill is O(backlog) per decision under a
cap, so the ``easy_capped`` mode is skipped above ``--max-easy-jobs``
(the replay-scale mega point ``16384x1000000`` is FIFO/uncapped — the
configuration the array core's flat loop is built for).

Run:  python benchmarks/bench_sched.py [--points 64x2000,16384x1000000]
                                       [--out BENCH_sched.json]

Writes ``BENCH_sched.json`` at the repo root by default.  The
``--check-against`` gate fails on a >tolerance speedup regression
against a committed baseline (ratio of ratios, so runner speed cancels
out), on a digest mismatch between the two cores, and on any (point,
mode) digest that differs from the baseline's — the cross-commit pin
that still guards the points above ``--max-ref-jobs``, where the
reference core does not run.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import _gate  # noqa: E402
from repro.scheduler import (  # noqa: E402
    SIMULATOR_CORES,
    CampaignConfig,
    ClusterSimulator,
    EasyBackfillScheduler,
    FifoScheduler,
    Scenario,
    WorkloadConfig,
    WorkloadGenerator,
    campaign_digest,
    result_digest,
    run_campaign,
)

SEED = 2026
#: Comfortable budget share per node: capped runs actually trim without
#: pinning every job at the floor.
BUDGET_PER_NODE_W = 1150.0

#: (mode name, policy factory, capped?) — one uncapped and one capped
#: family, so the sweep covers both the trim-idle and trim-active paths.
MODES = (
    ("fifo_uncapped", FifoScheduler, False),
    ("easy_capped", EasyBackfillScheduler, True),
)


def make_jobs(n_nodes: int, n_jobs: int) -> list:
    return WorkloadGenerator(
        WorkloadConfig(n_jobs=n_jobs, cluster_nodes=n_nodes, load_factor=0.9),
        rng=np.random.default_rng(SEED),
    ).generate()


def run_core(jobs, n_nodes: int, policy_factory, capped: bool, core: str,
             repeats: int = 1, budget_s: float = 40.0) -> dict:
    """Best-of-``repeats`` wall time, stopping once ``budget_s`` of
    measurement has accumulated (short points are noise-dominated
    single-shot; multi-minute points are long enough to time once).
    Best-of is the right statistic here: the simulator is deterministic,
    so every slowdown is runner noise.  A fresh simulator per repeat
    keeps runs independent."""
    wall_s = float("inf")
    spent = 0.0
    result = None
    for _ in range(max(repeats, 1)):
        sim = ClusterSimulator(
            n_nodes=n_nodes,
            policy=policy_factory(),
            cap_w=BUDGET_PER_NODE_W * n_nodes if capped else None,
            core=core,
        )
        t0 = time.perf_counter()
        result = sim.run(jobs)
        w = time.perf_counter() - t0
        wall_s = min(wall_s, w)
        spent += w
        if spent >= budget_s:
            break
    return {
        "core": core,
        "wall_s": round(wall_s, 4),
        "jobs_per_s": round(len(jobs) / wall_s, 1),
        "digest": result_digest(result),
        "makespan_s": round(float(result.makespan_s), 1),
        "mean_stretch": round(result.mean_stretch(), 4),
    }


def warmup() -> None:
    """Import every core and warm allocator/caches before timing.

    Without this the first timed run absorbs lazy module imports and
    first-touch costs, skewing whichever core runs first.
    """
    jobs = make_jobs(16, 200)
    for core in SIMULATOR_CORES:
        run_core(jobs, 16, FifoScheduler, capped=True, core=core)


def profile_run(jobs, n_nodes: int, policy_factory, capped: bool, core: str,
                out_path: Path, top_n: int = 30) -> None:
    """One profiled (untimed) run; top-``top_n`` by tottime to a file.

    Profiling runs *after* the timed repeats so instrumentation overhead
    never leaks into the recorded wall times.
    """
    sim = ClusterSimulator(
        n_nodes=n_nodes,
        policy=policy_factory(),
        cap_w=BUDGET_PER_NODE_W * n_nodes if capped else None,
        core=core,
    )
    prof = cProfile.Profile()
    prof.enable()
    sim.run(jobs)
    prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("tottime").print_stats(top_n)
    out_path.write_text(buf.getvalue())
    print(f"  profile -> {out_path}")


def bench_point(n_nodes: int, n_jobs: int, max_ref_jobs: int,
                max_easy_jobs: int, repeats: int = 1, budget_s: float = 40.0,
                profile_dir: Path | None = None,
                ) -> tuple[list[dict], dict[str, dict], dict[str, bool]]:
    """All modes × cores at one sweep point.

    The returned flag is per mode: whether every core that ran the mode
    produced the same digest."""
    jobs = make_jobs(n_nodes, n_jobs)
    runs, speedups, digests_equal = [], {}, {}
    for mode, policy_factory, capped in MODES:
        if mode == "easy_capped" and n_jobs > max_easy_jobs:
            print(f"n={n_nodes:5d} jobs={n_jobs:7d} {mode:>13}: skipped "
                  f"(above --max-easy-jobs={max_easy_jobs})")
            continue
        rec = {"point": f"{n_nodes}x{n_jobs}", "mode": mode,
               "n_nodes": n_nodes, "n_jobs": n_jobs}
        arr = run_core(jobs, n_nodes, policy_factory, capped, core="array",
                       repeats=repeats, budget_s=budget_s)
        runs.append({**rec, **arr})
        line = (f"n={n_nodes:5d} jobs={n_jobs:7d} {mode:>13}: "
                f"array {arr['wall_s']:8.2f} s ({arr['jobs_per_s']:>9,.0f} jobs/s)")
        equal = True
        if n_jobs <= max_ref_jobs:
            ref = run_core(jobs, n_nodes, policy_factory, capped,
                           core="reference", repeats=repeats, budget_s=budget_s)
            runs.append({**rec, **ref})
            speedup = round(ref["wall_s"] / arr["wall_s"], 2)
            speedups[mode] = {"array_vs_reference": speedup}
            equal = ref["digest"] == arr["digest"]
            line += (f" vs reference {ref['wall_s']:8.2f} s -> {speedup:5.2f}x "
                     f"(digests {'EQUAL' if equal else 'DIFFER'})")
        digests_equal[mode] = equal
        print(line)
        if profile_dir is not None:
            profile_run(jobs, n_nodes, policy_factory, capped, "array",
                        profile_dir / f"PROFILE_{n_nodes}x{n_jobs}_{mode}_array.txt")
    return runs, speedups, digests_equal


def bench_campaign(processes: int) -> dict:
    """Fixed grid, serial vs pooled; digests must match exactly."""
    config = CampaignConfig(n_nodes=64, n_jobs=1000, root_seed=SEED, load_factor=0.9)
    grid = [
        Scenario(policy=policy, cap_w=BUDGET_PER_NODE_W * 64 if capped else None,
                 seed_index=seed)
        for policy in ("fifo", "easy")
        for capped in (False, True)
        for seed in (0, 1)
    ]
    t0 = time.perf_counter()
    serial = run_campaign(config, grid, processes=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled = run_campaign(config, grid, processes=processes)
    pooled_s = time.perf_counter() - t0
    equal = campaign_digest(serial) == campaign_digest(pooled)
    speedup = serial_s / pooled_s
    cpu_count = os.cpu_count() or 1
    # A process pool cannot beat serial on a single CPU: the measurement
    # is still recorded (digest equality must hold regardless), but it is
    # marked untrusted so regression gates never flag single-CPU boxes.
    trusted = cpu_count >= 2 and processes >= 2
    note = "" if trusted else " [untrusted: <2 CPUs]"
    print(f"campaign ({len(grid)} cells): serial {serial_s:.2f} s vs "
          f"pool({processes}) {pooled_s:.2f} s -> {speedup:.2f}x on "
          f"{cpu_count} cores (digests {'EQUAL' if equal else 'DIFFER'})"
          f"{note}")
    return {
        "n_cells": len(grid),
        "processes": processes,
        "cpu_count": cpu_count,
        "serial_wall_s": round(serial_s, 3),
        "pooled_wall_s": round(pooled_s, 3),
        "pool_speedup": round(speedup, 2),
        "pool_speedup_trusted": trusted,
        "digests_equal": equal,
    }


def _pool_speedup_trusted(campaign: dict | None) -> bool:
    """Whether a report's pool-speedup number means anything.

    Older baselines predate the explicit flag: fall back to the recorded
    ``cpu_count`` (a pool can only help with >= 2 CPUs).
    """
    if not campaign:
        return False
    if "pool_speedup_trusted" in campaign:
        return bool(campaign["pool_speedup_trusted"])
    return (campaign.get("cpu_count") or 1) >= 2 and campaign.get(
        "processes", 1) >= 2


def _digest_by_point_mode(runs: list[dict]) -> dict[str, str]:
    """The array core's digest per ``point/mode`` of a report's runs."""
    return {f"{r['point']}/{r['mode']}": r["digest"]
            for r in runs if r["core"] == "array"}


def _speedup_by_label(by_point: dict[str, dict[str, dict]]) -> dict[str, float]:
    """``{point: {mode: {pair: x}}}`` flattened to ``point/mode/pair``."""
    return {f"{point}/{mode}/{pair}": value
            for point, by_mode in by_point.items()
            for mode, pairs in by_mode.items()
            for pair, value in pairs.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points",
                        default="64x1000,64x2000,256x10000,1024x50000,"
                                "1024x100000,4096x200000,16384x1000000",
                        help="comma-separated NODESxJOBS sweep points")
    parser.add_argument("--max-ref-jobs", type=int, default=50_000,
                        help="skip the reference core above this job count")
    parser.add_argument("--max-easy-jobs", type=int, default=200_000,
                        help="skip the easy_capped mode above this job count")
    parser.add_argument("--profile", action="store_true",
                        help="after timing each point, run one profiled "
                             "array-core pass per mode and write the "
                             "cProfile top-N next to the JSON report")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N timing per core (default 5)")
    parser.add_argument("--repeat-budget-s", type=float, default=40.0,
                        help="stop repeating a core once this much "
                             "measurement time has accumulated (default 40)")
    parser.add_argument("--campaign-processes", type=int, default=4,
                        help="pool size for the campaign scaling measurement")
    parser.add_argument("--skip-campaign", action="store_true",
                        help="only run the core sweep")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                             / "BENCH_sched.json"),
                        help="where to write the JSON report")
    _gate.add_arguments(parser, tolerance=0.25,
                        checks="a core or pool speedup (ratio-of-ratios, so "
                               "runner speed cancels out) or any (point, "
                               "mode) digest")
    args = parser.parse_args(argv)
    points = []
    for token in args.points.split(","):
        if token:
            n, j = token.lower().split("x")
            points.append((int(n), int(j)))

    warmup()
    profile_dir = Path(args.out).resolve().parent if args.profile else None
    runs: list[dict] = []
    speedups: dict[str, dict[str, dict]] = {}
    digests_equal: dict[str, dict[str, bool]] = {}
    for n_nodes, n_jobs in points:
        point_runs, point_speedups, point_equal = bench_point(
            n_nodes, n_jobs, args.max_ref_jobs, args.max_easy_jobs,
            repeats=args.repeats, budget_s=args.repeat_budget_s,
            profile_dir=profile_dir)
        runs += point_runs
        key = f"{n_nodes}x{n_jobs}"
        if point_speedups:
            speedups[key] = point_speedups
        if point_equal:
            digests_equal[key] = point_equal

    campaign = None if args.skip_campaign else bench_campaign(args.campaign_processes)

    report = {
        "seed": SEED,
        "points": [f"{n}x{j}" for n, j in points],
        "runs": runs,
        "core_speedup_by_point": speedups,
        "digests_equal_by_point": digests_equal,
        "campaign": campaign,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    ok = all(all(v.values()) for v in digests_equal.values())
    if not ok:
        print("ERROR: core result digests diverged", file=sys.stderr)
    if campaign is not None and not campaign["digests_equal"]:
        print("ERROR: campaign digests depend on pool size", file=sys.stderr)
        ok = False

    if args.check_against:
        baseline = _gate.load_baseline(args.check_against)
        ok &= _gate.check_digests(_digest_by_point_mode(runs),
                                  _digest_by_point_mode(baseline["runs"]))
        ok &= _gate.check_speedups(
            _speedup_by_label(speedups),
            _speedup_by_label(baseline.get("core_speedup_by_point", {})),
            args.tolerance)
        base_campaign = baseline.get("campaign")
        if (campaign is not None
                and _pool_speedup_trusted(campaign)
                and _pool_speedup_trusted(base_campaign)):
            ok &= _gate.check_speedup(
                "campaign/pool_speedup", campaign["pool_speedup"],
                base_campaign["pool_speedup"], args.tolerance)
        elif campaign is not None:
            print("speedup check campaign/pool_speedup: skipped "
                  "(untrusted on <2 CPUs)")

    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
