#!/usr/bin/env python3
"""Exploration harness gate: warm-replay speedup + trace determinism.

Runs one seeded evolutionary search over the scheduler design space
twice against the same content-addressed result store:

* **cold** — empty store, every unique knob vector simulates;
* **warm** — identical search replayed, which must perform **zero**
  simulations (100% cache hits) and digest byte-identically.

The gates:

1. the warm trace digest equals the cold one (pool size and cache
   state must never leak into the artifact);
2. the warm re-run simulates nothing;
3. warm wall-clock speedup ≥ ``--min-speedup`` (default 5x);
4. with ``--check-against BASELINE.json``, the measured speedup also
   stays above ``baseline * (1 - tolerance)``.

Run:  python benchmarks/bench_explore.py [--budget 24] [--seed 7]
          [--min-speedup 5.0] [--tolerance 0.5]
          [--out BENCH_explore.json] [--check-against BENCH_explore.json]

Exits non-zero when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import _gate  # noqa: E402
from repro.explore import (  # noqa: E402
    Categorical,
    Continuous,
    DesignSpace,
    Integer,
    Objective,
    explore,
)
from repro.scheduler import CampaignConfig, MemoryResultStore  # noqa: E402

SEED = 7

SPACE = DesignSpace({
    "cap_w": Continuous(10_000.0, 18_000.0),
    "backfill_depth": Integer(1, 8),
    "policy": Categorical(("easy", "power-aware")),
})

#: Joules, plus 50 kJ per second of p95 wait — the paper's energy/QoS
#: trade expressed as one scalar.
OBJECTIVE = Objective.blend({"total_energy_j": 1.0, "p95_wait_s": 5e4})

CONFIG = CampaignConfig(n_nodes=16, n_jobs=120, root_seed=2026,
                        load_factor=1.1)


def run_search(store: MemoryResultStore, budget: int, seed: int):
    t0 = time.perf_counter()
    trace = explore(SPACE, OBJECTIVE, searcher="evolutionary",
                    budget=budget, seed=seed, config=CONFIG, cache=store)
    return trace, time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=24)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="absolute warm-speedup floor (default 5x)")
    _gate.add_arguments(parser, tolerance=0.5,
                        checks="the warm speedup (wall-clock ratios are "
                               "noisy, hence the loose default)")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                             / "BENCH_explore.json"))
    args = parser.parse_args(argv)

    store = MemoryResultStore()
    cold, cold_wall = run_search(store, args.budget, args.seed)
    warm, warm_wall = run_search(store, args.budget, args.seed)
    speedup = cold_wall / warm_wall if warm_wall > 0 else float("inf")

    digests_equal = warm.digest() == cold.digest()
    print(f"search: {args.budget} evaluations, seed {args.seed}, "
          f"{CONFIG.n_nodes} nodes x {CONFIG.n_jobs} jobs per cell")
    print(f"cold: {cold_wall:.3f}s ({cold.n_simulated} simulated, "
          f"{cold.n_cache_hits} hits) | warm: {warm_wall:.3f}s "
          f"({warm.n_simulated} simulated, {warm.n_cache_hits} hits)")
    print(f"warm speedup {speedup:.1f}x | digests "
          f"{'EQUAL' if digests_equal else 'DIFFER'} | best fitness "
          f"{cold.best_fitness:.4e} at {cold.best_point}")

    report = {
        "seed": args.seed,
        "budget": args.budget,
        "n_nodes": CONFIG.n_nodes,
        "n_jobs": CONFIG.n_jobs,
        "trace_digest": cold.digest(),
        "best_fitness": cold.best_fitness,
        "best_point": cold.best_point,
        "cold_wall_s": round(cold_wall, 4),
        "warm_wall_s": round(warm_wall, 4),
        "warm_speedup": round(speedup, 2),
        "cold_simulated": cold.n_simulated,
        "warm_simulated": warm.n_simulated,
        "warm_cache_hit_fraction": warm.cache_hit_fraction,
        "digests_equal": digests_equal,
        "min_speedup": args.min_speedup,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    ok = True
    if not digests_equal:
        print("ERROR: warm trace digest differs from cold — cache state "
              "leaked into the artifact", file=sys.stderr)
        ok = False
    if warm.n_simulated != 0:
        print(f"ERROR: warm re-run simulated {warm.n_simulated} cells; "
              "an identical search must replay entirely", file=sys.stderr)
        ok = False
    if speedup < args.min_speedup:
        print(f"ERROR: warm speedup {speedup:.1f}x below the "
              f"{args.min_speedup:.0f}x floor", file=sys.stderr)
        ok = False

    if args.check_against:
        ok &= _gate.check_speedups({"warm_speedup": speedup},
                                   _gate.load_baseline(args.check_against),
                                   args.tolerance)

    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
