#!/usr/bin/env python3
"""Design-space tour: searching the scheduler knobs by name.

The paper hand-picks one production configuration (proactive dispatch
under a 45-node envelope). This example treats that choice as an
*optimization problem*: declare the knobs (``policy``, ``cap_w``,
``backfill_depth``) as a typed :class:`DesignSpace`, score each cell
with an energy/QoS :class:`Objective`, and let searchers, picked by
name, walk the space through the content-addressed campaign cache —
revisited cells replay byte-identically, for free.

Shows three searchers over the same shared store (``random``, ``grid``,
``evolutionary``), then re-runs the evolutionary search warm to
demonstrate the zero-simulation replay.

Run:  python examples/design_space_tour.py
"""

from repro.explore import (
    Categorical,
    Continuous,
    DesignSpace,
    Integer,
    Objective,
    explore,
)
from repro.scheduler import CampaignConfig, MemoryResultStore

BUDGET = 16
SEED = 11


def main() -> None:
    # 1. The problem: 12 nodes under load, three knobs, one scalar
    #    score (joules plus 50 kJ for every second of p95 queue wait).
    config = CampaignConfig(n_nodes=12, n_jobs=60, root_seed=2026,
                            load_factor=1.1)
    space = DesignSpace({
        "policy": Categorical(("easy", "power-aware")),
        "cap_w": Continuous(7_000.0, 13_000.0),
        "backfill_depth": Integer(1, 8),
    })
    objective = Objective.blend({"total_energy_j": 1.0, "p95_wait_s": 5e4})
    print(f"space: {space} ({space.size()} cells at grid "
          f"resolution 3); objective: minimize {objective.name}")

    # 2. Three searchers, one shared content-addressed store: every
    #    simulation any searcher pays for is capital the others reuse.
    store = MemoryResultStore()
    print(f"\n{'searcher':<14}{'best fitness':>14}  best point"
          f"{'':<30}{'sim':>5}{'hits':>5}")
    traces = {}
    for name in ("random", "grid", "evolutionary"):
        trace = explore(space, objective, searcher=name, budget=BUDGET,
                        seed=SEED, config=config, cache=store)
        traces[name] = trace
        point = ", ".join(f"{k}={v:.0f}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in trace.best_point.items())
        print(f"{name:<14}{trace.best_fitness:>14.4e}  {point:<40}"
              f"{trace.n_simulated:>5}{trace.n_cache_hits:>5}")

    # 3. Warm replay: the identical evolutionary search against the now
    #    warm store simulates *nothing* and digests identically.
    warm = explore(space, objective, searcher="evolutionary", budget=BUDGET,
                   seed=SEED, config=config, cache=store)
    cold = traces["evolutionary"]
    assert warm.digest() == cold.digest(), "cache state leaked into the trace"
    assert warm.n_simulated == 0, "warm replay re-simulated a cell"
    assert warm.cache_hit_fraction >= 0.5
    print(f"\nwarm evolutionary re-run: {warm.n_simulated} simulations, "
          f"{warm.n_cache_hits}/{len(warm.steps)} hits, digest "
          f"{warm.digest()[:16]}… (= cold)")

    # 4. The artifact: the convergence curve is the story of the search.
    curve = cold.best_fitness_curve()
    print(f"evolutionary convergence: {curve[0]:.4e} -> {curve[-1]:.4e} "
          f"over {len(curve)} evaluations")


if __name__ == "__main__":
    main()
