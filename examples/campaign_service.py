#!/usr/bin/env python3
"""Campaign service tour: submit → poll → replay → crash → rerun.

Runs the whole campaign-service surface in one sitting: a
``CampaignService`` over an on-disk content-addressed store takes two
overlapping campaign submissions (the second replays its shared cells
from cache instead of simulating), a campaign over another store is
killed mid-grid and run again over that store to the same campaign
digest, and the service's ``campaign`` ops-report section tallies it
all.

Run:  python examples/campaign_service.py
"""

import tempfile
import time

from repro.observability import Observability
from repro.scheduler import (
    CampaignService,
    CampaignConfig,
    DirectoryResultStore,
    Scenario,
    campaign_digest,
    run_campaign,
)

BUDGET_W = 14e3


def main() -> None:
    config = CampaignConfig(n_nodes=12, n_jobs=60, root_seed=2026, load_factor=1.1)
    grid = [
        Scenario(policy=policy, cap_w=cap, seed_index=seed,
                 label=f"{policy}/{'cap' if cap else 'uncapped'}/s{seed}")
        for policy in ("fifo", "easy")
        for cap in (None, BUDGET_W)
        for seed in (0, 1)
    ]

    with tempfile.TemporaryDirectory(prefix="campaign-service-") as tmp:
        # 1. A service over a persistent content-addressed store.  Every
        #    result lands in the store keyed by scenario_key(config, s)
        #    — a digest of the *canonicalized* cell, so field order,
        #    default-equivalent spellings and cosmetic labels all hit
        #    the same entry.
        obs = Observability()
        store = DirectoryResultStore(f"{tmp}/store")
        service = CampaignService(store=store, observability=obs, processes=2)

        t0 = time.perf_counter()
        first = service.submit(config, grid, label="cold sweep")
        while not first.done():            # the poll half of the API
            s = first.status()
            print(f"  poll: {s['state']:<8} {s['completed']}/{s['total']}")
            time.sleep(0.2)
        cold = service.result(first)
        t_cold = time.perf_counter() - t0
        print(f"cold sweep: {len(cold)} cells in {t_cold:.2f} s, "
              f"digest {campaign_digest(cold)[:16]}…")

        # 2. A second user sweeps an overlapping grid: the shared cells
        #    replay from the store, only the novel ones simulate.
        widened = grid + [
            Scenario(policy="power-aware", cap_w=BUDGET_W, budget_w=BUDGET_W,
                     seed_index=seed, label=f"power-aware/s{seed}")
            for seed in (0, 1)
        ]
        second = service.submit(config, widened, label="overlapping sweep")
        service.result(second)
        s = second.status()
        print(f"overlapping sweep: {s['replayed']} replayed, "
              f"{s['simulated']} simulated (grid of {s['total']})")
        assert s["replayed"] == len(grid), "shared cells should replay"
        assert s["simulated"] == 2, "only the novel cells should simulate"

        # 3. Crash and rerun: kill a campaign partway, then run it again
        #    over the same store.  Every completed cell was stored before
        #    its on_result fired, so the rerun replays those and
        #    simulates the rest — same digest as never having died.
        class Killed(Exception):
            pass

        def kill_after(n):
            seen = []

            def hook(cell, replayed):
                seen.append(cell)
                if len(seen) >= n:
                    raise Killed

            return hook

        fresh = CampaignConfig(n_nodes=12, n_jobs=60, root_seed=9,
                               load_factor=1.1)
        baseline = run_campaign(fresh, grid, processes=1)
        crashed = DirectoryResultStore(f"{tmp}/crashed")
        try:
            run_campaign(fresh, grid, processes=1, cache=crashed,
                         on_result=kill_after(3))
        except Killed:
            pass
        print(f"killed after {len(crashed)} cells "
              f"(the store is durable per completed cell)")
        resumed = run_campaign(fresh, grid, processes=1, cache=crashed)
        assert campaign_digest(resumed) == campaign_digest(baseline), \
            "the rerun must equal the uninterrupted run"
        print(f"rerun: {crashed.hits} cells replayed, digest "
              f"{campaign_digest(resumed)[:16]}… (equals the uninterrupted run)")

        # 4. The ops report tallies the service traffic.
        report = obs.ops_report()["campaign"]
        print("\nops_report()['campaign']:")
        for key, value in report.items():
            print(f"  {key:<18}{value:>6.0f}")
        assert report["jobs_completed"] == 2
        assert report["cells_replayed"] == len(grid)


if __name__ == "__main__":
    main()
