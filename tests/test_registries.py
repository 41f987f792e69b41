"""Name-addressed construction: how a cell's policy name becomes a policy.

A campaign cell names one of ``Scenario``'s policies and
``campaign._build_policy`` constructs it, wrapping it in energy
fair-share when the cell sets ``fairshare_decay``.  Searcher names go
through ``make_searcher``, tested with the explorer.
"""

import dataclasses

from repro.scheduler import (
    CampaignConfig,
    EasyBackfillScheduler,
    EnergyFairShareScheduler,
    FifoScheduler,
    PowerAwareScheduler,
    Scenario,
    run_campaign,
)
from repro.scheduler import campaign as campaign_module

CONFIG = CampaignConfig(n_nodes=16, n_jobs=50, root_seed=42, load_factor=1.1)


def build(scenario):
    return campaign_module._build_policy(CONFIG, scenario, [])


class TestPolicyRegistry:
    def test_make_policy_types(self):
        assert type(build(Scenario(policy="fifo"))) is FifoScheduler
        assert type(build(Scenario(policy="easy"))) is EasyBackfillScheduler
        assert type(build(Scenario(policy="power-aware", cap_w=20e3))) \
            is PowerAwareScheduler

    def test_make_policy_forwards_kwargs(self):
        easy = build(Scenario(policy="easy", backfill_depth=8))
        assert easy.backfill_depth == 8
        pa = build(Scenario(policy="power-aware", cap_w=20e3, budget_w=18e3,
                            backfill_depth=3))
        assert pa.cap_w == 18e3 and pa.backfill_depth == 3
        assert pa.idle_node_power_w == CONFIG.idle_node_power_w
        assert build(Scenario(policy="power-aware", cap_w=20e3)).cap_w == 20e3

    def test_fairshare_wraps_named_inner(self):
        policy = build(Scenario(policy="easy", backfill_depth=4,
                                fairshare_decay=3600.0))
        assert type(policy) is EnergyFairShareScheduler
        assert policy.name == "fairshare+easy-backfill"
        assert policy.half_life_s == 3600.0 and policy.energy_weighted
        assert policy.priority.total_nodes == CONFIG.n_nodes
        assert type(policy.inner) is EasyBackfillScheduler
        assert policy.inner.backfill_depth == 4

    def test_fairshare_wraps_instance(self):
        """The wrapper holds the policy the cell builds without it."""
        for cell in (
            Scenario(policy="fifo"),
            Scenario(policy="easy", backfill_depth=2),
            Scenario(policy="power-aware", cap_w=20e3, budget_w=18e3,
                     backfill_depth=3),
        ):
            plain = build(cell)
            policy = build(dataclasses.replace(cell, fairshare_decay=600.0))
            assert type(policy) is EnergyFairShareScheduler
            assert policy.name == f"fairshare+{plain.name}"
            assert type(policy.inner) is type(plain)
            assert getattr(policy.inner, "backfill_depth", None) \
                == getattr(plain, "backfill_depth", None)
            assert getattr(policy.inner, "cap_w", None) \
                == getattr(plain, "cap_w", None)

    def test_campaign_cells_compile_through_registry(self):
        """Campaign cells run on the policies ``_build_policy`` constructs,
        the fair-share wrap included."""
        config = CampaignConfig(n_nodes=4, n_jobs=8, root_seed=3,
                                load_factor=1.1)
        cells = [
            Scenario(policy="easy", backfill_depth=2),
            Scenario(policy="easy", fairshare_decay=3600.0),
        ]
        results = run_campaign(config, cells, processes=1)
        assert len(results) == 2 and all(r.digest for r in results)
