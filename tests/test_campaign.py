"""Determinism and merge-order guarantees of the campaign runner.

DESIGN.md §9: a campaign's results must depend only on (config, grid) —
never on the pool size, the start method, or completion order.  The
root seed fans out to per-scenario ``SeedSequence`` streams, results
merge in submission order, and the campaign digest is the single string
that certifies all of it.
"""

import functools
import pickle

import numpy as np
import pytest

from repro.scheduler import (
    POLICIES,
    CampaignConfig,
    ClusterSimulator,
    FifoScheduler,
    NodeOutage,
    Scenario,
    campaign_digest,
    result_digest,
    run_campaign,
    WorkloadGenerator,
    run_scenario,
    scenario_rng,
    scenario_workload,
)
from repro.scheduler import campaign as campaign_module

CONFIG = CampaignConfig(n_nodes=16, n_jobs=50, root_seed=42, load_factor=1.1)

GRID = [
    Scenario(policy="fifo", seed_index=0),
    Scenario(policy="fifo", cap_w=20e3, seed_index=0),
    Scenario(policy="easy", cap_w=20e3, seed_index=1),
    Scenario(policy="power-aware", cap_w=20e3, seed_index=1),
    Scenario(policy="power-aware", budget_w=20e3, seed_index=0,
             predictor="nameplate:2000"),
    Scenario(policy="easy", cap_w=18e3, seed_index=2,
             node_outages=(NodeOutage(at_s=5000.0, node_id=1, duration_s=2000.0),)),
]


class TestDeterminism:
    def test_scenario_rng_is_stable(self):
        a = scenario_rng(42, 3).random(8)
        b = scenario_rng(42, 3).random(8)
        assert np.array_equal(a, b)
        # Different indices give different (independent) streams.
        assert not np.array_equal(a, scenario_rng(42, 4).random(8))

    def test_same_seed_index_pairs_workloads_across_cells(self):
        """Every policy/cap cell at one seed_index sees the same jobs."""
        w1 = scenario_workload(CONFIG, Scenario(policy="fifo", seed_index=1))
        w2 = scenario_workload(
            CONFIG, Scenario(policy="easy", cap_w=20e3, seed_index=1))
        assert [j.job_id for j in w1] == [j.job_id for j in w2]
        assert [j.true_power_w for j in w1] == [j.true_power_w for j in w2]
        assert [j.submit_time_s for j in w1] == [j.submit_time_s for j in w2]

    def test_pool_size_does_not_change_results(self):
        serial = run_campaign(CONFIG, GRID, processes=1)
        pool2 = run_campaign(CONFIG, GRID, processes=2)
        pool3 = run_campaign(CONFIG, GRID, processes=3)
        assert campaign_digest(serial) == campaign_digest(pool2)
        assert campaign_digest(serial) == campaign_digest(pool3)
        for a, b in zip(serial, pool2):
            assert a.scenario == b.scenario
            assert a.qos == b.qos
            assert a.digest == b.digest

    def test_merge_preserves_submission_order(self):
        results = run_campaign(CONFIG, GRID, processes=2)
        assert [r.scenario for r in results] == GRID

    def test_rerun_is_bit_stable(self):
        first = run_campaign(CONFIG, GRID[:3], processes=1)
        second = run_campaign(CONFIG, GRID[:3], processes=1)
        assert campaign_digest(first) == campaign_digest(second)


#: Cells on two shared seeds, each exercising a different reader of the
#: stream: the ridge training split, outages and the fair-share wrapper.
MIXED_GRID = [
    Scenario(policy="power-aware", cap_w=20e3, predictor="ridge",
             train_fraction=0.4, seed_index=0),
    Scenario(policy="easy", cap_w=18e3, seed_index=1,
             node_outages=(NodeOutage(at_s=5000.0, node_id=1, duration_s=2000.0),)),
    Scenario(policy="easy", seed_index=0, fairshare_decay=3600.0),
    Scenario(policy="fifo", cap_w=20e3, seed_index=1),
    Scenario(policy="power-aware", cap_w=20e3, predictor="ridge", train_fraction=0.3,
             seed_index=1, fairshare_decay=1800.0),
    Scenario(policy="easy", cap_w=20e3, seed_index=0,
             node_outages=(NodeOutage(at_s=100.0, node_id=0, duration_s=9000.0),)),
]


class TestStreamSharing:
    """The serial path generates each seed's stream once per call and
    hands it to every cell on that seed."""

    def test_each_seed_generates_once_per_call(self, monkeypatch):
        calls = []
        real = WorkloadGenerator.generate

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(WorkloadGenerator, "generate", counting)
        grid = [
            Scenario(policy="fifo", seed_index=0),
            Scenario(policy="easy", cap_w=20e3, seed_index=1),
            Scenario(policy="easy", cap_w=20e3, seed_index=0),
            Scenario(policy="fifo", cap_w=20e3, seed_index=1),
        ]
        run_campaign(CONFIG, grid, processes=1)
        assert len(calls) == 2
        # Nothing is cached across calls: a second call generates again.
        run_campaign(CONFIG, grid, processes=1)
        assert len(calls) == 4

    def test_shared_stream_is_left_as_generated(self, monkeypatch):
        seen = []
        real = campaign_module._simulate

        def capturing(config, scenario, jobs, keep_result):
            seen.append((scenario, jobs))
            return real(config, scenario, jobs, keep_result)

        monkeypatch.setattr(campaign_module, "_simulate", capturing)
        run_campaign(CONFIG, MIXED_GRID, processes=1)
        assert [s for s, _ in seen] == MIXED_GRID
        by_seed = {}
        for scenario, jobs in seen:
            assert by_seed.setdefault(scenario.seed_index, jobs) is jobs
        for scenario, jobs in seen:
            assert jobs == scenario_workload(CONFIG, scenario)

    def test_shared_streams_give_per_cell_digests(self):
        shared = run_campaign(CONFIG, MIXED_GRID, processes=1)
        alone = [run_scenario(CONFIG, s) for s in MIXED_GRID]
        assert [r.digest for r in shared] == [r.digest for r in alone]
        assert [r.qos for r in shared] == [r.qos for r in alone]


class TestScenarioSemantics:
    def test_every_grid_cell_is_core_invariant(self, monkeypatch):
        """Every cell runs the array core; the reference core, swapped
        in under the campaign runner, gives the same digest and QoS at
        *every* cell, the ridge split, outages and fair-share included."""
        grid = GRID + MIXED_GRID
        array = run_campaign(CONFIG, grid, processes=1)
        monkeypatch.setattr(campaign_module, "ClusterSimulator",
                            functools.partial(ClusterSimulator, core="reference"))
        reference = run_campaign(CONFIG, grid, processes=1)
        assert [r.digest for r in reference] == [r.digest for r in array]
        assert [r.qos for r in reference] == [r.qos for r in array]

    def test_result_digest_detects_changes(self):
        jobs = scenario_workload(CONFIG, Scenario(policy="fifo"))
        a = ClusterSimulator(CONFIG.n_nodes, FifoScheduler()).run(jobs)
        b = ClusterSimulator(CONFIG.n_nodes, FifoScheduler(), cap_w=20e3).run(jobs)
        assert result_digest(a) != result_digest(b)
        assert result_digest(a) == result_digest(a)

    def test_train_fraction_splits_chronologically(self):
        res = run_scenario(
            CONFIG,
            Scenario(policy="power-aware", cap_w=20e3,
                     predictor="ridge", train_fraction=0.4),
        )
        assert res.qos["n_jobs"] == CONFIG.n_jobs - int(CONFIG.n_jobs * 0.4)

    def test_qos_summary_keys(self):
        res = run_scenario(CONFIG, Scenario(policy="fifo", cap_w=20e3))
        for key in ("mean_wait_s", "p95_wait_s", "mean_bounded_slowdown",
                    "mean_stretch", "peak_power_w", "mean_power_w",
                    "makespan_s", "total_energy_j", "utilization",
                    "overdemand_s", "cap_violation_fraction", "n_requeues"):
            assert key in res.qos
        assert res.qos["peak_power_w"] <= 20e3 * 1.001

    def test_empty_grid(self):
        assert run_campaign(CONFIG, []) == []


class TestKeepAndMerge:
    def test_keep_results_carries_full_results_through_the_pool(self):
        results = run_campaign(CONFIG, GRID[:3], processes=2, keep_results=True)
        for r in results:
            assert r.result is not None
            assert len(r.result.records) == CONFIG.n_jobs
            assert result_digest(r.result) == r.digest

    def test_default_drops_result_payload(self):
        results = run_campaign(CONFIG, GRID[:2], processes=1)
        assert all(r.result is None for r in results)

    def test_qos_caches_rebuild_after_pickle(self):
        """Regression: SimulationResult drops its QoS caches on pickle
        (the pool round-trips every kept result), so a merged shard must
        serve cache-backed metrics identical to a never-pickled run."""
        local = run_scenario(CONFIG, GRID[1], keep_result=True)
        pooled = run_campaign(CONFIG, GRID[:2], processes=2,
                              keep_results=True)[1]
        roundtrip = pickle.loads(pickle.dumps(local.result))
        for metric in ("mean_wait_s", "p95_wait_s", "mean_bounded_slowdown",
                       "mean_stretch", "cap_violation_fraction"):
            want = getattr(local.result, metric)()
            assert getattr(pooled.result, metric)() == want
            assert getattr(roundtrip, metric)() == want


class TestBuildPolicy:
    """Cells name only ``Scenario``'s own policies; ``_build_policy``'s
    construction of each is tested in tests/test_registries.py."""

    def test_policy_names_are_the_scenarios_own(self):
        assert POLICIES == ("fifo", "easy", "power-aware")
        for name in POLICIES:
            Scenario(policy=name, cap_w=20e3)
        with pytest.raises(ValueError, match="unknown policy 'fairshare'"):
            Scenario(policy="fairshare")


class TestValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            Scenario(policy="sjf")

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            Scenario(policy="power-aware", cap_w=1e3, predictor="gpt")

    def test_power_aware_needs_budget(self):
        with pytest.raises(ValueError, match="budget_w or cap_w"):
            Scenario(policy="power-aware")

    def test_ridge_needs_training_split(self):
        with pytest.raises(ValueError, match="train_fraction"):
            Scenario(policy="power-aware", cap_w=1e3, predictor="ridge")

    def test_bad_train_fraction_rejected(self):
        with pytest.raises(ValueError, match="train fraction"):
            Scenario(policy="fifo", train_fraction=1.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(n_nodes=0, n_jobs=10)
