"""Cache-hit accounting and warm-vs-cold identity for ``run_campaign``.

The service contract of ROADMAP item 1: a second campaign overlapping a
warmed store must simulate only novel cells (counted two independent
ways — a monkeypatched per-cell seam, ``campaign._simulate``, and the
``on_result`` replay flags), and every replayed cell must be
byte-identical to a cold simulation, on both store backends.  The
seeded end-to-end sweep (cold vs warm vs kill-and-resume, field by
field) lives in ``tests/diff_harness.py`` and is parametrized here.
"""

import dataclasses

import pytest

from repro.scheduler import (
    CampaignConfig,
    DirectoryResultStore,
    MemoryResultStore,
    Scenario,
    campaign_digest,
    run_campaign,
)
from repro.scheduler import campaign as campaign_module
from tests.diff_harness import assert_cache_equivalent

CONFIG = CampaignConfig(n_nodes=8, n_jobs=24, root_seed=5, load_factor=1.1)
CAP = 9e3

GRID_A = [
    Scenario(policy="fifo", seed_index=0),
    Scenario(policy="easy", cap_w=CAP, seed_index=0),
    Scenario(policy="power-aware", cap_w=CAP, seed_index=1),
]
# Overlaps A on two cells (one respelled), adds two novel ones.
GRID_B = [
    Scenario(policy="easy", cap_w=CAP, seed_index=0, label="respelled twin"),
    Scenario(policy="power-aware", cap_w=CAP, budget_w=CAP, seed_index=1),
    Scenario(policy="easy", seed_index=2),
    Scenario(policy="fifo", cap_w=CAP, seed_index=0),
]


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryResultStore()
    return DirectoryResultStore(tmp_path / "store")


@pytest.fixture
def count_runs(monkeypatch):
    """Count cells simulated through the campaign runner's per-cell seam."""
    calls = []
    real = campaign_module._simulate

    def counting(config, scenario, jobs, keep_result):
        calls.append(scenario)
        return real(config, scenario, jobs, keep_result)

    monkeypatch.setattr(campaign_module, "_simulate", counting)
    return calls


class TestHitAccounting:
    def test_second_overlapping_campaign_simulates_only_novel_cells(
            self, store, count_runs):
        run_campaign(CONFIG, GRID_A, processes=1, cache=store)
        assert len(count_runs) == len(GRID_A)

        count_runs.clear()
        flags = []
        results = run_campaign(CONFIG, GRID_B, processes=1, cache=store,
                               on_result=lambda cell, replayed: flags.append(replayed))
        # Cells 0 and 1 of GRID_B are (respelled) members of GRID_A.
        assert len(count_runs) == 2
        assert [s.label for s in count_runs] == ["", ""]
        assert flags == [True, True, False, False]
        assert [r.scenario for r in results] == GRID_B

    def test_warm_rerun_simulates_nothing(self, store, count_runs):
        cold = run_campaign(CONFIG, GRID_A, processes=1, cache=store)
        count_runs.clear()
        warm = run_campaign(CONFIG, GRID_A, processes=1, cache=store)
        assert count_runs == []
        assert campaign_digest(warm) == campaign_digest(cold)
        for a, b in zip(cold, warm):
            assert a.digest == b.digest
            assert a.qos == b.qos
            assert a.scenario == b.scenario

    def test_warm_digests_byte_identical_to_cache_less_run(self, store):
        baseline = run_campaign(CONFIG, GRID_A, processes=1)
        run_campaign(CONFIG, GRID_A, processes=1, cache=store)
        warm = run_campaign(CONFIG, GRID_A, processes=1, cache=store)
        assert campaign_digest(warm) == campaign_digest(baseline)

    def test_within_grid_duplicates_simulate_once(self, store, count_runs):
        twin = dataclasses.replace(GRID_A[1], label="twin")
        results = run_campaign(CONFIG, GRID_A + [twin], processes=1, cache=store)
        assert len(count_runs) == len(GRID_A)
        assert results[-1].digest == results[1].digest
        assert results[-1].scenario == twin  # requested spelling preserved

    def test_without_cache_duplicates_still_simulate(self, count_runs):
        twin = dataclasses.replace(GRID_A[1], label="twin")
        run_campaign(CONFIG, GRID_A + [twin], processes=1)
        assert len(count_runs) == len(GRID_A) + 1

    def test_store_counts_hits_and_misses(self, store):
        run_campaign(CONFIG, GRID_A, processes=1, cache=store)
        assert store.hits == 0
        assert store.misses == len(GRID_A)
        run_campaign(CONFIG, GRID_A, processes=1, cache=store)
        assert store.hits == len(GRID_A)


class TestKeepResultsInteraction:
    def test_metrics_only_hit_does_not_satisfy_keep_results(
            self, store, count_runs):
        run_campaign(CONFIG, GRID_A[:2], processes=1, cache=store)
        count_runs.clear()
        kept = run_campaign(CONFIG, GRID_A[:2], processes=1, cache=store,
                            keep_results=True)
        # Payload was never stored: both cells re-simulate and upgrade
        # the store in place...
        assert len(count_runs) == 2
        assert all(r.result is not None for r in kept)
        count_runs.clear()
        # ...after which payload-needing reruns are pure replays.
        again = run_campaign(CONFIG, GRID_A[:2], processes=1, cache=store,
                             keep_results=True)
        assert count_runs == []
        assert all(r.result is not None for r in again)
        assert campaign_digest(again) == campaign_digest(kept)

    def test_payload_hit_serves_metrics_only_request(self, store, count_runs):
        run_campaign(CONFIG, GRID_A[:2], processes=1, cache=store,
                     keep_results=True)
        count_runs.clear()
        bare = run_campaign(CONFIG, GRID_A[:2], processes=1, cache=store)
        assert count_runs == []
        # The replayed cells still carry the stored payload — harmless
        # extra data, never a missing one.
        assert all(r.digest for r in bare)


class TestPooledCache:
    def test_pooled_and_serial_cache_runs_agree(self, store):
        serial = run_campaign(CONFIG, GRID_B, processes=1, cache=store)
        pooled = run_campaign(CONFIG, GRID_B, processes=2)
        assert campaign_digest(serial) == campaign_digest(pooled)

    def test_pooled_warm_run_replays_everything(self, store):
        run_campaign(CONFIG, GRID_B, processes=2, cache=store)
        flags = []
        warm = run_campaign(CONFIG, GRID_B, processes=2, cache=store,
                            on_result=lambda cell, replayed: flags.append(replayed))
        assert flags == [True] * len(GRID_B)
        assert [r.scenario for r in warm] == GRID_B


class TestHarnessCacheMode:
    """The diff-harness cache sweep, pinned from pytest.

    CI additionally runs ``python tests/diff_harness.py --cache 50
    --bench-grids`` — 50 seeded grids plus the warm-rerun-0-cells check
    over the full E07b/E08a/E09a bench grids.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_cold_warm_resume_equivalence(self, seed):
        assert_cache_equivalent(seed)
