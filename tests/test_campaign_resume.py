"""Kill-and-rerun fuzz for campaigns over a content-addressed store.

A campaign killed after an arbitrary number of completed cells and then
run again over the same ``DirectoryResultStore`` must be
indistinguishable from one that never died: same ``campaign_digest``,
same per-cell ``result_digest``s, in the same submission order.  The
kill is simulated by an ``on_result`` callback that raises after N
cells — the runner stores each novel cell before ``on_result`` fires,
so cell N is already on disk by then, which is exactly the durability
contract being pinned.
"""

import dataclasses
import random

import pytest

from repro.scheduler import (
    CampaignConfig,
    DirectoryResultStore,
    Scenario,
    campaign_digest,
    run_campaign,
    scenario_key,
)

CONFIG = CampaignConfig(n_nodes=8, n_jobs=18, root_seed=7, load_factor=1.1)

# The 3x3x4 fuzz grid: 3 policies x 3 caps x 4 seed indices.
GRID = [
    Scenario(policy=policy, cap_w=cap, seed_index=s)
    for policy in ("fifo", "easy", "power-aware")
    for cap in (8e3, 10e3, 12e3)
    for s in range(4)
]


class Killed(Exception):
    pass


def kill_after(n):
    seen = []

    def hook(cell, replayed):
        seen.append(cell)
        if len(seen) >= n:
            raise Killed

    return hook


def killed_store(path, n, processes=1):
    """A store left behind by a run of ``GRID`` killed after ``n`` cells."""
    store = DirectoryResultStore(path)
    with pytest.raises(Killed):
        run_campaign(CONFIG, GRID, processes=processes, cache=store,
                     on_result=kill_after(n))
    return store


@pytest.fixture(scope="module")
def uninterrupted():
    results = run_campaign(CONFIG, GRID, processes=1)
    return results, campaign_digest(results)


class TestCrashResumeFuzz:
    @pytest.mark.parametrize("kill_seed", range(10))
    def test_killed_and_resumed_equals_uninterrupted(
            self, kill_seed, uninterrupted, tmp_path):
        baseline, baseline_digest = uninterrupted
        n = random.Random(kill_seed).randrange(1, len(GRID))

        store = killed_store(tmp_path / "store", n)
        assert len(store) == n  # every completed cell was durable

        resumed = run_campaign(CONFIG, GRID, processes=1, cache=store)
        assert campaign_digest(resumed) == baseline_digest
        for want, got in zip(baseline, resumed):
            assert got.digest == want.digest
            assert got.scenario == want.scenario

    def test_resume_replays_checkpointed_cells(self, tmp_path):
        n = 5
        store = killed_store(tmp_path / "store", n)
        flags = []
        run_campaign(CONFIG, GRID, processes=1, cache=store,
                     on_result=lambda cell, replayed: flags.append(replayed))
        assert flags[:n] == [True] * n
        assert flags[n:] == [False] * (len(GRID) - n)

    def test_resume_after_complete_simulates_nothing(
            self, uninterrupted, tmp_path):
        _, baseline_digest = uninterrupted
        store = DirectoryResultStore(tmp_path / "store")
        run_campaign(CONFIG, GRID, processes=1, cache=store)
        assert len(store) == len(GRID)
        flags = []
        again = run_campaign(CONFIG, GRID, processes=1, cache=store,
                             on_result=lambda cell, replayed: flags.append(replayed))
        assert flags == [True] * len(GRID)
        assert campaign_digest(again) == baseline_digest

    def test_pooled_kill_and_resume(self, uninterrupted, tmp_path):
        _, baseline_digest = uninterrupted
        store = killed_store(tmp_path / "store", 7, processes=2)
        assert len(store) >= 7
        resumed = run_campaign(CONFIG, GRID, processes=2, cache=store)
        assert campaign_digest(resumed) == baseline_digest


class TestResumeGuards:
    def test_other_campaigns_replay_only_the_keys_they_share(self, tmp_path):
        """Another root seed shares no key with the killed run and a
        shorter grid shares the cells the killed run finished: each
        replays exactly those and lands on its own cold digest."""
        store = killed_store(tmp_path / "store", 5)
        other_seed = dataclasses.replace(CONFIG, root_seed=8)
        for config, grid, replays in ((other_seed, GRID, 0),
                                      (CONFIG, GRID[:-1], 5)):
            stored = set(store.keys())
            flags = []
            results = run_campaign(
                config, grid, processes=1, cache=store,
                on_result=lambda cell, replayed: flags.append(replayed))
            assert flags == [scenario_key(config, s) in stored for s in grid]
            assert flags.count(True) == replays
            assert campaign_digest(results) == campaign_digest(
                run_campaign(config, grid, processes=1))

    def test_checkpoint_survives_reopen(self, tmp_path):
        killed_store(tmp_path / "store", 4)
        # A fresh process sees the same durable state through a new handle.
        reopened = DirectoryResultStore(tmp_path / "store")
        assert len(reopened) == 4
        resumed = run_campaign(CONFIG, GRID, processes=1, cache=reopened)
        assert len(resumed) == len(GRID)
        assert (reopened.hits, reopened.misses) == (4, len(GRID) - 4)
