"""The campaign service: submit → poll → merged artifact.

Pins the client-visible contract of :class:`CampaignService`: results
match a direct ``run_campaign`` byte for byte, overlapping submissions
replay from the shared store, failures surface through the handle
instead of killing the service, and the whole thing is observable via
the ``campaign`` section of ``ops_report()``.
"""

import pytest

from repro.observability import Observability
from repro.scheduler import (
    CampaignConfig,
    CampaignService,
    DirectoryResultStore,
    Scenario,
    campaign_digest,
    run_campaign,
)

CONFIG = CampaignConfig(n_nodes=8, n_jobs=24, root_seed=5, load_factor=1.1)
CAP = 9e3

GRID = [
    Scenario(policy="fifo", seed_index=0),
    Scenario(policy="easy", cap_w=CAP, seed_index=0),
    Scenario(policy="power-aware", cap_w=CAP, seed_index=1),
]

TIMEOUT = 120.0


class TestSubmitPollResult:
    def test_result_matches_direct_run_campaign(self):
        direct = run_campaign(CONFIG, GRID, processes=1)
        service = CampaignService(processes=1)
        job = service.submit(CONFIG, GRID, label="smoke")
        results = service.result(job, timeout=TIMEOUT)
        assert campaign_digest(results) == campaign_digest(direct)
        assert [r.scenario for r in results] == GRID

    def test_poll_reaches_done_with_full_progress(self):
        service = CampaignService(processes=1)
        job = service.submit(CONFIG, GRID, label="polled")
        assert job.wait(TIMEOUT)
        status = job.status()
        assert status["state"] == "done"
        assert status["label"] == "polled"
        assert status["total"] == len(GRID)
        assert status["completed"] == len(GRID)
        assert status["simulated"] == len(GRID)
        assert status["replayed"] == 0
        assert status["campaign_digest"]
        assert status["error"] is None

    def test_second_overlapping_submission_replays(self):
        service = CampaignService(processes=1)
        first = service.submit(CONFIG, GRID)
        service.result(first, timeout=TIMEOUT)
        second = service.submit(CONFIG, GRID)
        results = service.result(second, timeout=TIMEOUT)
        status = second.status()
        assert status["replayed"] == len(GRID)
        assert status["simulated"] == 0
        assert campaign_digest(results) == first.status()["campaign_digest"]

    def test_disk_store_backed_service(self, tmp_path):
        store = DirectoryResultStore(tmp_path / "store")
        warm = CampaignService(store=store, processes=1)
        first = warm.submit(CONFIG, GRID)
        warm.result(first, timeout=TIMEOUT)
        # A brand-new service over the same directory starts warm.
        reopened = CampaignService(
            store=DirectoryResultStore(tmp_path / "store"), processes=1)
        job = reopened.submit(CONFIG, GRID)
        reopened.result(job, timeout=TIMEOUT)
        assert job.status()["simulated"] == 0


class TestFailurePath:
    # split = int(24 * 0.01) = 0 -> "train fraction leaves an empty split"
    BAD = Scenario(policy="power-aware", cap_w=CAP, predictor="ridge",
                   train_fraction=0.01)

    def test_failure_surfaces_through_handle(self):
        service = CampaignService(processes=1)
        job = service.submit(CONFIG, [self.BAD])
        assert job.wait(TIMEOUT)
        status = job.status()
        assert status["state"] == "failed"
        assert "empty split" in status["error"]
        with pytest.raises(RuntimeError, match="failed"):
            service.result(job, timeout=TIMEOUT)

    def test_failed_job_does_not_poison_the_service(self):
        service = CampaignService(processes=1)
        bad = service.submit(CONFIG, [self.BAD])
        assert bad.wait(TIMEOUT)
        good = service.submit(CONFIG, GRID[:1])
        results = service.result(good, timeout=TIMEOUT)
        assert len(results) == 1
        assert good.status()["state"] == "done"


class TestObservability:
    def test_ops_report_campaign_section(self):
        obs = Observability()
        service = CampaignService(observability=obs, processes=1)
        first = service.submit(CONFIG, GRID)
        service.result(first, timeout=TIMEOUT)
        second = service.submit(CONFIG, GRID)
        service.result(second, timeout=TIMEOUT)
        bad = service.submit(CONFIG, [TestFailurePath.BAD])
        bad.wait(TIMEOUT)
        section = obs.ops_report()["campaign"]
        assert section["jobs_submitted"] == 3
        assert section["jobs_completed"] == 2
        assert section["jobs_failed"] == 1
        assert section["cells_completed"] == 2 * len(GRID)
        assert section["cells_simulated"] == len(GRID)
        assert section["cells_replayed"] == len(GRID)
