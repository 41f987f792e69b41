"""Tests for the online (RLS) job-power predictor."""

import numpy as np
import pytest

from repro.prediction import FeatureEncoder, OnlineJobPowerModel, OnlineRidge, online
from repro.scheduler import (
    ClusterSimulator,
    EasyBackfillScheduler,
    Job,
    JobRecord,
    WorkloadConfig,
    WorkloadGenerator,
)


class TestOnlineRidge:
    def test_learns_linear_relationship(self):
        rng = np.random.default_rng(0)
        rls = OnlineRidge(n_features=3)
        w_true = np.array([2.0, -1.0, 0.5])
        for _ in range(300):
            x = rng.normal(size=3)
            rls.update(x, float(w_true @ x + 4.0 + rng.normal(0, 0.01)))
        x_test = rng.normal(size=3)
        assert rls.predict(x_test) == pytest.approx(float(w_true @ x_test + 4.0), abs=0.1)

    def test_error_shrinks_with_samples(self):
        rng = np.random.default_rng(1)
        rls = OnlineRidge(n_features=2)
        w_true = np.array([1.5, -0.7])
        errors = []
        for _ in range(200):
            x = rng.normal(size=2)
            errors.append(abs(rls.update(x, float(w_true @ x))))
        assert np.mean(errors[-20:]) < np.mean(errors[:20]) / 10

    def test_forgetting_tracks_drift(self, monkeypatch):
        rng = np.random.default_rng(2)
        # Regime A for 200 samples, then the slope doubles.
        xs = rng.normal(size=(300, 1))
        ys = np.where(np.arange(300) < 200, 2.0, 4.0) * xs[:, 0]
        adaptive = OnlineRidge(n_features=1)  # forgets with FORGETTING = 0.995
        for x, y in zip(xs, ys):
            adaptive.update(x, float(y))
        monkeypatch.setattr(online, "FORGETTING", 1.0)  # ordinary RLS
        frozen = OnlineRidge(n_features=1)
        for x, y in zip(xs, ys):
            frozen.update(x, float(y))
        x_test = np.array([1.0])
        assert abs(adaptive.predict(x_test) - 4.0) < abs(frozen.predict(x_test) - 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineRidge(0)
        rls = OnlineRidge(2)
        with pytest.raises(ValueError):
            rls.update(np.zeros(3), 1.0)


class TestOnlineJobPowerModel:
    def finished_records(self, jobs):
        """Run the jobs so each record carries measured energy."""
        result = ClusterSimulator(45, EasyBackfillScheduler()).run(jobs)
        return list(result.records)

    def test_prior_before_enough_samples(self):
        jobs = WorkloadGenerator(WorkloadConfig(n_jobs=30), rng=np.random.default_rng(0)).generate()
        enc = FeatureEncoder().fit(jobs)
        model = OnlineJobPowerModel(enc)
        assert model.predict_per_node(jobs[0]) == 1800.0
        assert model(jobs[0]) == 1800.0 * jobs[0].n_nodes

    def test_accuracy_improves_over_the_stream(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=400), rng=np.random.default_rng(3)
        ).generate()
        enc = FeatureEncoder().fit(jobs)
        model = OnlineJobPowerModel(enc)
        records = self.finished_records(jobs)
        records.sort(key=lambda r: r.end_time_s)
        errors = []
        for rec in records:
            # Predict before observing (prequential evaluation).
            pred = model.predict_per_node(rec.job)
            errors.append(abs(pred - rec.job.true_power_per_node_w) / rec.job.true_power_per_node_w)
            model.observe(rec)
        early = np.mean(errors[10:60])
        late = np.mean(errors[-50:])
        assert late < early
        assert late < 0.10  # converges into the cited accuracy band

    def test_observe_requires_finished_record(self):
        jobs = WorkloadGenerator(WorkloadConfig(n_jobs=20), rng=np.random.default_rng(4)).generate()
        enc = FeatureEncoder().fit(jobs)
        model = OnlineJobPowerModel(enc)
        with pytest.raises(ValueError):
            model.observe(JobRecord(job=jobs[0]))

    def test_plugs_into_simulator_hooks(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=120), rng=np.random.default_rng(5)
        ).generate()
        enc = FeatureEncoder().fit(jobs)
        model = OnlineJobPowerModel(enc)
        sim = ClusterSimulator(45, EasyBackfillScheduler(), on_job_end=model.observe)
        sim.run(jobs)
        assert model.rls.samples_seen == 120
        # A trained prediction lands in the physical band.
        assert 300.0 <= model.predict_per_node(jobs[0]) <= 2200.0

    def test_prior_until_the_tenth_job_then_trained(self):
        """RLS warm-up: the first nine finished jobs leave the 1.8 kW
        prior in place for every prediction; the tenth switches the model
        to its own fit."""
        jobs = WorkloadGenerator(WorkloadConfig(n_jobs=40), rng=np.random.default_rng(6)).generate()
        enc = FeatureEncoder().fit(jobs)
        model = OnlineJobPowerModel(enc)
        records = self.finished_records(jobs)
        assert (online.MIN_SAMPLES, online.PRIOR_PER_NODE_W) == (10, 1800.0)
        for rec in records[:9]:
            model.observe(rec)
        assert model.rls.samples_seen == 9
        assert model.predict_per_node(jobs[0]) == 1800.0
        assert np.all(model.predict_per_node_batch(jobs) == 1800.0)
        model.observe(records[9])
        assert model.predict_per_node(jobs[0]) != 1800.0
        assert model.predict_per_node_batch(jobs)[0] == model.predict_per_node(jobs[0])
