"""Tests for job-power feature encoding, regressors and evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.prediction import (
    FeatureEncoder,
    JobPowerModel,
    KnnRegressor,
    PerKeyMeanPredictor,
    RidgeRegressor,
    chronological_split,
    evaluate_model,
    score_predictions,
)
from repro.scheduler import Job, WorkloadConfig, WorkloadGenerator


def job_stream(n=300, seed=0):
    return WorkloadGenerator(WorkloadConfig(n_jobs=n), rng=np.random.default_rng(seed)).generate()


class TestFeatureEncoder:
    def test_fit_required_before_use(self):
        enc = FeatureEncoder()
        with pytest.raises(RuntimeError):
            enc.encode(job_stream(10)[0])
        with pytest.raises(ValueError):
            enc.fit([])

    def test_dimensions_and_names(self):
        jobs = job_stream(50)
        enc = FeatureEncoder().fit(jobs)
        vec = enc.encode(jobs[0])
        assert vec.shape == (enc.n_features,)
        # Four numeric columns, then one-hot app and user blocks.
        assert enc.n_features == 4 + len(enc._apps) + len(enc._users)

    def test_one_hot_blocks(self):
        jobs = job_stream(100)
        enc = FeatureEncoder().fit(jobs)
        vec = enc.encode(jobs[0])
        n_apps = len(enc._apps)
        app_block = vec[4: 4 + n_apps]
        assert app_block.sum() == 1.0

    def test_unknown_category_maps_to_zeros(self):
        jobs = job_stream(50)
        enc = FeatureEncoder().fit(jobs)
        alien = Job(
            job_id=9999, user="stranger", app="mystery", n_nodes=2,
            walltime_req_s=100.0, submit_time_s=0.0,
            true_runtime_s=50.0, true_power_per_node_w=1000.0,
        )
        vec = enc.encode(alien)
        assert vec[4:].sum() == 0.0

    def test_encode_all_shape(self):
        jobs = job_stream(20)
        enc = FeatureEncoder().fit(jobs)
        X = enc.encode_all(jobs)
        assert X.shape == (20, enc.n_features)
        with pytest.raises(ValueError):
            enc.encode_all([])


class TestRidge:
    def test_recovers_linear_relationship(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 5.0 + rng.normal(0, 0.01, 200)
        model = RidgeRegressor(lam=1e-6).fit(X, y)
        pred = model.predict(X)
        assert np.sqrt(np.mean((pred - y) ** 2)) < 0.05

    def test_regularisation_shrinks_coefficients(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 4))
        y = X @ np.array([3.0, -2.0, 1.0, 0.5]) + rng.normal(0, 0.1, 50)
        loose = RidgeRegressor(lam=1e-6).fit(X, y)
        tight = RidgeRegressor(lam=1e3).fit(X, y)
        assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)

    def test_validation(self):
        with pytest.raises(ValueError):
            RidgeRegressor(lam=-1.0)
        with pytest.raises(ValueError):
            RidgeRegressor().fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            RidgeRegressor().fit(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(RuntimeError):
            RidgeRegressor().predict(np.zeros((1, 2)))

    def test_constant_feature_handled(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        y = np.arange(10, dtype=float)
        model = RidgeRegressor(lam=0.1).fit(X, y)
        assert np.all(np.isfinite(model.predict(X)))


class TestKnn:
    def test_exact_neighbor_lookup(self, monkeypatch):
        from repro.prediction import models

        X = np.array([[0.0], [1.0], [2.0], [10.0]])
        y = np.array([0.0, 1.0, 2.0, 10.0])
        monkeypatch.setattr(models, "K_NEIGHBOURS", 1)
        model = KnnRegressor().fit(X, y)
        assert model.predict(np.array([[1.9]]))[0] == pytest.approx(2.0)

    def test_k_larger_than_dataset_clamped(self):
        # Two training points under the five neighbours a prediction asks for.
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 2.0])
        model = KnnRegressor().fit(X, y)
        assert 0.0 < model.predict(np.array([[0.5]]))[0] < 2.0

    def test_validation(self):
        with pytest.raises(RuntimeError):
            KnnRegressor().predict(np.zeros((1, 1)))


class TestPerKeyMean:
    def test_hierarchy_of_fallbacks(self):
        jobs = job_stream(200)
        model = PerKeyMeanPredictor().fit(jobs)
        known = jobs[0]
        assert model.predict_per_node(known) > 0
        # Unknown user, known app -> app mean.
        odd = Job(job_id=1, user="nobody", app=jobs[0].app, n_nodes=1,
                  walltime_req_s=10.0, submit_time_s=0.0,
                  true_runtime_s=5.0, true_power_per_node_w=1.0)
        assert model.predict_per_node(odd) == pytest.approx(model.app_means_[jobs[0].app])
        # Unknown everything -> global mean.
        alien = Job(job_id=2, user="nobody", app="mystery", n_nodes=1,
                    walltime_req_s=10.0, submit_time_s=0.0,
                    true_runtime_s=5.0, true_power_per_node_w=1.0)
        assert model.predict_per_node(alien) == pytest.approx(model.global_mean_)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            PerKeyMeanPredictor().fit([])


class TestEndToEnd:
    def test_trained_models_beat_global_mean(self):
        jobs = job_stream(500, seed=3)
        train, test = chronological_split(jobs, 0.6)
        global_mean = float(np.mean([j.true_power_per_node_w for j in train]))
        baseline = evaluate_model("mean", lambda j: global_mean, test)
        for factory in (JobPowerModel.fit_ridge, JobPowerModel.fit_knn, JobPowerModel.fit_per_key):
            model = factory(train)
            score = evaluate_model(model.kind, model.predict_per_node, test)
            assert score.mape < baseline.mape

    def test_mape_in_cited_band(self):
        # Refs [17][18] report ~5-20% MAPE for submission-time predictors.
        jobs = job_stream(500, seed=4)
        train, test = chronological_split(jobs, 0.6)
        model = JobPowerModel.fit_ridge(train)
        score = evaluate_model("ridge", model.predict_per_node, test)
        assert score.mape < 0.20

    def test_total_power_interface(self):
        jobs = job_stream(100, seed=5)
        model = JobPowerModel.fit_ridge(jobs)
        j = jobs[0]
        assert model(j) == pytest.approx(j.n_nodes * model.predict_per_node(j))

    def test_predictions_clipped_to_physical_range(self):
        jobs = job_stream(100, seed=6)
        model = JobPowerModel.fit_ridge(jobs)
        extreme = Job(job_id=0, user=jobs[0].user, app=jobs[0].app, n_nodes=16,
                      walltime_req_s=86400.0, submit_time_s=0.0, threads_per_rank=8,
                      true_runtime_s=3600.0, true_power_per_node_w=1500.0)
        assert 300.0 <= model.predict_per_node(extreme) <= 2200.0


class TestEvaluation:
    def test_score_fields(self):
        s = score_predictions("x", np.array([110.0, 90.0]), np.array([100.0, 100.0]))
        assert s.mape == pytest.approx(0.1)
        assert s.bias_w == pytest.approx(0.0)
        assert s.underprediction_rate == pytest.approx(0.5)
        assert s.rmse_w == pytest.approx(10.0)

    def test_score_validation(self):
        with pytest.raises(ValueError):
            score_predictions("x", np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            score_predictions("x", np.array([]), np.array([]))
        with pytest.raises(ValueError):
            score_predictions("x", np.array([1.0]), np.array([0.0]))

    def test_chronological_split_ordering(self):
        jobs = job_stream(100, seed=7)
        train, test = chronological_split(jobs, 0.7)
        assert len(train) + len(test) == 100
        assert max(j.submit_time_s for j in train) <= min(j.submit_time_s for j in test)

    def test_split_validation(self):
        jobs = job_stream(10)
        with pytest.raises(ValueError):
            chronological_split(jobs, 0.0)
        with pytest.raises(ValueError):
            chronological_split(jobs[:2], 0.5)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_split_fraction_respected(self, frac):
        jobs = job_stream(100, seed=8)
        train, test = chronological_split(jobs, frac)
        assert len(train) == pytest.approx(100 * frac, abs=1.001)
        assert len(test) >= 1
