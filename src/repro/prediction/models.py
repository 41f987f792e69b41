"""Job-power regression models, implemented from scratch on NumPy.

Three predictors spanning the accuracy/complexity range of the cited
work ([17] uses ML regressors, [18] per-user statistical models):

* :class:`RidgeRegressor` — closed-form L2-regularised least squares on
  standardized features (the workhorse);
* :class:`KnnRegressor` — distance-weighted k-nearest-neighbours in the
  standardized feature space (captures the app x user interaction
  structure without a parametric form);
* :class:`PerKeyMeanPredictor` — the [18]-style historical model: the
  mean power of past runs grouped by (user, app), falling back to app
  mean, then the global mean.

All models fit per-node power; :meth:`predict_job_power` multiplies back
by the node count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scheduler.job import Job
from .features import FeatureEncoder

__all__ = ["RidgeRegressor", "KnnRegressor", "PerKeyMeanPredictor", "JobPowerModel"]

#: Neighbours a k-NN prediction averages over.
K_NEIGHBOURS = 5


class _Standardizer:
    """Column-wise z-scoring with zero-variance guards."""

    def fit(self, X: np.ndarray) -> "_Standardizer":
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.std_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean_) / self.std_


class RidgeRegressor:
    """Closed-form ridge regression: w = (X'X + lam I)^-1 X'y."""

    def __init__(self, lam: float = 1.0):
        if lam < 0:
            raise ValueError("regularisation strength must be non-negative")
        self.lam = float(lam)
        self._fitted = False

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and y (n,)")
        if X.shape[0] < 2:
            raise ValueError("need at least 2 training samples")
        self.scaler_ = _Standardizer().fit(X)
        Xs = self.scaler_.transform(X)
        self.y_mean_ = float(y.mean())
        yc = y - self.y_mean_
        d = Xs.shape[1]
        A = Xs.T @ Xs + self.lam * np.eye(d)
        self.coef_ = np.linalg.solve(A, Xs.T @ yc)
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("model not fitted")
        Xs = self.scaler_.transform(np.asarray(X, dtype=float))
        return Xs @ self.coef_ + self.y_mean_


class KnnRegressor:
    """Distance-weighted k-NN regression in standardized feature space,
    over the :data:`K_NEIGHBOURS` nearest training jobs."""

    def __init__(self):
        self._fitted = False

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KnnRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and y (n,)")
        if X.shape[0] < 1:
            raise ValueError("need at least one training sample")
        self.scaler_ = _Standardizer().fit(X)
        self.X_ = self.scaler_.transform(X)
        self.y_ = y.copy()
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("model not fitted")
        Xq = self.scaler_.transform(np.asarray(X, dtype=float))
        k = min(K_NEIGHBOURS, self.X_.shape[0])
        out = np.empty(Xq.shape[0])
        for i, q in enumerate(Xq):
            d2 = ((self.X_ - q) ** 2).sum(axis=1)
            idx = np.argpartition(d2, k - 1)[:k]
            w = 1.0 / (np.sqrt(d2[idx]) + 1e-9)
            out[i] = float((w * self.y_[idx]).sum() / w.sum())
        return out


class PerKeyMeanPredictor:
    """Historical per-(user, app) mean with hierarchical fallback."""

    def fit(self, jobs: list[Job]) -> "PerKeyMeanPredictor":
        if not jobs:
            raise ValueError("cannot fit on empty history")
        self.global_mean_ = float(np.mean([j.true_power_per_node_w for j in jobs]))
        by_key: dict[tuple[str, str], list[float]] = {}
        by_app: dict[str, list[float]] = {}
        for j in jobs:
            by_key.setdefault((j.user, j.app), []).append(j.true_power_per_node_w)
            by_app.setdefault(j.app, []).append(j.true_power_per_node_w)
        self.key_means_ = {k: float(np.mean(v)) for k, v in by_key.items()}
        self.app_means_ = {a: float(np.mean(v)) for a, v in by_app.items()}
        return self

    def predict_per_node(self, job: Job) -> float:
        """Per-node power prediction for one job."""
        if (job.user, job.app) in self.key_means_:
            return self.key_means_[(job.user, job.app)]
        if job.app in self.app_means_:
            return self.app_means_[job.app]
        return self.global_mean_


@dataclass
class JobPowerModel:
    """A fitted end-to-end predictor: Job -> predicted total watts.

    Wraps an encoder + regressor pair (or the per-key model) behind the
    single callable interface the power-aware scheduler consumes.
    """

    kind: str
    encoder: FeatureEncoder | None = None
    regressor: object | None = None
    per_key: PerKeyMeanPredictor | None = None

    @classmethod
    def fit_ridge(cls, jobs: list[Job], lam: float = 1.0) -> "JobPowerModel":
        """Train the ridge pipeline on a job history."""
        enc = FeatureEncoder().fit(jobs)
        reg = RidgeRegressor(lam=lam).fit(enc.encode_all(jobs), enc.target(jobs))
        return cls(kind="ridge", encoder=enc, regressor=reg)

    @classmethod
    def fit_knn(cls, jobs: list[Job]) -> "JobPowerModel":
        """Train the k-NN pipeline on a job history."""
        enc = FeatureEncoder().fit(jobs)
        reg = KnnRegressor().fit(enc.encode_all(jobs), enc.target(jobs))
        return cls(kind="knn", encoder=enc, regressor=reg)

    @classmethod
    def fit_per_key(cls, jobs: list[Job]) -> "JobPowerModel":
        """Train the per-(user, app) historical model."""
        return cls(kind="per-key", per_key=PerKeyMeanPredictor().fit(jobs))

    def predict_per_node(self, job: Job) -> float:
        """Predicted mean per-node power (watts), clipped to physical range."""
        if self.kind == "per-key":
            raw = self.per_key.predict_per_node(job)
        else:
            raw = float(self.regressor.predict(self.encoder.encode(job)[None, :])[0])
        return float(np.clip(raw, 300.0, 2200.0))

    def __call__(self, job: Job) -> float:
        """Predicted *total* job power — the scheduler's predictor interface."""
        return job.n_nodes * self.predict_per_node(job)

    def predict_batch(self, jobs: list[Job]) -> np.ndarray:
        """Batched total-power predictions for a whole queue.

        Ridge/k-NN pipelines encode the queue into one matrix and
        predict in one vectorized call; the per-key model has no matrix
        form and falls back to a per-job loop.
        """
        if not jobs:
            return np.empty(0)
        n = len(jobs)
        if self.kind == "per-key":
            per_node = np.fromiter(
                (self.per_key.predict_per_node(j) for j in jobs), float, count=n)
        else:
            per_node = np.asarray(
                self.regressor.predict(self.encoder.encode_batch(jobs)), dtype=float)
        per_node = np.clip(per_node, 300.0, 2200.0)
        nodes = np.fromiter((j.n_nodes for j in jobs), float, count=n)
        return nodes * per_node
