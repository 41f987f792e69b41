"""Online predictor training: recursive least squares with forgetting.

Fig. 4 shows the management node training job-to-power predictors from
the stream of finished jobs — a *continuous* process, not a one-shot
fit.  :class:`OnlineRidge` implements recursive least squares (RLS) with
an exponential forgetting factor: each completed job updates the model
in O(d^2) without refitting the history, and the forgetting factor lets
the model track non-stationary behaviour (new users, retuned codes,
seasonal input changes) that a frozen batch fit would mispredict.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..observability import Observability, null_observability
from ..scheduler.job import Job, JobRecord
from .features import FeatureEncoder

__all__ = ["OnlineRidge", "OnlineJobPowerModel"]

#: RLS forgetting factor: old evidence decays with a time constant of
#: ~1/(1 - 0.995) = 200 jobs.
FORGETTING = 0.995
#: Initial inverse-covariance scale (a weak prior on the weights).
DELTA = 1e3
#: Jobs the online model sees before it trusts its own predictions ...
MIN_SAMPLES = 10
#: ... and the conservative per-node prior it answers with until then.
PRIOR_PER_NODE_W = 1800.0


class OnlineRidge:
    """Recursive least squares on standardized-on-the-fly features.

    State: weight vector w and inverse covariance P, updated per sample
    with the forgetting factor :data:`FORGETTING`, which decays old
    evidence over ~200 samples (a factor of 1 would be ordinary RLS).
    """

    def __init__(self, n_features: int):
        if n_features < 1:
            raise ValueError("need at least one feature")
        self.n_features = int(n_features)
        # +1 for the intercept column.
        d = self.n_features + 1
        self.w = np.zeros(d)
        self.P = np.eye(d) * DELTA
        self.samples_seen = 0

    def _phi(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got {x.shape}")
        return np.concatenate([x, [1.0]])

    def update(self, x: np.ndarray, y: float) -> float:
        """Fold one (features, target) sample in; returns the prior error."""
        phi = self._phi(x)
        y_hat = float(self.w @ phi)
        error = float(y) - y_hat
        Pphi = self.P @ phi
        gain = Pphi / (FORGETTING + float(phi @ Pphi))
        self.w = self.w + gain * error
        self.P = (self.P - np.outer(gain, Pphi)) / FORGETTING
        # Symmetrize against numerical drift.
        self.P = (self.P + self.P.T) / 2.0
        self.samples_seen += 1
        return error

    def predict(self, x: np.ndarray) -> float:
        """Point prediction for one feature vector."""
        return float(self.w @ self._phi(x))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Point predictions for an (n, n_features) matrix in one matmul."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected (n, {self.n_features}) feature matrix, got {X.shape}")
        return X @ self.w[:-1] + self.w[-1]


class OnlineJobPowerModel:
    """The continuously-trained per-node power predictor of Fig. 4.

    Wire :meth:`observe` to the scheduler's ``on_job_end`` hook (or feed
    it accounting bills); call the instance as the power-aware
    dispatcher's predictor.  Before :data:`MIN_SAMPLES` jobs have been
    seen the model falls back to the conservative :data:`PRIOR_PER_NODE_W`.
    """

    def __init__(self, encoder: FeatureEncoder, obs: Optional[Observability] = None):
        self.encoder = encoder
        self.rls = OnlineRidge(encoder.n_features)
        # Observability handles, resolved once (no-op when not wired in).
        self.obs = obs if obs is not None else null_observability()
        m = self.obs.metrics
        self._m_updates = m.counter("predictor_updates_total")
        self._m_abs_error = m.histogram(
            "predictor_abs_error_w", bounds=(1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0)
        )

    def observe(self, record: JobRecord) -> float:
        """Learn from one finished job; returns the pre-update error (W)."""
        if record.end_time_s is None or record.start_time_s is None:
            raise ValueError("record has not finished")
        duration = record.actual_runtime_s
        if duration <= 0 or not record.nodes:
            return 0.0
        measured_per_node = record.energy_j / duration / len(record.nodes)
        x = self.encoder.encode(record.job)
        error = self.rls.update(x, measured_per_node)
        self._m_updates.inc()
        self._m_abs_error.observe(abs(error))
        return error

    def predict_per_node(self, job: Job) -> float:
        """Per-node prediction, clipped to the physical range."""
        if self.rls.samples_seen < MIN_SAMPLES:
            return PRIOR_PER_NODE_W
        raw = self.rls.predict(self.encoder.encode(job))
        return float(np.clip(raw, 300.0, 2200.0))

    def predict_per_node_batch(self, jobs: list[Job]) -> np.ndarray:
        """Per-node predictions for a whole queue in one matmul."""
        if self.rls.samples_seen < MIN_SAMPLES:
            return np.full(len(jobs), PRIOR_PER_NODE_W)
        raw = self.rls.predict_batch(self.encoder.encode_batch(jobs))
        return np.clip(raw, 300.0, 2200.0)

    def __call__(self, job: Job) -> float:
        """Total-power predictor interface for the dispatcher."""
        return job.n_nodes * self.predict_per_node(job)

    def predict_batch(self, jobs: list[Job]) -> np.ndarray:
        """Batched total-power predictor for the dispatcher's queue."""
        if not jobs:
            return np.empty(0)
        nodes = np.fromiter((j.n_nodes for j in jobs), float, count=len(jobs))
        return nodes * self.predict_per_node_batch(jobs)
