"""Submission-time feature encoding for job-power prediction.

Refs [17][18]: "job power consumption can be estimated before job
execution, based on user's request and at job submission information."

Everything here is visible at ``sbatch`` time: the user name, the
application/binary tag, node count, requested walltime, threads per rank
and whether GPUs are requested.  Categorical fields are one-hot encoded
against a vocabulary learned from the training set (unknown categories at
predict time map to the all-zeros column block, the standard fallback).
"""

from __future__ import annotations

import numpy as np

from ..scheduler.job import Job

__all__ = ["FeatureEncoder"]


class FeatureEncoder:
    """Deterministic job -> feature-vector encoder with learned vocabularies."""

    def __init__(self) -> None:
        self._users: dict[str, int] = {}
        self._apps: dict[str, int] = {}
        self._fitted = False

    # -- vocabulary -----------------------------------------------------------
    def fit(self, jobs: list[Job]) -> "FeatureEncoder":
        """Learn the user/app vocabularies from a training set."""
        if not jobs:
            raise ValueError("cannot fit on an empty job list")
        self._users = {u: i for i, u in enumerate(sorted({j.user for j in jobs}))}
        self._apps = {a: i for i, a in enumerate(sorted({j.app for j in jobs}))}
        self._fitted = True
        return self

    @property
    def n_features(self) -> int:
        """Dimensionality of the encoded vectors."""
        self._require_fitted()
        return 4 + len(self._apps) + len(self._users)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("encoder not fitted; call fit() first")

    # -- encoding ------------------------------------------------------------------
    def encode(self, job: Job) -> np.ndarray:
        """Encode one job."""
        self._require_fitted()
        numeric = np.array(
            [
                np.log2(job.n_nodes),
                np.log10(job.walltime_req_s),
                np.log2(job.threads_per_rank),
                1.0 if job.uses_gpus else 0.0,
            ]
        )
        app_block = np.zeros(len(self._apps))
        if job.app in self._apps:
            app_block[self._apps[job.app]] = 1.0
        user_block = np.zeros(len(self._users))
        if job.user in self._users:
            user_block[self._users[job.user]] = 1.0
        return np.concatenate([numeric, app_block, user_block])

    def encode_all(self, jobs: list[Job]) -> np.ndarray:
        """Encode a batch into an (n_jobs, n_features) matrix."""
        if not jobs:
            raise ValueError("empty job list")
        return np.vstack([self.encode(j) for j in jobs])

    def encode_batch(self, jobs: list[Job]) -> np.ndarray:
        """Vectorized :meth:`encode_all`: one (n_jobs, n_features) matrix
        built column-block-wise with no per-job Python vector assembly.

        Row ``i`` equals ``encode(jobs[i])`` up to float rounding (the
        numeric transforms are ufunc-evaluated; one-hot blocks are
        exact), so per-job and batch predictions agree to ``allclose``.
        """
        self._require_fitted()
        if not jobs:
            raise ValueError("empty job list")
        n = len(jobs)
        out = np.zeros((n, self.n_features))
        out[:, 0] = np.log2(np.fromiter((j.n_nodes for j in jobs), float, count=n))
        out[:, 1] = np.log10(np.fromiter((j.walltime_req_s for j in jobs), float, count=n))
        out[:, 2] = np.log2(np.fromiter((j.threads_per_rank for j in jobs), float, count=n))
        out[:, 3] = np.fromiter((1.0 if j.uses_gpus else 0.0 for j in jobs), float, count=n)
        app_base, user_base = 4, 4 + len(self._apps)
        rows = np.arange(n)
        app_idx = np.fromiter(
            (self._apps.get(j.app, -1) for j in jobs), dtype=int, count=n)
        known = app_idx >= 0
        out[rows[known], app_base + app_idx[known]] = 1.0
        user_idx = np.fromiter(
            (self._users.get(j.user, -1) for j in jobs), dtype=int, count=n)
        known = user_idx >= 0
        out[rows[known], user_base + user_idx[known]] = 1.0
        return out

    @staticmethod
    def target(jobs: list[Job]) -> np.ndarray:
        """The regression target: true mean power *per node* in watts.

        Per-node power is the learnable quantity (total power is just
        per-node x the known node count), matching refs [17][18].
        """
        return np.array([j.true_power_per_node_w for j in jobs])
