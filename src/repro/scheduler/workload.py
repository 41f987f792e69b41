"""Synthetic workload generator: the stand-in for CINECA's job traces.

The real D.A.V.I.D.E. production traces are proprietary; this generator
produces statistically realistic job streams with the documented
structure of Tier-0 HPC workloads:

* Poisson arrivals (configurable load factor against cluster capacity);
* log-normal runtimes with heavy right tail, truncated to a max walltime;
* power-of-two-biased node counts;
* user walltime requests that overestimate the true runtime by a
  heavy-tailed factor (the well-documented user-estimate problem);
* an application mix drawn from the paper's four ported codes, each with
  its characteristic per-node power signature (GPU-heavy QE/BQCD draw
  more than bandwidth-bound NEMO), plus per-user and per-run noise.

The joint (app, size, runtime, power) distribution is what the power
predictors of experiment E08 learn.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .job import Job

__all__ = ["AppProfile", "WorkloadConfig", "WorkloadGenerator", "DEFAULT_APP_MIX"]


@dataclass(frozen=True)
class AppProfile:
    """Power/runtime signature of one application class."""

    name: str
    mean_power_per_node_w: float
    power_cv: float                # coefficient of variation across runs
    runtime_median_s: float
    runtime_sigma: float           # log-normal sigma
    node_count_weights: tuple[float, ...]  # weights over 2**k node counts
    uses_gpus: bool = True


#: The paper's four applications (Section IV) with power signatures
#: consistent with their bottleneck analysis on the ~1.6 kW-busy node:
#: QE and BQCD keep GPUs saturated; SPECFEM3D close behind; NEMO is
#: memory-bandwidth-bound and leaves GPU headroom.
DEFAULT_APP_MIX: dict[str, tuple[AppProfile, float]] = {
    "qe": (AppProfile("qe", 1700.0, 0.08, 3600.0, 0.8, (0.2, 0.3, 0.3, 0.15, 0.05)), 0.30),
    "nemo": (AppProfile("nemo", 1250.0, 0.10, 7200.0, 0.6, (0.1, 0.2, 0.3, 0.3, 0.1)), 0.25),
    "specfem": (AppProfile("specfem", 1600.0, 0.07, 5400.0, 0.7, (0.1, 0.25, 0.35, 0.2, 0.1)), 0.20),
    "bqcd": (AppProfile("bqcd", 1750.0, 0.05, 10800.0, 0.5, (0.05, 0.15, 0.3, 0.3, 0.2)), 0.25),
}


#: Users submitting the stream (``user0`` ... ``user11``).
N_USERS = 12
#: Runtimes and walltime requests are capped at a day, in s.
MAX_WALLTIME_S = 24 * 3600.0
#: The shortest true runtime, in s.
MIN_RUNTIME_S = 60.0
#: Log-normal parameters of the walltime overestimate (request / true
#: runtime - 1).
OVERESTIMATE_MU = 0.7
OVERESTIMATE_SIGMA = 0.6


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the synthetic job stream."""

    n_jobs: int = 200
    cluster_nodes: int = 45
    load_factor: float = 0.85       # offered load vs cluster capacity

    def __post_init__(self) -> None:
        if self.n_jobs < 1 or self.cluster_nodes < 1:
            raise ValueError("counts must be positive")
        if not 0 < self.load_factor <= 2.0:
            raise ValueError("load factor must lie in (0, 2]")


#: Threads per rank, drawn uniformly.
_THREADS = (1, 2, 4, 8)


def _cdf(weights: tuple[float, ...] | list[float], what: str) -> list[float]:
    """The normalised CDF ``rng.choice(p=w / w.sum())`` searches.

    Built with the same NumPy operations ``Generator.choice`` applies to
    ``p`` (``cumsum``, then divide by the last entry), so
    ``bisect_right(cdf, rng.random())`` picks the index ``choice`` would
    from the same draw.  The weight checks ``choice`` made on every draw
    are made here once.
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if not (np.all(w >= 0) and 0 < total < np.inf):
        raise ValueError(
            f"{what} must be finite, non-negative and not all zero, got {tuple(weights)}")
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class WorkloadGenerator:
    """Deterministic (seeded) job-stream generator."""

    def __init__(
        self,
        config: WorkloadConfig = WorkloadConfig(),
        rng: np.random.Generator | None = None,
    ):
        self.config = config
        self._app_cdf = _cdf([w for _, w in DEFAULT_APP_MIX.values()], "app mix weights")
        #: Per app, in mix order: (profile, log of its median runtime,
        #: node-count CDF over 1, 2, 4, ... nodes).
        self._apps = [
            (profile, float(np.log(profile.runtime_median_s)),
             _cdf(profile.node_count_weights, f"{profile.name} node-count weights"))
            for profile, _ in DEFAULT_APP_MIX.values()
        ]
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: Per-user power bias (some users run better-tuned inputs).
        self._user_bias = {
            f"user{u}": float(self.rng.normal(1.0, 0.04)) for u in range(N_USERS)
        }

    def _mean_interarrival_s(self) -> float:
        # Offered load: sum(nodes*runtime)/interarrival*n = load*cluster.
        exp_nodes, exp_runtime = 0.0, 0.0
        for profile, weight in DEFAULT_APP_MIX.values():
            sizes = 2 ** np.arange(len(profile.node_count_weights))
            w = np.asarray(profile.node_count_weights, dtype=float)
            w = w / w.sum()
            exp_nodes += weight * float((sizes * w).sum())
            exp_runtime += weight * profile.runtime_median_s * float(
                np.exp(profile.runtime_sigma**2 / 2)
            )
        total_weight = sum(w for _, w in DEFAULT_APP_MIX.values())
        exp_nodes /= total_weight
        exp_runtime /= total_weight
        service_node_seconds = exp_nodes * exp_runtime
        return service_node_seconds / (self.config.load_factor * self.config.cluster_nodes)

    # -- generation ------------------------------------------------------------------
    def generate(self) -> list[Job]:
        """Produce the job stream sorted by submit time.

        Each job draws, in this order: its interarrival gap, its app, its
        user, its true runtime, its node count, its walltime overestimate,
        its threads per rank and its power noise.  A categorical draw is
        one ``rng.random()`` bisected into a cached CDF, the draw
        ``rng.choice(p=...)`` makes, so the stream is the one the
        per-draw samplers gave (pinned against them over many seeds in
        ``tests/test_workload_parity.py``).
        """
        cfg = self.config
        rng = self.rng
        exponential, random, integers = rng.exponential, rng.random, rng.integers
        lognormal, normal = rng.lognormal, rng.normal
        interarrival = self._mean_interarrival_s()
        log_overestimate = np.log(OVERESTIMATE_MU)
        users = list(self._user_bias)
        apps, app_cdf = self._apps, self._app_cdf
        min_rt, max_wall, max_nodes = MIN_RUNTIME_S, MAX_WALLTIME_S, cfg.cluster_nodes
        jobs: list[Job] = []
        t = 0.0
        for jid in range(cfg.n_jobs):
            t += float(exponential(interarrival))
            profile, log_median, node_cdf = apps[bisect_right(app_cdf, random())]
            user = users[integers(0, N_USERS)]
            runtime = min(max(float(lognormal(log_median, profile.runtime_sigma)), min_rt),
                          max_wall)
            n_nodes = min(1 << bisect_right(node_cdf, random()), max_nodes)
            factor = 1.0 + float(lognormal(log_overestimate, OVERESTIMATE_SIGMA))
            threads = _THREADS[integers(0, 4)]
            power = profile.mean_power_per_node_w * self._user_bias[user] * (
                1.0 + float(normal(0.0, profile.power_cv))
            )
            jobs.append(
                Job(
                    job_id=jid,
                    user=user,
                    app=profile.name,
                    n_nodes=n_nodes,
                    walltime_req_s=min(runtime * factor, max_wall),
                    submit_time_s=t,
                    threads_per_rank=threads,
                    uses_gpus=profile.uses_gpus,
                    true_runtime_s=runtime,
                    true_power_per_node_w=min(max(power, 400.0), 2100.0),
                )
            )
        return jobs
