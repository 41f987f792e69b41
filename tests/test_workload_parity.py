"""Parity of ``WorkloadGenerator.generate`` with the per-draw samplers.

``generate`` draws a categorical value as one ``rng.random()`` bisected
into a cached CDF, where it used to call ``rng.choice(p=...)`` once per
draw, and clips with ``min``/``max`` instead of ``np.clip``.  The job
stream must not move: every campaign digest, store key and benchmark
pin depends on it.  ``PerDrawGenerator`` below is the per-draw
generator, kept verbatim as the oracle; both run under the same NumPy,
so the comparison holds on every supported Python.

The weight checks ``rng.choice`` made on every draw now run once, when
the generator is built.  Those tests call ``generate()`` inside
``pytest.raises``, so they hold whichever of the two raises.

The user count, runtime bounds, overestimate law and app mix are module
constants of :mod:`repro.scheduler.workload`; the cases that vary them
patch the constants, and the oracle reads them from the module too.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.scheduler import (
    DEFAULT_APP_MIX,
    AppProfile,
    Job,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.scheduler import workload as wl

SEEDS = range(200)


class PerDrawGenerator:
    """The per-draw job-stream generator, the parity oracle."""

    def __init__(
        self,
        config: WorkloadConfig = WorkloadConfig(),
        rng: np.random.Generator | None = None,
    ):
        self.config = config
        self.app_mix = wl.DEFAULT_APP_MIX
        weights = np.array([w for _, w in self.app_mix.values()], dtype=float)
        if weights.sum() <= 0:
            raise ValueError("app mix weights must sum to a positive value")
        self._app_names = list(self.app_mix)
        self._app_probs = weights / weights.sum()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: Per-user power bias (some users run better-tuned inputs).
        self._user_bias = {
            f"user{u}": float(self.rng.normal(1.0, 0.04)) for u in range(wl.N_USERS)
        }

    # -- component samplers ------------------------------------------------------
    def _sample_app(self) -> AppProfile:
        name = self.rng.choice(self._app_names, p=self._app_probs)
        return self.app_mix[name][0]

    def _sample_nodes(self, profile: AppProfile) -> int:
        sizes = 2 ** np.arange(len(profile.node_count_weights))  # 1,2,4,8,16
        w = np.asarray(profile.node_count_weights, dtype=float)
        n = int(self.rng.choice(sizes, p=w / w.sum()))
        return min(n, self.config.cluster_nodes)

    def _sample_runtime(self, profile: AppProfile) -> float:
        rt = float(self.rng.lognormal(np.log(profile.runtime_median_s), profile.runtime_sigma))
        return float(np.clip(rt, wl.MIN_RUNTIME_S, wl.MAX_WALLTIME_S))

    def _sample_walltime_request(self, true_runtime: float) -> float:
        factor = 1.0 + float(self.rng.lognormal(
            np.log(wl.OVERESTIMATE_MU), wl.OVERESTIMATE_SIGMA
        ))
        return float(min(true_runtime * factor, wl.MAX_WALLTIME_S))

    def _sample_power(self, profile: AppProfile, user: str) -> float:
        bias = self._user_bias[user]
        p = profile.mean_power_per_node_w * bias * (
            1.0 + float(self.rng.normal(0.0, profile.power_cv))
        )
        return float(np.clip(p, 400.0, 2100.0))

    def _mean_interarrival_s(self) -> float:
        # Offered load: sum(nodes*runtime)/interarrival*n = load*cluster.
        exp_nodes, exp_runtime = 0.0, 0.0
        for profile, weight in self.app_mix.values():
            sizes = 2 ** np.arange(len(profile.node_count_weights))
            w = np.asarray(profile.node_count_weights, dtype=float)
            w = w / w.sum()
            exp_nodes += weight * float((sizes * w).sum())
            exp_runtime += weight * profile.runtime_median_s * float(
                np.exp(profile.runtime_sigma**2 / 2)
            )
        total_weight = sum(w for _, w in self.app_mix.values())
        exp_nodes /= total_weight
        exp_runtime /= total_weight
        service_node_seconds = exp_nodes * exp_runtime
        return service_node_seconds / (self.config.load_factor * self.config.cluster_nodes)

    # -- generation ------------------------------------------------------------------
    def generate(self) -> list[Job]:
        """Produce the job stream sorted by submit time."""
        interarrival = self._mean_interarrival_s()
        jobs: list[Job] = []
        t = 0.0
        for jid in range(self.config.n_jobs):
            t += float(self.rng.exponential(interarrival))
            profile = self._sample_app()
            user = f"user{int(self.rng.integers(0, wl.N_USERS))}"
            runtime = self._sample_runtime(profile)
            jobs.append(
                Job(
                    job_id=jid,
                    user=user,
                    app=profile.name,
                    n_nodes=self._sample_nodes(profile),
                    walltime_req_s=self._sample_walltime_request(runtime),
                    submit_time_s=t,
                    threads_per_rank=int(self.rng.choice([1, 2, 4, 8])),
                    uses_gpus=profile.uses_gpus,
                    true_runtime_s=runtime,
                    true_power_per_node_w=self._sample_power(profile, user),
                )
            )
        return jobs


#: A mix with a zero-weight app (never drawn), a CPU-only app, a zero
#: node-count weight in the middle and at the end, and a one-size app.
CUSTOM_MIX = {
    "cpu": (AppProfile("cpu", 900.0, 0.12, 1800.0, 0.9, (0.5, 0.0, 0.5, 0.0),
                       uses_gpus=False), 0.5),
    "never": (AppProfile("never", 1500.0, 0.1, 600.0, 0.4, (1.0, 1.0)), 0.0),
    "qe": (DEFAULT_APP_MIX["qe"][0], 0.3),
    "single": (AppProfile("single", 1300.0, 0.2, 900.0, 1.1, (2.0,),
                          uses_gpus=False), 0.2),
}

#: Each case: the config and the module constants it patches.
CASES = {
    "perfbench-capped-512x640": (WorkloadConfig(n_jobs=640, cluster_nodes=512), {}),
    "perfbench-explore-16x30": (
        WorkloadConfig(n_jobs=30, cluster_nodes=16, load_factor=1.1), {}),
    "one-user": (WorkloadConfig(n_jobs=40), {"N_USERS": 1}),
    "one-node-clamps-sizes": (WorkloadConfig(n_jobs=40, cluster_nodes=1), {}),
    "load-factor-2": (WorkloadConfig(n_jobs=40, load_factor=2.0), {}),
    "overestimate": (
        WorkloadConfig(n_jobs=40),
        {"OVERESTIMATE_MU": 1.9, "OVERESTIMATE_SIGMA": 0.05,
         "MIN_RUNTIME_S": 300.0, "MAX_WALLTIME_S": 4 * 3600.0}),
    "custom-mix": (WorkloadConfig(n_jobs=40, cluster_nodes=4),
                   {"DEFAULT_APP_MIX": CUSTOM_MIX}),
}

JOB_FIELDS = [f.name for f in dataclasses.fields(Job)]


def _field_types(jobs: list[Job]) -> list[tuple[type, ...]]:
    return [tuple(type(getattr(j, name)) for name in JOB_FIELDS) for j in jobs]


def _patch(monkeypatch, constants):
    for name, value in constants.items():
        monkeypatch.setattr(wl, name, value)


@pytest.mark.parametrize("case", list(CASES))
def test_generate_matches_per_draw_oracle(case, monkeypatch):
    config, constants = CASES[case]
    _patch(monkeypatch, constants)
    for seed in SEEDS:
        got = WorkloadGenerator(config, rng=np.random.default_rng(seed)).generate()
        want = PerDrawGenerator(config, rng=np.random.default_rng(seed)).generate()
        assert got == want, f"{case}: streams differ at seed {seed}"
        assert _field_types(got) == _field_types(want), f"{case}: types differ at seed {seed}"


def test_custom_mix_reaches_every_drawable_branch(monkeypatch):
    """The custom case is only a check if its edges are drawn: the
    CPU-only and one-size apps appear, the zero-weight app and the
    zero-weight node counts never do."""
    config, constants = CASES["custom-mix"]
    _patch(monkeypatch, constants)
    jobs = [j for seed in range(20) for j in WorkloadGenerator(
        config, rng=np.random.default_rng(seed)).generate()]
    assert {j.app for j in jobs} == {"cpu", "qe", "single"}
    assert not any(j.uses_gpus for j in jobs if j.app != "qe")
    assert {j.n_nodes for j in jobs if j.app == "cpu"} == {1, 4}
    assert {j.n_nodes for j in jobs if j.app == "single"} == {1}


def _mix_with(app_weight=0.5, node_weights=(0.5, 0.5)):
    mix = dict(DEFAULT_APP_MIX)
    profile = dataclasses.replace(mix["qe"][0], node_count_weights=node_weights)
    mix["qe"] = (profile, app_weight)
    return mix


@pytest.mark.parametrize("mix", [
    _mix_with(app_weight=-0.1),
    _mix_with(app_weight=float("nan")),
    _mix_with(app_weight=float("inf")),
    _mix_with(node_weights=(0.5, -0.1, 0.6)),
    _mix_with(node_weights=(0.5, float("nan"))),
    _mix_with(node_weights=(0.5, float("inf"))),
    _mix_with(node_weights=(0.0, 0.0, 0.0)),
], ids=["app-negative", "app-nan", "app-inf", "nodes-negative", "nodes-nan",
        "nodes-inf", "nodes-all-zero"])
def test_bad_weights_raise(mix, monkeypatch):
    monkeypatch.setattr(wl, "DEFAULT_APP_MIX", mix)
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ValueError):
            WorkloadGenerator(rng=np.random.default_rng(0)).generate()
