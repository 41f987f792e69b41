"""Deterministic parallel campaign runner for scheduling experiments.

E07/E08/E09 all follow the same shape — sweep a policy × cap × seed
grid of :class:`ClusterSimulator` runs and compare QoS — and the grid is
embarrassingly parallel.  This module fans scenarios across a
multiprocessing pool without giving up determinism:

* **per-scenario seeding** — every scenario derives its workload RNG
  from the campaign's root seed through
  ``SeedSequence(entropy=root_seed, spawn_key=(seed_index,))``; the same
  ``seed_index`` yields the *same workload* in every policy/cap cell, so
  comparisons across cells are paired, and no scenario's stream depends
  on how many processes ran or in what order they finished;
* **submission-order merge** — results come back in the order the
  scenarios were submitted (``pool.map``, chunksize 1), regardless of
  completion order;
* **content digests** — each result carries a SHA-256 over its records
  and power trace, and :func:`campaign_digest` folds them in submission
  order, so "same grid, any pool size" is checkable as a single string.

Scenarios are plain-data (string policy/predictor specs, no callables),
so they pickle cleanly into workers; predictors are *built inside* the
worker from the spec.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import multiprocessing
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .cache import ResultStore, scenario_key
from .fairshare import EnergyFairShareScheduler
from .job import Job, _is_count
from .policies import IDLE_NODE_POWER_W, EasyBackfillScheduler, FifoScheduler, SchedulingPolicy
from .power_aware import PowerAwareScheduler, request_based_predictor
from .simulate import ClusterSimulator, NodeOutage, SimulationResult
from .workload import WorkloadConfig, WorkloadGenerator

__all__ = [
    "POLICIES",
    "Scenario",
    "CampaignConfig",
    "ScenarioResult",
    "QOS_METRICS",
    "scenario_rng",
    "scenario_workload",
    "run_scenario",
    "run_campaign",
    "result_digest",
    "campaign_digest",
]

#: The policy names a scenario (and so a config file) may use.
POLICIES = ("fifo", "easy", "power-aware")


@dataclass(frozen=True)
class Scenario:
    """One cell of a campaign grid — plain data, safe to pickle.

    ``predictor`` specs (power-aware only): ``"oracle"`` prices each job
    at its true power, ``"nameplate"`` / ``"nameplate:<W>"`` at the
    per-node nameplate, ``"ridge"`` trains
    :class:`~repro.prediction.JobPowerModel` on the campaign's training
    split (``train_fraction`` must be > 0).  ``train_fraction`` splits
    the workload chronologically and simulates only the held-out tail —
    set it identically across cells to keep comparisons paired.
    """

    policy: str
    cap_w: Optional[float] = None
    seed_index: int = 0
    #: Proactive envelope for the power-aware dispatcher (defaults to cap_w).
    budget_w: Optional[float] = None
    predictor: str = "oracle"
    train_fraction: float = 0.0
    node_outages: tuple[NodeOutage, ...] = ()
    #: Backfill scan depth behind the blocked head (None = whole queue).
    #: Read by the backfilling policies only; FIFO ignores it.
    backfill_depth: Optional[int] = None
    #: Fairshare half-life in seconds: when set, the policy is wrapped in
    #: :class:`~repro.scheduler.fairshare.EnergyFairShareScheduler`
    #: (energy-charged priority ordering).  None = no fairshare layer.
    fairshare_decay: Optional[float] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; pick one of {POLICIES}")
        if not 0.0 <= self.train_fraction < 1.0:
            raise ValueError("train fraction must lie in [0, 1)")
        for name in ("cap_w", "budget_w"):
            watts = getattr(self, name)
            if watts is not None and not 0.0 < watts < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {watts!r}")
        if not _is_count(self.seed_index):
            raise ValueError(f"seed_index must be a non-negative integer, "
                             f"got {self.seed_index!r}")
        depth = self.backfill_depth
        if depth is not None and not _is_count(depth):
            raise ValueError(
                f"backfill_depth must be a non-negative integer, got {depth!r}")
        decay = self.fairshare_decay
        if decay is not None and not 0.0 < decay < math.inf:
            raise ValueError(
                f"fairshare_decay must be positive and finite, got {decay!r}")
        if self.policy == "power-aware" and self.budget_w is None and self.cap_w is None:
            raise ValueError("power-aware scenarios need budget_w or cap_w")
        kind = self.predictor.split(":", 1)[0]
        if kind not in ("oracle", "nameplate", "ridge"):
            raise ValueError(f"unknown predictor spec {self.predictor!r}")
        if kind == "ridge" and self.train_fraction <= 0.0:
            raise ValueError("ridge predictor needs train_fraction > 0")


@dataclass(frozen=True)
class CampaignConfig:
    """Workload and machine shape shared by every scenario of a campaign."""

    n_nodes: int
    n_jobs: int
    root_seed: int = 0
    load_factor: float = 0.85
    idle_node_power_w: float = IDLE_NODE_POWER_W
    speed_exponent: float = 0.75
    min_speed: float = 0.3

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.n_jobs < 1:
            raise ValueError("node and job counts must be positive")
        if not 0.0 <= self.idle_node_power_w < math.inf:
            raise ValueError(f"idle_node_power_w must be non-negative and "
                             f"finite, got {self.idle_node_power_w!r}")


@dataclass(frozen=True)
class ScenarioResult:
    """QoS summary + content digest of one scenario run (picklable).

    ``result`` carries the full :class:`SimulationResult` only when the
    campaign ran with ``keep_results=True`` — its lazy QoS caches are
    dropped at every pickle boundary (see ``SimulationResult.
    __getstate__``), so a result that crossed a process pool rebuilds
    metrics from its records instead of serving stale cached values.
    """

    scenario: Scenario
    qos: dict[str, float] = field(compare=False)
    digest: str = ""
    result: Optional[SimulationResult] = field(
        default=None, compare=False, repr=False
    )


def scenario_rng(root_seed: int, seed_index: int) -> np.random.Generator:
    """The campaign determinism rule: root seed → per-scenario stream.

    ``SeedSequence`` spawn keys give statistically independent streams
    per index with no cross-contamination from pool scheduling.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=root_seed, spawn_key=(seed_index,))
    )


def scenario_workload(config: CampaignConfig, scenario: Scenario) -> list[Job]:
    """The full (pre-split) job stream a scenario runs on."""
    return WorkloadGenerator(
        WorkloadConfig(
            n_jobs=config.n_jobs,
            cluster_nodes=config.n_nodes,
            load_factor=config.load_factor,
        ),
        rng=scenario_rng(config.root_seed, scenario.seed_index),
    ).generate()


def _build_predictor(spec: str, train_jobs: list[Job]):
    kind, _, arg = spec.partition(":")
    if kind == "oracle":
        return lambda job: job.true_power_w
    if kind == "nameplate":
        return request_based_predictor(float(arg) if arg else 2000.0)
    # "ridge" — train on the chronological head split.
    from ..prediction import JobPowerModel

    lam = float(arg) if arg else 1.0
    return JobPowerModel.fit_ridge(train_jobs, lam=lam)


def _build_policy(config: CampaignConfig, scenario: Scenario,
                  train_jobs: list[Job]) -> SchedulingPolicy:
    """Construct a scenario's policy, wrapped in energy fair-share when
    ``fairshare_decay`` is set.

    Every cell, hand-written or emitted by the design-space explorer,
    is built here, from one of the :data:`POLICIES` names.
    """
    if scenario.policy == "fifo":
        policy: SchedulingPolicy = FifoScheduler()
    elif scenario.policy == "easy":
        policy = EasyBackfillScheduler(backfill_depth=scenario.backfill_depth)
    else:
        budget = scenario.budget_w if scenario.budget_w is not None else scenario.cap_w
        policy = PowerAwareScheduler(
            cap_w=budget,
            predictor=_build_predictor(scenario.predictor, train_jobs),
            idle_node_power_w=config.idle_node_power_w,
            backfill_depth=scenario.backfill_depth,
        )
    if scenario.fairshare_decay is not None:
        policy = EnergyFairShareScheduler(
            policy,
            half_life_s=scenario.fairshare_decay,
            total_nodes=config.n_nodes,
        )
    return policy


def result_digest(result: SimulationResult) -> str:
    """SHA-256 over the canonical byte serialization of a result.

    Covers every record's identity, timing, energy, stretch, requeue
    count and allocation, plus the full power trace — two results with
    equal digests are float-identical where it matters.
    """
    h = hashlib.sha256()
    for rec in result.records:
        h.update(struct.pack(
            "<qdddq",
            rec.job.job_id,
            rec.start_time_s if rec.start_time_s is not None else np.nan,
            rec.end_time_s if rec.end_time_s is not None else np.nan,
            rec.energy_j,
            rec.requeues,
        ))
        h.update(struct.pack("<d", rec.stretch))
        h.update(np.asarray(rec.nodes, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(result.power_trace.times_s).tobytes())
    h.update(np.ascontiguousarray(result.power_trace.power_w).tobytes())
    h.update(struct.pack("<ddd", result.makespan_s, result.total_energy_j,
                         result.overdemand_s))
    return h.hexdigest()


#: Keys of the per-cell QoS summary (the metric vocabulary objectives
#: may reference — see :class:`repro.explore.Objective`).
QOS_METRICS = (
    "mean_wait_s",
    "p95_wait_s",
    "mean_bounded_slowdown",
    "mean_stretch",
    "peak_power_w",
    "mean_power_w",
    "makespan_s",
    "total_energy_j",
    "utilization",
    "overdemand_s",
    "cap_violation_fraction",
    "n_requeues",
    "n_jobs",
)


def _qos_summary(result: SimulationResult) -> dict[str, float]:
    return {
        "mean_wait_s": result.mean_wait_s(),
        "p95_wait_s": result.p95_wait_s(),
        "mean_bounded_slowdown": result.mean_bounded_slowdown(),
        "mean_stretch": result.mean_stretch(),
        "peak_power_w": result.peak_power_w(),
        "mean_power_w": result.mean_power_w(),
        "makespan_s": result.makespan_s,
        "total_energy_j": result.total_energy_j,
        "utilization": result.utilization,
        "overdemand_s": result.overdemand_s,
        "cap_violation_fraction": result.cap_violation_fraction(),
        "n_requeues": float(result.n_requeues),
        "n_jobs": float(len(result.records)),
    }


def run_scenario(
    config: CampaignConfig,
    scenario: Scenario,
    keep_result: bool = False,
) -> ScenarioResult:
    """Run one grid cell start-to-finish (also the pool worker body).

    ``keep_result=True`` attaches the full :class:`SimulationResult` to
    the returned cell.
    """
    return _simulate(config, scenario, scenario_workload(config, scenario), keep_result)


def _simulate(
    config: CampaignConfig,
    scenario: Scenario,
    jobs: list[Job],
    keep_result: bool,
) -> ScenarioResult:
    """Run one grid cell on its already generated (pre-split) stream.

    The per-cell seam: ``run_scenario`` and the serial campaign path
    both simulate through it.  ``jobs`` is only read, so one stream can
    serve every cell on its seed.
    """
    if scenario.train_fraction > 0.0:
        split = int(len(jobs) * scenario.train_fraction)
        train, test = jobs[:split], jobs[split:]
        if not train or not test:
            raise ValueError("train fraction leaves an empty split")
    else:
        train, test = [], jobs
    sim = ClusterSimulator(
        n_nodes=config.n_nodes,
        policy=_build_policy(config, scenario, train),
        idle_node_power_w=config.idle_node_power_w,
        cap_w=scenario.cap_w,
        speed_exponent=config.speed_exponent,
        min_speed=config.min_speed,
        node_outages=scenario.node_outages,
    )
    result = sim.run(test)
    return ScenarioResult(
        scenario=scenario,
        qos=_qos_summary(result),
        digest=result_digest(result),
        result=result if keep_result else None,
    )


def _run_cell(payload: tuple[CampaignConfig, Scenario, bool]) -> ScenarioResult:
    return run_scenario(*payload)


def _run_serial(
    config: CampaignConfig, scenarios: list[Scenario], keep_result: bool
) -> Iterator[ScenarioResult]:
    """Simulate ``scenarios`` in order, generating each seed's stream once.

    A stream depends only on ``(config, seed_index)``, so every cell on
    one seed can run on the same list.  It is dropped after the last
    cell on its seed; nothing outlives the call.
    """
    last = {s.seed_index: i for i, s in enumerate(scenarios)}
    streams: dict[int, list[Job]] = {}
    for i, scenario in enumerate(scenarios):
        seed = scenario.seed_index
        jobs = streams.get(seed)
        if jobs is None:
            jobs = streams[seed] = scenario_workload(config, scenario)
        if last[seed] == i:
            del streams[seed]
        yield _simulate(config, scenario, jobs, keep_result)


def run_campaign(
    config: CampaignConfig,
    scenarios: Sequence[Scenario],
    processes: Optional[int] = None,
    keep_results: bool = False,
    cache: Optional[ResultStore] = None,
    on_result: Optional[Callable[[ScenarioResult, bool], None]] = None,
) -> list[ScenarioResult]:
    """Run a scenario grid, results merged in submission order.

    ``processes=None`` uses ``min(novel cells, cpu_count)``;
    ``processes<=1`` runs serially in-process (no pool, no pickling) and
    generates each ``seed_index``'s job stream once per call, for all
    the novel cells on that seed; pool workers generate their own.
    The result list is bitwise independent of the pool size — pinned by
    ``tests/test_campaign.py``.  ``keep_results=True`` ships each cell's
    full :class:`SimulationResult` back with it (through the pickle
    boundary when a pool is used, so lazy QoS caches are rebuilt, not
    transferred).

    Content addressing (``tests/diff_harness.py --cache`` pins all of
    it):

    * ``cache`` — a :class:`~repro.scheduler.cache.ResultStore`; cells
      whose :func:`~repro.scheduler.cache.scenario_key` is already
      stored replay from it instead of simulating (byte-identical
      digests), novel cells are stored as they complete, and
      duplicate-equivalent cells *within* one grid simulate once.  A
      stored cell without its full payload does not satisfy
      ``keep_results=True`` — it is re-simulated and the store entry
      upgraded in place.
    * ``on_result(cell, replayed)`` — called in submission order as
      each cell completes, with ``replayed=True`` for cache hits and
      within-grid duplicates.  Raising from the hook aborts the
      campaign.

    A novel cell is stored before ``on_result`` fires, so a campaign
    killed partway and run again over the same
    :class:`~repro.scheduler.cache.DirectoryResultStore` replays every
    cell it completed, simulates the rest, and returns the list — and
    the :func:`campaign_digest` — of an uninterrupted run (pinned by
    ``tests/test_campaign_resume.py``).
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    n = len(scenarios)
    keys = None if cache is None else [scenario_key(config, s) for s in scenarios]

    # Hits resolve before any pool spins up.
    resolved: list[Optional[ScenarioResult]] = [None] * n
    if cache is not None:
        for i, s in enumerate(scenarios):
            hit = cache.get(keys[i])
            if hit is not None and keep_results and hit.result is None:
                hit = None  # payload required but never stored: re-simulate
            if hit is not None:
                resolved[i] = dataclasses.replace(hit, scenario=s)

    # Novel work = first occurrence of each unresolved key; later
    # duplicates alias the first (content addressing makes them equal).
    todo: list[int] = []
    first_at: dict[str, int] = {}
    for i in range(n):
        if resolved[i] is not None:
            continue
        if keys is not None:
            if keys[i] in first_at:
                continue
            first_at[keys[i]] = i
        todo.append(i)
    todo_set = set(todo)

    def consume(fresh: "Iterator[ScenarioResult]") -> list[ScenarioResult]:
        """Merge cached + fresh cells in submission order, firing hooks."""
        out: list[ScenarioResult] = []
        for i, s in enumerate(scenarios):
            cell = resolved[i]
            replayed = cell is not None
            if cell is None:
                if i in todo_set:
                    cell = next(fresh)
                    if cache is not None:
                        cache.put(keys[i], cell)
                else:  # duplicate of an earlier cell in this same grid
                    cell = dataclasses.replace(out[first_at[keys[i]]], scenario=s)
                    replayed = True
            out.append(cell)
            if on_result is not None:
                on_result(cell, replayed)
        return out

    if processes is None:
        processes = min(len(todo), os.cpu_count() or 1)
    if processes <= 1 or len(todo) <= 1:
        return consume(_run_serial(config, [scenarios[i] for i in todo], keep_results))
    payloads = [(config, scenarios[i], keep_results) for i in todo]
    ctx = multiprocessing.get_context("fork" if hasattr(os, "fork") else "spawn")
    with ctx.Pool(processes=processes) as pool:
        # chunksize=1 and imap (not map): cells are coarse, the
        # order-preserving lazy iterator streams completed cells back in
        # submission order so each is stored as it finishes, and
        # stragglers don't serialize whole chunks.
        return consume(pool.imap(_run_cell, payloads, chunksize=1))


def campaign_digest(results: Sequence[ScenarioResult]) -> str:
    """One digest over the merged result list (submission order)."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.digest.encode())
    return h.hexdigest()
