"""Multifactor priority ordering with fairshare — the SLURM layer the
paper extends.

§III-A2: the dispatcher must "fulfill the specified power envelope while
preserving job fairness", and the accounting loop "allows the energy
consumption cost of each job to be distributed between the
supercomputing center and the user, promoting an energy-aware usage of
the resources."

This module implements the fairness half:

* :class:`FairShareState` — per-user historical usage with exponential
  decay, chargeable in either node-seconds (classic SLURM) or **joules**
  (the paper's energy-aware accounting twist: heavy *energy* users sink
  in priority, not just heavy node-hour users);
* :class:`MultifactorPriority` — the SLURM priority/multifactor formula
  (age + fairshare + job-size components with configurable weights);
* :class:`PriorityScheduler` — wraps any queue-order policy (EASY
  backfill, the power-aware dispatcher) with priority-sorted queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .job import JobRecord
from .policies import SchedulerContext, SchedulingPolicy

__all__ = [
    "FairShareState",
    "MultifactorPriority",
    "PriorityScheduler",
    "EnergyFairShareScheduler",
]


class FairShareState:
    """Decayed per-user usage and the fairshare factor derived from it."""

    def __init__(self, half_life_s: float = 7 * 86400.0, shares: dict[str, float] | None = None):
        if half_life_s <= 0:
            raise ValueError("half life must be positive")
        self.half_life_s = float(half_life_s)
        #: Allocated shares per user (default: equal).
        self.shares = dict(shares) if shares else {}
        self._usage: dict[str, float] = {}
        self._last_decay_s = 0.0

    def _decay_to(self, now_s: float) -> None:
        dt = now_s - self._last_decay_s
        if dt <= 0:
            return
        factor = 0.5 ** (dt / self.half_life_s)
        for user in self._usage:
            self._usage[user] *= factor
        self._last_decay_s = now_s

    def charge(self, user: str, amount: float, now_s: float) -> None:
        """Charge usage (node-seconds or joules) to a user at a time."""
        if amount < 0:
            raise ValueError("usage must be non-negative")
        self._decay_to(now_s)
        self._usage[user] = self._usage.get(user, 0.0) + amount

    def charge_record(self, record: JobRecord, energy_weighted: bool = True) -> None:
        """Charge a finished job: joules if energy-weighted, else node-s."""
        if record.end_time_s is None:
            raise ValueError("job has not finished")
        amount = record.energy_j if energy_weighted else (
            record.job.n_nodes * record.actual_runtime_s
        )
        self.charge(record.job.user, amount, record.end_time_s)

    def usage(self, user: str, now_s: float) -> float:
        """Current decayed usage of a user."""
        self._decay_to(now_s)
        return self._usage.get(user, 0.0)

    def fairshare_factor(self, user: str, now_s: float) -> float:
        """SLURM-style factor in [0, 1]: 2^-(usage_share / allocated_share).

        A user consuming exactly their allocated share scores 0.5; an
        idle user scores 1.0; a hog decays toward 0.
        """
        self._decay_to(now_s)
        total = sum(self._usage.values())
        users = set(self._usage) | set(self.shares) | {user}
        share = self.shares.get(user, 1.0)
        share_total = sum(self.shares.get(u, 1.0) for u in users)
        allocated = share / share_total if share_total > 0 else 1.0
        if total <= 0:
            return 1.0
        consumed = self._usage.get(user, 0.0) / total
        return float(2.0 ** (-consumed / max(allocated, 1e-12)))


@dataclass(frozen=True)
class MultifactorPriority:
    """The priority/multifactor formula: weighted age + fairshare + size."""

    fairshare: FairShareState
    weight_age: float = 1000.0
    weight_fairshare: float = 10000.0
    weight_size: float = 100.0
    max_age_s: float = 7 * 86400.0
    total_nodes: int = 45

    def score(self, record: JobRecord, now_s: float) -> float:
        """Priority of a pending job at ``now_s`` (higher runs first)."""
        age = min(max(now_s - record.job.submit_time_s, 0.0) / self.max_age_s, 1.0)
        fs = self.fairshare.fairshare_factor(record.job.user, now_s)
        size = record.job.n_nodes / max(self.total_nodes, 1)
        return self.weight_age * age + self.weight_fairshare * fs + self.weight_size * size


class PriorityScheduler:
    """Priority-sorted queue in front of any backfilling policy.

    The inner policy still enforces nodes/power/backfill rules; this
    wrapper only controls the *order* it considers jobs in — exactly how
    SLURM's priority plugin composes with its backfill plugin.
    """

    def __init__(self, inner: SchedulingPolicy, priority: MultifactorPriority):
        self.inner = inner
        self.priority = priority
        self.name = f"priority+{inner.name}"

    def select(self, queue: Sequence[JobRecord], ctx: SchedulerContext) -> list[JobRecord]:
        """Sort by descending priority (stable), then delegate."""
        ordered = sorted(
            queue,
            key=lambda rec: (-self.priority.score(rec, ctx.now_s), rec.job.submit_time_s),
        )
        return self.inner.select(ordered, ctx)


class EnergyFairShareScheduler(PriorityScheduler):
    """Self-accounting fairshare: charge completed jobs as they land.

    The campaign/explorer-facing form of the fairshare layer: instead of
    an external accounting loop feeding :class:`FairShareState`, the
    policy itself notices completions — it holds a reference to every
    record it has seen running, and a held record that has left
    ``ctx.running`` with an ``end_time_s`` is charged (joules by
    default) at its completion time, in (end time, job id) order.  The
    charge therefore depends only on the records' final float values,
    which every simulator core produces identically, never on *when* the
    policy happened to be consulted.

    ``half_life_s`` is the fairshare decay half-life — the explorer's
    ``fairshare_decay`` knob: short half-lives forgive energy hogs
    quickly, long ones keep them deprioritized.
    """

    def __init__(
        self,
        inner: SchedulingPolicy,
        half_life_s: float = 7 * 86400.0,
        total_nodes: int = 45,
        energy_weighted: bool = True,
    ):
        super().__init__(
            inner,
            MultifactorPriority(
                fairshare=FairShareState(half_life_s=half_life_s),
                total_nodes=total_nodes,
            ),
        )
        self.name = f"fairshare+{inner.name}"
        self.half_life_s = float(half_life_s)
        self.energy_weighted = energy_weighted
        self._tracked: dict[int, JobRecord] = {}

    def select(self, queue: Sequence[JobRecord], ctx: SchedulerContext) -> list[JobRecord]:
        """Charge newly finished jobs, then priority-sort and delegate."""
        running_ids = set()
        for rec in ctx.running:
            running_ids.add(rec.job.job_id)
            self._tracked.setdefault(rec.job.job_id, rec)
        finished = [
            rec for jid, rec in self._tracked.items()
            if jid not in running_ids and rec.end_time_s is not None
        ]
        for rec in sorted(finished, key=lambda r: (r.end_time_s, r.job.job_id)):
            self.priority.fairshare.charge_record(
                rec, energy_weighted=self.energy_weighted
            )
            del self._tracked[rec.job.job_id]
        return super().select(queue, ctx)
