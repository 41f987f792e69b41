"""Job model for the cluster resource manager.

A job is what a user submits: a node count, a requested walltime (the
user's — usually generous — estimate), and submission-time metadata (user,
application, inputs).  The *true* runtime and per-node power draw are
properties of the execution the scheduler cannot see in advance — the
whole point of the paper's job-power predictors (Section III-A2, refs
[17][18]) is to estimate the power from the submission-time metadata.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional

__all__ = ["JobState", "Job", "JobRecord"]

_FINITE_FIELDS = (
    "walltime_req_s", "submit_time_s", "true_runtime_s", "true_power_per_node_w",
)


def _is_count(value) -> bool:
    """A non-bool integer >= 0 (``np.int64`` included)."""
    return (not isinstance(value, bool)
            and isinstance(value, numbers.Integral) and value >= 0)


class JobState(enum.Enum):
    """Lifecycle of a job in the resource manager."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass(frozen=True, slots=True)
class Job:
    """An immutable job submission plus its hidden ground truth.

    Fields above the line are visible to the scheduler at submission;
    ``true_runtime_s`` and ``true_power_per_node_w`` are ground truth used
    by the simulator and revealed only through execution.
    """

    job_id: int
    user: str
    app: str                       # application tag ('qe', 'nemo', ...)
    n_nodes: int
    walltime_req_s: float          # user's requested walltime
    submit_time_s: float
    threads_per_rank: int = 1
    uses_gpus: bool = True
    # -- hidden ground truth ------------------------------------------------
    true_runtime_s: float = 0.0
    true_power_per_node_w: float = 0.0

    def __post_init__(self) -> None:
        # A NaN passes every range check below and would stall the
        # simulation or poison its energy sums.
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(
                    f"job {self.job_id}: {name} must be finite, got {value!r}")
        if self.n_nodes < 1:
            raise ValueError(f"job {self.job_id}: needs at least one node")
        if self.walltime_req_s <= 0:
            raise ValueError(f"job {self.job_id}: requested walltime must be positive")
        if self.true_runtime_s < 0 or self.true_power_per_node_w < 0:
            raise ValueError(f"job {self.job_id}: ground truth must be non-negative")
        if self.submit_time_s < 0:
            raise ValueError(f"job {self.job_id}: submit time must be non-negative")

    @property
    def true_power_w(self) -> float:
        """Total true power across the allocation."""
        return self.n_nodes * self.true_power_per_node_w


@dataclass(slots=True)
class JobRecord:
    """Mutable execution record the simulator maintains per job.

    ``slots=True`` matters at replay scale: a 1M-job run holds 1M live
    records, and slot storage both halves their footprint and keeps
    field access off the per-instance dict — the array core's flat loop
    is attribute-bound on exactly these objects.
    """

    job: Job
    state: JobState = JobState.PENDING
    start_time_s: Optional[float] = None
    end_time_s: Optional[float] = None
    nodes: tuple[int, ...] = ()
    energy_j: float = 0.0
    #: Power prediction attached at scheduling time (None = no predictor).
    predicted_power_w: Optional[float] = None
    #: Accumulated slowdown from reactive capping: wall-clock running
    #: time over work progressed, across all execution segments and
    #: requeue attempts (1.0 = never capped).
    stretch: float = 1.0
    #: Times this job was killed by a node crash and requeued.
    requeues: int = 0
    #: Wall-clock seconds spent in the RUNNING state (all attempts).
    elapsed_running_s: float = 0.0
    #: Work seconds actually progressed (all attempts; lost progress
    #: from crash restarts still counts — the machine spent the time).
    work_progressed_s: float = 0.0

    @property
    def wait_time_s(self) -> float:
        """Queue wait (start - submit); requires the job to have started."""
        if self.start_time_s is None:
            raise ValueError(f"job {self.job.job_id} has not started")
        return self.start_time_s - self.job.submit_time_s

    @property
    def actual_runtime_s(self) -> float:
        """Start-to-end time (includes cap-induced stretch)."""
        if self.start_time_s is None or self.end_time_s is None:
            raise ValueError(f"job {self.job.job_id} has not finished")
        return self.end_time_s - self.start_time_s
