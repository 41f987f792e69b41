"""The arithmetic contract shared by every :class:`ClusterSimulator` core.

Two interchangeable cores execute the same event semantics — the naive
reference loop (:mod:`repro.scheduler.simulate`) and the
structure-of-arrays core (:mod:`repro.scheduler.array_core`).  They are
required to produce **float-identical** :class:`SimulationResult`\\ s at
equal seeds, and the way that is achieved is by sharing the arithmetic
below: the same helpers, operating on the same floats, in the same
order.

The contract, stated once (DESIGN.md §9–10 documents it in prose):

* ``_PowerLedger`` — incremental demand/floor/busy-node sums, mutated by
  the same ``add``/``remove`` call sequence in every core (job start,
  completion, crash-requeue, each in ascending-job-id order within one
  event batch);
* ``_resolve_ledger`` — maps the ledger to ``(system, demand, rho,
  speed)``; the trim ratio ``rho = clip((cap - floor)/dynamic, rho_min,
  1)`` and ``speed = rho ** speed_exponent``;
* ``_settle`` — closes one constant-speed segment: debits work, bills
  energy, folds elapsed/progress into the accumulated-stretch ledger;
* ``_set_speed`` — applies a trim to one running job: settles the open
  segment iff speed or granted power actually moved, then stores the new
  ETA (``now + remaining/speed``).  The stored value *is* the ETA; no
  core may recompute it later (recomputation re-rounds).

The array core vectorizes ``_settle``/``_set_speed`` over NumPy lanes;
that is contract-preserving because IEEE-754 elementwise double
arithmetic in NumPy performs bit-for-bit the same operations as CPython
floats — pinned by ``tests/test_sched_contract.py`` (helper properties
in isolation) and ``tests/diff_harness.py`` (whole-simulation
differential fuzzing of the array core against the reference).
"""

from __future__ import annotations

import numpy as np

from .job import Job, JobRecord

__all__ = [
    "_ETA_EPS",
    "_EPOCH_CATCHUP",
    "_Running",
    "_PowerLedger",
    "_settle",
    "_set_speed",
    "_resolve_ledger",
    "_replay_epoch_acct",
]

#: Completion slack: a job whose stored ETA is within this many seconds
#: of the current event time is considered finished (absolute, matching
#: the submission/outage epsilons used by every core).
_ETA_EPS = 1e-9

#: Epoch-settled accounting catch-up threshold (DESIGN.md §14): once the
#: oldest lane lags the trim-epoch history by this many epochs, a core
#: replays the pending epochs over all lanes at once, bounding the
#: per-flush scalar replay length.
_EPOCH_CATCHUP = 32


class _Running:
    """Per-attempt execution state of one running job.

    A job's life between speed changes is a *segment* of constant speed
    and granted power; work, energy and stretch are debited when the
    segment closes (:func:`_settle`), never per event.  ``eta_s`` is the
    completion time implied by the current segment and stays valid until
    the segment closes.
    """

    __slots__ = (
        "record", "remaining_work_s", "speed", "granted_power_w",
        "seg_start_s", "eta_s",
    )

    def __init__(self, record: JobRecord, remaining_work_s: float, now: float):
        self.record = record
        self.remaining_work_s = remaining_work_s
        # Sentinels force the first _set_speed to initialize the segment.
        self.speed = 0.0
        self.granted_power_w = -1.0
        self.seg_start_s = now
        self.eta_s = np.inf


class _PowerLedger:
    """Incremental demand/floor/busy-node accounting.

    Every core mutates the ledger with the same ``add``/``remove`` call
    sequence (job start, finish, crash-requeue), so the float state is
    identical between them — the foundation of the equivalence contract.
    """

    __slots__ = ("idle_node_power_w", "busy_nodes", "running_power_w", "running_dynamic_w")

    def __init__(self, idle_node_power_w: float):
        self.idle_node_power_w = idle_node_power_w
        self.busy_nodes = 0            # int: exact arithmetic
        self.running_power_w = 0.0     # sum of true job powers
        self.running_dynamic_w = 0.0   # sum of max(power - idle floor, 0)

    def add(self, job: Job) -> None:
        self.busy_nodes += job.n_nodes
        power = job.true_power_w
        self.running_power_w += power
        dynamic = power - job.n_nodes * self.idle_node_power_w
        if dynamic > 0.0:
            self.running_dynamic_w += dynamic

    def remove(self, job: Job) -> None:
        self.busy_nodes -= job.n_nodes
        power = job.true_power_w
        self.running_power_w -= power
        dynamic = power - job.n_nodes * self.idle_node_power_w
        if dynamic > 0.0:
            self.running_dynamic_w -= dynamic


def _settle(r: _Running, now: float) -> None:
    """Close the current constant-speed segment at ``now``.

    Debits work progress, bills energy, and folds the segment into the
    record's accumulated-stretch ledger (elapsed running time over work
    progressed — the true accumulated stretch, not the historical
    max-instantaneous ``1/speed``).
    """
    dt = now - r.seg_start_s
    if dt > 0.0:
        rec = r.record
        work = dt * r.speed
        r.remaining_work_s -= work
        rec.energy_j += r.granted_power_w * dt
        rec.elapsed_running_s += dt
        rec.work_progressed_s += work
        if rec.work_progressed_s > 0.0:
            rec.stretch = rec.elapsed_running_s / rec.work_progressed_s
        r.seg_start_s = now


def _set_speed(r: _Running, rho: float, speed: float, idle_node_power_w: float,
               now: float) -> bool:
    """Apply the system trim ratio to one running job.

    Settles the open segment and starts a new one iff the job's speed or
    granted power actually changes; returns whether it did (i.e. whether
    the stored ETA moved).
    """
    job = r.record.job
    if rho >= 1.0:
        granted = job.true_power_w
    else:
        job_floor = job.n_nodes * idle_node_power_w
        job_dynamic = job.true_power_w - job_floor
        granted = job_floor + (job_dynamic if job_dynamic > 0.0 else 0.0) * rho
    if speed == r.speed and granted == r.granted_power_w:
        return False
    _settle(r, now)
    r.speed = speed
    r.granted_power_w = granted
    r.seg_start_s = now
    r.eta_s = now + r.remaining_work_s / speed
    return True


def _replay_epoch_acct(
    epochs: list[tuple[float, float, float]],
    k: int,
    t_prev: float,
    pwr: float,
    flr: float,
    dynpos: float,
    eng: float,
    elp: float,
    wrk: float,
) -> tuple[float, float, float]:
    """Replay one job's pending accounting epochs scalarly.

    ``epochs`` is the system-wide trim history as ``(t, rho, speed)``
    tuples — one entry per applied speed change — and ``k`` the index of
    the first epoch this job has *not* yet been billed for, with
    ``t_prev`` the time its accounting was last settled.  The segment
    ``[t_prev, t_k]`` ran at the rho/speed in effect *before* epoch
    ``k`` (``epochs[k-1]``, or the untrimmed 1.0/1.0 state before any
    epoch), so each iteration bills exactly the :func:`_settle` the
    eager path would have run at that boundary:

    * ``granted = pwr`` when the prior rho was >= 1, else
      ``flr + dynpos * rho`` — the same expression, reading the same
      per-job constants (``pwr`` true power, ``flr`` idle floor,
      ``dynpos = max(pwr - flr, 0)``), as :func:`_set_speed`;
    * energy += granted * dt, elapsed += dt, work += dt * speed, in the
      contract's operation order, so the accumulators land bit-identical
      to the per-event settle sequence.

    Zero-length segments (same-timestamp cascades) are exact no-ops,
    matching ``_settle``'s ``dt > 0`` guard.  Returns the settled
    ``(energy, elapsed, work)`` accumulators.
    """
    if k:
        _, prev_rho, prev_speed = epochs[k - 1]
    else:
        prev_rho = prev_speed = 1.0
    for i in range(k, len(epochs)):
        t_k, rho_k, speed_k = epochs[i]
        dt = t_k - t_prev
        if dt > 0.0:
            granted = pwr if prev_rho >= 1.0 else flr + dynpos * prev_rho
            eng += granted * dt
            elp += dt
            wrk += dt * prev_speed
        t_prev = t_k
        prev_rho = rho_k
        prev_speed = speed_k
    return eng, elp, wrk


def _resolve_ledger(
    ledger: _PowerLedger,
    n_alive: int,
    cap_w: float | None,
    rho_min: float,
    speed_exponent: float,
) -> tuple[float, float, float, float]:
    """System power under the reactive trim; returns
    ``(system_w, demand_w, rho, speed)``.

    ``demand`` is the pre-trim draw; ``rho`` scales every running job's
    dynamic share so the system fits under ``cap_w`` (clipped at the
    hardware's speed floor), and ``speed = rho ** speed_exponent``.
    """
    idle_w = ledger.idle_node_power_w
    idle_power = (n_alive - ledger.busy_nodes) * idle_w
    demand = idle_power + ledger.running_power_w
    if cap_w is None or demand <= cap_w:
        return demand, demand, 1.0, 1.0
    floor = idle_power + ledger.busy_nodes * idle_w
    dynamic = demand - floor
    if dynamic <= 0.0:
        return demand, demand, 1.0, 1.0  # nothing controllable
    rho = (cap_w - floor) / dynamic
    if rho < 0.0:
        rho = 0.0
    # Speed floor limits how hard the hardware can throttle.  A scalar
    # clip: rho is finite and non-negative here, so min/max pick the
    # same float np.clip would, without its array dispatch.
    rho = float(min(max(rho, rho_min), 1.0))
    if rho >= 1.0:
        return demand, demand, 1.0, 1.0
    system = floor + ledger.running_dynamic_w * rho
    return system, demand, rho, rho**speed_exponent
