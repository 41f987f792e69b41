"""Per-job / per-user energy accounting — the EA box of Fig. 4.

"This correlation enables per user and per job energy-accounting (EA)
and profiling (Pr)" ... "The former allows the energy consumption cost
of each job to be distributed between the supercomputing center and the
user, promoting an energy-aware usage of the resources."

The accountant subscribes (conceptually) to the per-node power streams
stored in the TSDB and, given the scheduler's job records (which nodes,
which interval), integrates each job's energy, attributes shared idle
overhead, and rolls the result up per user with billing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scheduler.job import JobRecord
from .tsdb import SeriesKey, TimeSeriesDB

__all__ = ["JobEnergyBill", "UserStatement", "EnergyAccountant"]


@dataclass(frozen=True)
class JobEnergyBill:
    """One job's measured energy and cost."""

    job_id: int
    user: str
    app: str
    energy_j: float
    mean_power_w: float
    duration_s: float
    cost: float
    #: Fraction of the job's nodes whose energy came from measurements
    #: (the rest fell back to the simulator's accounted share).
    measured_fraction: float = 1.0


@dataclass(frozen=True)
class UserStatement:
    """A user's roll-up over an accounting period."""

    user: str
    n_jobs: int
    total_energy_j: float
    total_cost: float

    @property
    def total_energy_kwh(self) -> float:
        """Total in kWh."""
        return self.total_energy_j / 3.6e6


#: Electricity price a bill charges, per kWh.
PRICE_PER_KWH = 0.25
#: The TSDB metric carrying each node's measured power.
POWER_METRIC = "node_power"


class EnergyAccountant:
    """Integrates measured node power over each job's allocation."""

    def __init__(self, db: TimeSeriesDB):
        self.db = db

    def node_key(self, node_id: int) -> SeriesKey:
        """The TSDB series carrying one node's power."""
        return SeriesKey.of(POWER_METRIC, node=str(node_id))

    def _energy_and_coverage(self, record: JobRecord) -> tuple[float, float]:
        """(energy_j, measured_fraction) for one finished job.

        Integrates each allocated node's measured power over
        [start, end].  Nodes whose series is missing or too sparse to
        integrate (a monitoring outage) fall back *per node* to an equal
        share of the simulator's accounted energy,
        ``record.energy_j / len(record.nodes)`` — a partial outage used
        to silently drop the uncovered nodes' energy and undercount the
        bill.  The second element is the fraction of nodes that were
        actually measured (1.0 = fully measured, 0.0 = pure fallback).
        """
        if record.start_time_s is None or record.end_time_s is None:
            raise ValueError(f"job {record.job.job_id} has not finished")
        n_nodes = len(record.nodes)
        if n_nodes == 0:
            return record.energy_j, 1.0
        fallback_share = record.energy_j / n_nodes
        total = 0.0
        covered = 0
        for node_id in record.nodes:
            key = self.node_key(node_id)
            try:
                trace = self.db.query_trace(key, record.start_time_s, record.end_time_s)
            except KeyError:
                trace = None
            if trace is not None and len(trace) >= 2:
                total += trace.energy_j()
                covered += 1
            else:
                total += fallback_share
        return total, covered / n_nodes

    def bill(self, record: JobRecord) -> JobEnergyBill:
        """Produce one job's bill (with its measurement coverage)."""
        energy, measured_fraction = self._energy_and_coverage(record)
        duration = record.actual_runtime_s
        return JobEnergyBill(
            job_id=record.job.job_id,
            user=record.job.user,
            app=record.job.app,
            energy_j=energy,
            mean_power_w=energy / duration if duration > 0 else 0.0,
            duration_s=duration,
            cost=energy / 3.6e6 * PRICE_PER_KWH,
            measured_fraction=measured_fraction,
        )

    def statements(self, bills: tuple[JobEnergyBill, ...]) -> dict[str, UserStatement]:
        """Per-user statements rolled up from job bills already made."""
        by_user: dict[str, list[JobEnergyBill]] = {}
        for b in bills:
            by_user.setdefault(b.user, []).append(b)
        return {
            user: UserStatement(
                user=user,
                n_jobs=len(user_bills),
                total_energy_j=sum(b.energy_j for b in user_bills),
                total_cost=sum(b.cost for b in user_bills),
            )
            for user, user_bills in by_user.items()
        }
