"""The integrated D.A.V.I.D.E. system: the Fig.-4 pipeline, executable.

Wires every subsystem of this reproduction into the loop the paper's
Figure 4 draws:

1. jobs run on the cluster (the scheduling simulator);
2. each node's **energy gateway** measures its power through the real
   sensor/ADC chain and publishes over **MQTT**;
3. a collector agent subscribes and lands the samples in the **TSDB**;
4. the **accounting** layer bills per job and per user from the database
   (EA), and the **profiler** correlates phases (Pr);
5. the stored history trains the **job-power predictors** (EP);
6. the trained predictor drives the **proactive power-capped
   dispatcher**, with the **reactive capper** as the safety net.

:meth:`DavideSystem.run_campaign` executes the whole loop over a job
stream and returns a report with the QoS, accounting and prediction
outcomes — experiment E09 regenerates exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.cluster import Cluster
from ..monitoring.gateway import EnergyGateway
from ..monitoring.mqtt import MqttBroker
from ..power.trace import trace_from_function
from ..prediction.evaluate import PredictionScore, chronological_split, evaluate_model
from ..prediction.models import JobPowerModel
from ..scheduler.job import Job, JobRecord
from ..scheduler.plugins import SchedulerMonitorPlugin
from ..scheduler.policies import IDLE_NODE_POWER_W, EasyBackfillScheduler
from ..scheduler.power_aware import PowerAwareScheduler
from ..scheduler.simulate import ClusterSimulator, SimulationResult
from ..monitoring.insight import EfficiencyAuditor, Finding
from ..observability import Observability, null_observability
from ..telemetry.accounting import POWER_METRIC, EnergyAccountant, JobEnergyBill, UserStatement
from ..telemetry.tsdb import SeriesKey, TimeSeriesDB
from .config import GATEWAY, MEASUREMENT_WINDOW_S, TRAIN_FRACTION, DavideConfig

__all__ = ["DavideSystem", "CampaignReport"]


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of one end-to-end campaign."""

    history_result: SimulationResult
    production_result: SimulationResult
    predictor_score: PredictionScore
    bills: tuple[JobEnergyBill, ...]
    statements: dict[str, UserStatement]
    power_budget_w: float | None
    mqtt_published: int
    mqtt_delivered: int
    tsdb_samples: int
    findings: tuple[Finding, ...] = ()

    @property
    def total_billed_energy_j(self) -> float:
        """Sum of all job bills (measured energy)."""
        return sum(b.energy_j for b in self.bills)

    def qos_summary(self) -> dict[str, float]:
        """Production-phase QoS metrics under the power budget."""
        r = self.production_result
        return {
            "mean_wait_s": r.mean_wait_s(),
            "p95_wait_s": r.p95_wait_s(),
            "mean_bounded_slowdown": r.mean_bounded_slowdown(),
            "mean_stretch": r.mean_stretch(),
            "utilization": r.utilization,
            "peak_power_w": r.peak_power_w(),
            "cap_violation_fraction": r.cap_violation_fraction(),
        }


class DavideSystem:
    """The assembled machine + software stack."""

    def __init__(
        self,
        config: DavideConfig = DavideConfig(),
        seed: int = 0,
        obs: Observability | None = None,
    ):
        # Observability is a side store: identical campaign results with
        # it wired in or left as the shared no-op.
        self.obs = obs if obs is not None else null_observability()
        self.config = config
        self.cluster = Cluster(config.system)
        self.broker = MqttBroker()
        self.broker.bind_observability(self.obs)
        self.rng = np.random.default_rng(seed)
        self.gateways = {
            node.node_id: EnergyGateway(
                node.node_id, self.broker, config=GATEWAY,
                rng=np.random.default_rng(seed * 1000 + node.node_id),
            )
            for node in self.cluster.nodes
        }
        self.db = TimeSeriesDB()
        self.db.bind_observability(self.obs)
        self.accountant = EnergyAccountant(self.db)
        # The collector agent: subscribes to every power topic and lands
        # samples in the TSDB as they arrive.
        self.collector = self.broker.connect("tsdb-collector")
        self.collector.on_message = self._ingest
        self.collector.subscribe("davide/+/power/#", qos=1)
        #: The Fig.-4 scheduler plugin: lifecycle events + live power view.
        self.scheduler_plugin = SchedulerMonitorPlugin(self.broker)

    # -- Fig. 4 plumbing ----------------------------------------------------------
    def _ingest(self, message) -> None:
        payload = message.payload
        key = SeriesKey.of(POWER_METRIC, node=str(payload["node"]), rail=payload["rail"])
        self.db.insert_many(key, payload["t"], payload["p"])
        self.collector.acknowledge(message)

    def measure_job_power_w(self, record: JobRecord) -> float:
        """Measure one job's mean per-node power through the EG chain.

        A representative window of the job's (constant-model) node power
        goes through sensor -> ADC -> decimation -> MQTT -> TSDB; the
        returned figure is what the monitoring stack *reports*, including
        its measurement error — the level the TSDB node series, and so
        the energy accounting, are built from.  The predictor does not
        train on it (see :meth:`run_campaign`).
        """
        if record.start_time_s is None:
            raise ValueError("job has not started")
        node_id = record.nodes[0]
        gateway = self.gateways[node_id]
        watts = record.job.true_power_per_node_w
        dense_rate = GATEWAY.adc_rate_hz * 4
        truth = trace_from_function(
            lambda t: np.full_like(t, watts), MEASUREMENT_WINDOW_S, dense_rate,
            t_start=record.start_time_s,
        )
        measured = gateway.acquire_and_publish(truth)
        return measured.mean_power_w()

    def _land_node_series(self, result: SimulationResult) -> None:
        """Write each node's step power series over the campaign into the DB.

        Built from the job records (which node ran what, when) at the
        fidelity accounting needs; the per-job EG measurement above
        supplies the sensor-accurate level for each step.
        """
        intervals: dict[int, list[tuple[float, float, float]]] = {}
        for record in result.records:
            # The measured level already includes the node's full draw
            # while the job runs (the EG taps the node's busbar).
            measured_per_node = self.measure_job_power_w(record)
            for node_id in record.nodes:
                intervals.setdefault(node_id, []).append(
                    (record.start_time_s, record.end_time_s, measured_per_node)
                )
        idle = IDLE_NODE_POWER_W
        horizon = result.makespan_s
        eps = 1e-6
        for node_id, ivals in intervals.items():
            ivals.sort()
            times: list[float] = [0.0]
            powers: list[float] = [idle]
            t_last = 0.0
            for start, end, level in ivals:
                if start > t_last + eps:
                    times.append(start)
                    powers.append(idle)
                times.append(max(start, t_last) + eps)
                powers.append(level)
                times.append(end)
                powers.append(level)
                t_last = end
            times.append(max(horizon, t_last) + eps)
            powers.append(idle)
            t_arr = np.array(times)
            p_arr = np.array(powers)
            keep = np.concatenate(([True], np.diff(t_arr) > 0))
            key = self.accountant.node_key(node_id)
            self.db.insert_many(key, t_arr[keep], p_arr[keep])

    # -- campaign ---------------------------------------------------------------------
    def run_campaign(
        self,
        jobs: list[Job],
        power_budget_w: float | None = None,
        predictor_kind: str = "ridge",
    ) -> CampaignReport:
        """Execute the full Fig.-4 loop over a job stream.

        Phase 1 (history): the first
        :data:`~repro.core.config.TRAIN_FRACTION` of the stream runs under
        plain EASY backfill while the monitoring stack records it.
        Phase 2 (production): a predictor trained on the history jobs
        drives the proactive power-capped dispatcher over the rest, with
        the simulator's reactive trim at the same budget as a backstop.
        The predictor's regression target is each history job's true
        per-node power (``FeatureEncoder.target``), not the monitored
        figure that :meth:`measure_job_power_w` lands in the TSDB.
        Without a budget, production runs uncapped under plain EASY
        backfill.
        """
        if len(jobs) < 8:
            raise ValueError("campaign needs at least 8 jobs")
        history_jobs, production_jobs = chronological_split(jobs, TRAIN_FRACTION)
        # Rebase production submit times so the second simulation starts at 0.
        import dataclasses

        t0 = min(j.submit_time_s for j in production_jobs)
        production_jobs = [
            dataclasses.replace(j, submit_time_s=j.submit_time_s - t0) for j in production_jobs
        ]
        n_nodes = self.cluster.n_nodes
        # Phase 1: history under EASY backfill, fully monitored; the
        # scheduler plugin publishes each job's lifecycle on the bus.
        history_sim = ClusterSimulator(
            n_nodes,
            EasyBackfillScheduler(),
            on_job_start=self.scheduler_plugin.job_started,
            on_job_end=self.scheduler_plugin.job_ended,
            obs=self.obs,
        )
        history_result = history_sim.run(history_jobs)
        self._land_node_series(history_result)
        bills = tuple(self.accountant.bill(r) for r in history_result.records)
        statements = self.accountant.statements(bills)
        # Phase 2: train the predictor on the history jobs' true
        # per-node power (the target FeatureEncoder reads), not on the
        # monitored measurements landed above.
        factory = {
            "ridge": JobPowerModel.fit_ridge,
            "knn": JobPowerModel.fit_knn,
            "per-key": JobPowerModel.fit_per_key,
        }.get(predictor_kind)
        if factory is None:
            raise ValueError(f"unknown predictor kind {predictor_kind!r}")
        model = factory(history_jobs)
        score = evaluate_model(predictor_kind, model.predict_per_node, production_jobs)
        # Phase 3: production under the power envelope.
        if power_budget_w is not None:
            policy = PowerAwareScheduler(
                power_budget_w,
                predictor=model,
                obs=self.obs,
            )
        else:
            policy = EasyBackfillScheduler()
        production_sim = ClusterSimulator(
            n_nodes, policy, cap_w=power_budget_w, obs=self.obs,
        )
        production_result = production_sim.run(production_jobs)
        # Data intelligence over the campaign (Fig.-4's "smart profilers"
        # arm): flag underdrawing jobs and stranded capacity.
        auditor = EfficiencyAuditor()
        findings = tuple(
            auditor.audit_jobs(list(history_result.records))
            + auditor.audit_idle_capacity(
                production_result.utilization,
                queue_length=0,
            )
        )
        return CampaignReport(
            history_result=history_result,
            production_result=production_result,
            predictor_score=score,
            bills=bills,
            statements=statements,
            power_budget_w=power_budget_w,
            mqtt_published=self.broker.published_count,
            mqtt_delivered=self.broker.delivered_count,
            tsdb_samples=self.db.sample_count(),
            findings=findings,
        )
