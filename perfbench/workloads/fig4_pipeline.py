"""fig4_pipeline: ``DavideSystem.run_campaign``, the paper's Fig.-4 loop."""

from __future__ import annotations

import dataclasses
import tomllib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core import DavideConfig, DavideSystem
from repro.hardware.specs import DAVIDE_RACK, DAVIDE_SYSTEM
from repro.scheduler import WorkloadConfig, WorkloadGenerator, result_digest

from .base import Op, Workload

#: Billed (measured) energy must agree with the simulated truth this well.
BILLING_REL_TOL = 0.02
#: The predictor trained on measured history must stay this accurate.
PREDICTOR_MAPE_MAX = 0.15
#: Post-trim production power may exceed the budget by this much.
BUDGET_REL_TOL = 0.02


@dataclass
class _Fig4State:
    system: DavideSystem
    jobs: list
    budget_w: float
    predictor: str


class Fig4Pipeline(Workload):
    name = "fig4_pipeline"

    def load(self, seed: int):
        cfg = tomllib.loads(self.config_path.read_text(encoding="utf-8"))
        cfg["seed"] = seed
        return cfg

    def _system_config(self, cfg) -> DavideConfig:
        rack = dataclasses.replace(DAVIDE_RACK,
                                   nodes_per_rack=cfg["system"]["nodes_per_rack"])
        spec = dataclasses.replace(DAVIDE_SYSTEM,
                                   compute_racks=cfg["system"]["racks"], rack=rack)
        return DavideConfig(system=spec)

    def build(self, cfg):
        return DavideSystem(self._system_config(cfg), seed=cfg["seed"])

    def sizes(self, cfg) -> dict[str, Any]:
        s = cfg["system"]
        return {"racks": s["racks"], "nodes_per_rack": s["nodes_per_rack"],
                "n_nodes": s["racks"] * s["nodes_per_rack"],
                "n_jobs": cfg["workload"]["n_jobs"],
                "budget_per_node_w": cfg["pipeline"]["budget_per_node_w"]}

    def prepare_once(self, cfg, art, workdir):
        return WorkloadGenerator(
            WorkloadConfig(n_jobs=cfg["workload"]["n_jobs"],
                           cluster_nodes=art.cluster.n_nodes,
                           load_factor=cfg["workload"]["load_factor"]),
            rng=np.random.default_rng(cfg["seed"]),
        ).generate()

    def prepare(self, cfg, art, shared, repdir):
        # A DavideSystem accumulates broker/TSDB state: one per run.
        system = self.build(cfg)
        return _Fig4State(
            system=system, jobs=shared,
            budget_w=cfg["pipeline"]["budget_per_node_w"] * system.cluster.n_nodes,
            predictor=cfg["pipeline"]["predictor"],
        )

    def run(self, state):
        report = state.system.run_campaign(state.jobs, power_budget_w=state.budget_w,
                                           predictor_kind=state.predictor)
        return report, {"history": result_digest(report.history_result),
                        "production": result_digest(report.production_result)}

    def check(self, state, report):
        history = report.history_result.records
        truth = sum(r.energy_j for r in history)
        qos = report.qos_summary()
        return [
            Op("history", all(r.end_time_s is not None for r in history),
               ("history",)),
            Op("telemetry", report.mqtt_published > 0 and report.mqtt_delivered > 0
               and report.tsdb_samples > 0),
            Op("accounting", truth > 0 and abs(report.total_billed_energy_j / truth - 1.0)
               <= BILLING_REL_TOL),
            Op("prediction", report.predictor_score.mape < PREDICTOR_MAPE_MAX),
            Op("production", qos["peak_power_w"] <= state.budget_w * (1 + BUDGET_REL_TOL),
               ("production",)),
        ]

    def counts(self, state, report):
        broker = state.system.broker
        return {"mqtt_published": broker.published_count,
                "mqtt_delivered": broker.delivered_count,
                "tsdb_samples": report.tsdb_samples}


WORKLOAD = Fig4Pipeline()
