"""fault_drill: the per-sample (unbatched) FaultDrill on the sim kernel."""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from typing import Any

from repro.cluster import ClusterBuilder
from repro.faults import FaultKind, FaultSpec

from .base import Op, Workload


@dataclass
class _DrillState:
    drill: Any
    faults: list


class FaultDrillWorkload(Workload):
    name = "fault_drill"

    def load(self, seed: int):
        raw = tomllib.loads(self.config_path.read_text(encoding="utf-8"))
        n = raw["drill"]["n_nodes"]
        faults = [
            FaultSpec(
                FaultKind(f["kind"]), at_s=f["at_s"], duration_s=f.get("duration_s", 0.0),
                target=f["target"] % n if "target" in f else None,
                magnitude=f.get("magnitude", 0.0),
            )
            for f in raw["fault"]
        ]
        return {"drill": raw["drill"], "faults": faults, "seed": seed}

    def build(self, cfg):
        d = cfg["drill"]
        budget_w = d["budget_per_node_w"] * d["n_nodes"]
        return (
            ClusterBuilder(n_nodes=d["n_nodes"], seed=cfg["seed"])
            .with_gateways(period_s=d["gateway_period_s"], batched=d["batched"])
            .with_scheduler(cap_w=budget_w)
            # Shelf scaled with the budget: one PSU loss still covers it,
            # two force a retarget (bench_scale's sizing).
            .with_faults(shelf_psu_rating_w=budget_w * 3.0 / 14.0, n_jobs=d["n_jobs"])
            .build_drill()
        )

    def sizes(self, cfg) -> dict[str, Any]:
        d = cfg["drill"]
        return {"n_nodes": d["n_nodes"], "n_jobs": d["n_jobs"], "faults": len(cfg["faults"]),
                "batched": d["batched"], "gateway_period_s": d["gateway_period_s"]}

    def prepare(self, cfg, art, shared, repdir):
        # A drill runs once: build a fresh one for every run.
        return _DrillState(drill=self.build(cfg), faults=cfg["faults"])

    def run(self, state):
        report = state.drill.run(faults=state.faults)
        return report, {"log": report.summary["log_digest"]}

    def check(self, state, report):
        summary = report.summary
        checks = summary["invariant_checks"]
        bad = min(summary["violations"], checks)
        done = summary["jobs_completed"] == summary["jobs_submitted"]
        return [Op(f"check:{i}", done and i >= bad, ("log",)) for i in range(checks)]

    def counts(self, state, report):
        drill = state.drill
        return {"mqtt_published": drill.broker.published_count,
                "mqtt_delivered": drill.broker.delivered_count,
                "engine_events": drill.env.events_dispatched,
                "violations": report.summary["violations"]}


WORKLOAD = FaultDrillWorkload()
