"""capped_campaign: a cold four-cell capped campaign into a fresh store."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.runtime import build
from repro.scheduler import DirectoryResultStore, campaign_digest

from .base import Op, Workload, dir_bytes, runtime_config

#: Post-trim tolerance of the capped cells: the cap may be exceeded for
#: at most this fraction of the makespan (the DVFS floor can bind).
CAP_VIOLATION_MAX = 0.01


@dataclass
class _CampaignState:
    plan: Any
    store: DirectoryResultStore


class CappedCampaign(Workload):
    name = "capped_campaign"

    def load(self, seed: int):
        return runtime_config(self.config_path, seed)

    def build(self, cfg):
        return build(cfg)

    def sizes(self, cfg) -> dict[str, Any]:
        return {"n_nodes": cfg.machine.n_nodes, "n_jobs": cfg.workload.n_jobs,
                "cells": len(cfg.campaign.cells), "processes": 1}

    def prepare(self, cfg, art, shared, repdir):
        return _CampaignState(plan=art, store=DirectoryResultStore(repdir / "store"))

    def run(self, state):
        results = state.plan.run(processes=1, keep_results=True, cache=state.store)
        digests = {"campaign": campaign_digest(results)}
        digests.update((f"cell:{r.scenario.label}", r.digest) for r in results)
        return results, digests

    def check(self, state, results):
        plan = state.plan
        # The store only writes: every cell lands once, with its payload.
        stored = list(state.store.root.glob("*.npz"))
        store_ok = len(stored) == len(plan.grid) == len(results)
        ops = []
        for r in results:
            qos = r.qos
            ok = store_ok and int(qos["n_jobs"]) == plan.config.n_jobs
            if r.scenario.cap_w is not None:
                ok = ok and qos["cap_violation_fraction"] <= CAP_VIOLATION_MAX
            ops.append(Op(r.scenario.label, ok,
                          ("campaign", f"cell:{r.scenario.label}")))
        return ops

    def counts(self, state, results):
        return {"store_bytes_written": dir_bytes(state.store.root)}


WORKLOAD = CappedCampaign()
