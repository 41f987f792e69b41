"""explore_search: a seeded evolutionary search over a pre-seeded store."""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.explore.env import ExplorationEnv
from repro.explore.run import BATCH_SIZE
from repro.runtime import build
from repro.scheduler import DirectoryResultStore, run_campaign
from repro.scheduler.registries import make_searcher

from .base import Op, Workload, dir_bytes, runtime_config


@dataclass
class _ExploreShared:
    seed_dir: Path
    seeded_keys: frozenset[str]


@dataclass
class _ExploreState:
    plan: Any
    store: DirectoryResultStore
    seeded_keys: frozenset[str]
    seeded_bytes: int


class ExploreSearch(Workload):
    name = "explore_search"

    def load(self, seed: int):
        return runtime_config(self.config_path, seed)

    def build(self, cfg):
        return build(cfg)

    def sizes(self, cfg) -> dict[str, Any]:
        return {"n_nodes": cfg.machine.n_nodes, "n_jobs": cfg.workload.n_jobs,
                "budget": cfg.exploration.budget,
                "searcher": cfg.exploration.searcher,
                "seeded_cells": BATCH_SIZE, "processes": 1}

    def prepare_once(self, cfg, art, workdir):
        """Seed a store with the search's first batch, payloads kept.

        This is what a ``keep_results=True`` campaign over a shared
        store leaves behind: the search then reads those cells back as
        payload-carrying hits.
        """
        searcher = make_searcher(art.searcher)
        searcher.reset(art.space, art.objective, np.random.default_rng(art.seed))
        env = ExplorationEnv(art.space, art.objective, art.config,
                             base=dict(art.base) or None)
        cells = [env.compile(p) for p in searcher.ask(BATCH_SIZE)]
        seed_dir = workdir / "explore-seed-store"
        store = DirectoryResultStore(seed_dir)
        run_campaign(art.config, cells, processes=1, keep_results=True, cache=store)
        return _ExploreShared(seed_dir=seed_dir, seeded_keys=frozenset(store.keys()))

    def prepare(self, cfg, art, shared, repdir):
        target = repdir / "store"
        shutil.copytree(shared.seed_dir, target)
        return _ExploreState(plan=art, store=DirectoryResultStore(target),
                             seeded_keys=shared.seeded_keys,
                             seeded_bytes=dir_bytes(target))

    def run(self, state):
        trace = state.plan.run(cache=state.store, processes=1)
        return trace, {"trace": trace.digest()}

    def check(self, state, trace):
        payload_hits = sum(1 for s in trace.steps
                           if s.cache_hit and s.key in state.seeded_keys)
        # The hit/simulation mix actually occurred: seeded payload hits,
        # in-search revisits and fresh simulations.
        mix_ok = (payload_hits > 0 and trace.n_simulated > 0
                  and trace.n_cache_hits > payload_hits
                  and len(trace.steps) == state.plan.budget)
        return [Op(f"eval:{s.index}", mix_ok, ("trace",)) for s in trace.steps]

    def counts(self, state, trace):
        return {"store_bytes_written": dir_bytes(state.store.root) - state.seeded_bytes}


WORKLOAD = ExploreSearch()
