"""The config-driven runtime: models, loader, build, dump.

The load-bearing guarantees:

* every scenario-zoo file under ``examples/scenarios/`` loads, builds,
  and the campaign ones compile to **exactly** the grids the bench
  ``campaign_grid()`` helpers hand-wire (same ``CampaignConfig``, same
  ``Scenario`` cells in the same order — digest identity follows);
* ``load → dump → load`` is a fixed point in both formats;
* unknown sections/keys fail through the shared kwargs error path,
  naming every misspelling and the known fields;
* component names are checked against the lists their consumers own,
  so typos fail listing what *is* accepted.
"""

import hashlib
import importlib.util
import json
import os
import sys

import pytest

from repro.cluster import LiveCluster
from repro.runtime import (
    CampaignPlan,
    ConfigError,
    ExplorationPlan,
    RuntimeConfig,
    build,
    dump,
    load,
    loads,
)
from repro.scheduler import CampaignConfig, NodeOutage

HAVE_TOMLLIB = importlib.util.find_spec("tomllib") is not None
needs_tomllib = pytest.mark.skipif(
    not HAVE_TOMLLIB, reason="stdlib tomllib needs Python >= 3.11"
)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ZOO = os.path.join(_ROOT, "examples", "scenarios")
ZOO_FILES = sorted(
    os.path.join(ZOO, f) for f in os.listdir(ZOO) if f.endswith(".toml")
)


def _bench(name):
    path = os.path.join(_ROOT, "benchmarks", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _json_config(**overrides):
    """A small valid campaign config as a plain dict (JSON spelling)."""
    data = {
        "runtime": {"kind": "campaign"},
        "machine": {"n_nodes": 8},
        "workload": {"n_jobs": 20, "seed": 5},
        "campaign": {
            "seeds": [0, 1],
            "cells": [
                {"label": "base", "policy": "easy"},
                {"label": "capped", "policy": "easy", "cap_w": 9000.0},
            ],
        },
    }
    data.update(overrides)
    return data


class TestZoo:
    """Every checked-in scenario file must stay loadable and buildable."""

    @needs_tomllib
    @pytest.mark.parametrize(
        "path", ZOO_FILES, ids=[os.path.basename(p) for p in ZOO_FILES])
    def test_loads_and_builds(self, path):
        cfg = load(path)
        artifact = build(cfg)
        expected = {
            "campaign": CampaignPlan,
            "exploration": ExplorationPlan,
            "live": LiveCluster,
        }[cfg.runtime.kind]
        assert isinstance(artifact, expected)

    @needs_tomllib
    @pytest.mark.parametrize(
        "path", ZOO_FILES, ids=[os.path.basename(p) for p in ZOO_FILES])
    def test_round_trip_is_a_fixed_point(self, path):
        cfg = load(path)
        assert loads(dump(cfg, "toml"), "toml") == cfg
        assert loads(dump(cfg, "json"), "json") == cfg

    #: sha256 of ``dump(load(path), "toml")``.  The round trip above holds
    #: for any key order, so these pin the canonical bytes themselves.
    DUMP_SHA256 = {
        "e07b.toml":
            "68957e034f44554794842ee79fe3c1e6bafb4e98632e9c7ead642223ba4f1562",
        "e08a.toml":
            "8d745a392adef4e56add116f0a428bc566a0d7737c94b50fc6b551f2415d73d7",
        "e09a.toml":
            "a3c756003acfa0909cdf6a5ec4093d8cca9e9b6af455457e3ecbcbba27849614",
        "explore_cap.toml":
            "68bcb2b3b914fec1f3228ad3f02955beafc78a47f965f7869fc8e97252c86e7c",
        "live_small.toml":
            "3ca112b27690db0460a7346966e6f25880a46c5e30262f2c59671f11cfea0643",
    }

    @needs_tomllib
    @pytest.mark.parametrize(
        "path", ZOO_FILES, ids=[os.path.basename(p) for p in ZOO_FILES])
    def test_canonical_toml_dump_is_pinned(self, path):
        text = dump(load(path), "toml")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == self.DUMP_SHA256[os.path.basename(path)]

    @needs_tomllib
    @pytest.mark.parametrize("bench,zoo", [
        ("bench_e07_power_capping", "e07b.toml"),
        ("bench_e08_power_prediction", "e08a.toml"),
        ("bench_e09_fig4_pipeline", "e09a.toml"),
    ])
    def test_grid_matches_hand_wired_bench(self, bench, zoo):
        """Cell-for-cell equality with ``campaign_grid()`` — the digest
        identity of the config-driven run follows for free, because
        equal (config, grid) pairs share every scenario key."""
        bench_config, bench_grid = _bench(bench).campaign_grid()
        plan = build(os.path.join(ZOO, zoo))
        assert plan.config == bench_config
        assert list(plan.grid) == bench_grid

    @needs_tomllib
    def test_exploration_matches_hand_wired_explore(self, tmp_path):
        """The explore_cap zoo file walks the same seeded trajectory as
        the equivalent hand-wired explore() call (shared cache, so the
        second walk replays instead of re-simulating)."""
        from repro import explore
        from repro.explore import Categorical, Continuous, DesignSpace, Objective
        from repro.scheduler.cache import DirectoryResultStore

        store = DirectoryResultStore(tmp_path)
        hand = explore(
            DesignSpace({"cap_w": Continuous(10e3, 20e3),
                         "policy": Categorical(("easy", "power-aware"))}),
            Objective(metrics=("total_energy_j", "p95_wait_s"),
                      weights=(1.0, 5e4), name="energy+wait"),
            searcher="random", budget=6, seed=1,
            config=CampaignConfig(n_nodes=12, n_jobs=60, root_seed=2026,
                                  load_factor=1.1),
            cache=store,
        )
        plan = build(os.path.join(ZOO, "explore_cap.toml"))
        trace = plan.run(cache=DirectoryResultStore(tmp_path))
        assert trace.n_cache_hits == len(trace.steps)  # pure replay
        assert trace.digest() == hand.digest()


class TestLoader:
    def test_json_spelling_works_without_tomllib(self):
        cfg = loads(json.dumps(_json_config()), fmt="json")
        plan = build(cfg)
        assert isinstance(plan, CampaignPlan)
        assert len(plan.grid) == 4  # 2 cells x 2 seeds

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="yaml"):
            loads("{}", fmt="yaml")

    def test_invalid_json_is_a_config_error(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            loads("{nope", fmt="json")

    @needs_tomllib
    def test_invalid_toml_is_a_config_error(self):
        with pytest.raises(ConfigError, match="invalid TOML"):
            loads("[runtime\nkind=", fmt="toml")

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.json"):
            load(tmp_path / "nope.json")

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_json_config(machine={"n_nodes": 0})))
        with pytest.raises(ConfigError, match=r"bad\.json.*n_nodes"):
            load(path)


class TestValidation:
    """Strict names everywhere, through the shared kwargs error path."""

    def test_unknown_section_names_the_known_ones(self):
        data = _json_config()
        data["machina"] = {}
        with pytest.raises(TypeError, match=r"'machina'.*machine"):
            RuntimeConfig.from_dict(data)

    def test_all_unknown_keys_reported_sorted_with_known_fields(self):
        data = _json_config(
            machine={"n_nodes": 8, "n_node": 1, "idle_w": 2})
        with pytest.raises(
                TypeError,
                match=r"'idle_w', 'n_node'.*\(known:.*n_nodes"):
            RuntimeConfig.from_dict(data)

    def test_unknown_cell_key_names_the_cell(self):
        data = _json_config()
        data["campaign"]["cells"][1]["cap"] = 1.0
        with pytest.raises(TypeError, match=r"campaign\.cells\[1\].*'cap'"):
            RuntimeConfig.from_dict(data)

    def test_unknown_policy_lists_registered(self):
        data = _json_config(policy={"name": "sjf"})
        with pytest.raises(ConfigError,
                           match=r"policy\.name: 'sjf' is not one of "
                                 r"\('fifo', 'easy', 'power-aware'\)"):
            RuntimeConfig.from_dict(data)

    def test_unknown_workload_generator_lists_registered(self):
        """Campaigns generate one stream, so ``[workload]`` names no
        generator: the key is refused, listing the keys it takes."""
        data = _json_config(workload={"generator": "davide"})
        with pytest.raises(TypeError, match=r"workload\(\) got an unexpected keyword "
                                            r"argument 'generator' \(known: "
                                            r"load_factor, n_jobs, seed\)"):
            RuntimeConfig.from_dict(data)

    def test_unknown_searcher_lists_registered(self):
        data = {
            "runtime": {"kind": "exploration"},
            "machine": {"n_nodes": 4},
            "exploration": {
                "searcher": "bayes",
                "space": {"cap_w": {"type": "continuous",
                                    "lo": 1e3, "hi": 2e3}},
                "objective": {"metrics": ["total_energy_j"]},
                "base": {"policy": "easy"},
            },
        }
        with pytest.raises(ConfigError,
                           match=r"exploration\.searcher: 'bayes' is not one of "
                                 r"\('random', 'grid', 'evolutionary'\)"):
            RuntimeConfig.from_dict(data)

    def test_kind_must_match_sections(self):
        data = _json_config()
        data["runtime"]["kind"] = "live"
        with pytest.raises(ConfigError, match=r"\[campaign\] is only valid"):
            RuntimeConfig.from_dict(data)
        data = _json_config()
        del data["campaign"]
        with pytest.raises(ConfigError, match=r"needs a \[campaign\]"):
            RuntimeConfig.from_dict(data)

    def test_unknown_kind_rejected(self):
        data = _json_config()
        data["runtime"]["kind"] = "bench"
        with pytest.raises(ConfigError, match="'bench'"):
            RuntimeConfig.from_dict(data)

    def test_type_errors_name_the_key(self):
        data = _json_config(machine={"n_nodes": "many"})
        with pytest.raises(ConfigError,
                           match="machine.n_nodes must be an integer"):
            RuntimeConfig.from_dict(data)

    def test_bool_is_not_an_integer(self):
        data = _json_config(machine={"n_nodes": True})
        with pytest.raises(ConfigError, match="must be an integer"):
            RuntimeConfig.from_dict(data)

    def test_bad_cell_scenario_is_located(self):
        # power-aware with no envelope anywhere fails Scenario
        # validation; the error must say which cell.
        data = _json_config(policy={"name": "power-aware"})
        data["campaign"]["cells"] = [{"label": "naked"}]
        with pytest.raises(ConfigError,
                           match=r"campaign\.cells\[0\].*'naked'"):
            build(RuntimeConfig.from_dict(data))

    def test_exploration_needs_a_policy_somewhere(self):
        data = {
            "runtime": {"kind": "exploration"},
            "machine": {"n_nodes": 4},
            "exploration": {
                "space": {"cap_w": {"type": "continuous",
                                    "lo": 1e3, "hi": 2e3}},
                "objective": {"metrics": ["total_energy_j"]},
            },
        }
        with pytest.raises(ConfigError, match="policy"):
            RuntimeConfig.from_dict(data)

    def test_unknown_objective_metric_lists_known(self):
        data = {
            "runtime": {"kind": "exploration"},
            "machine": {"n_nodes": 4},
            "exploration": {
                "space": {"policy": {"type": "categorical",
                                     "choices": ["easy"]}},
                "objective": {"metrics": ["joules"]},
            },
        }
        with pytest.raises(ConfigError, match=r"'joules'.*total_energy_j"):
            RuntimeConfig.from_dict(data)

    def test_campaign_requires_the_davide_mix(self):
        from repro.scheduler import DEFAULT_APP_MIX, scenario_workload

        data = _json_config(workload={"n_jobs": 20, "seed": 5})
        plan = build(RuntimeConfig.from_dict(data))
        jobs = scenario_workload(plan.config, plan.grid[0])
        assert len(jobs) == 20
        assert {j.app for j in jobs} <= set(DEFAULT_APP_MIX)


class TestBuildSemantics:
    def test_cells_inherit_from_shared_sections(self):
        data = _json_config(
            policy={"name": "power-aware", "predictor": "nameplate",
                    "train_fraction": 0.0},
            cap={"cap_w": 9e3, "budget_w": 8e3},
        )
        data["campaign"]["cells"] = [
            {"label": "inherits"},
            {"label": "overrides", "cap_w": 7e3, "predictor": "oracle"},
        ]
        plan = build(RuntimeConfig.from_dict(data))
        inherits, overrides = plan.grid[0], plan.grid[1]
        assert inherits.policy == "power-aware"
        assert inherits.cap_w == 9e3 and inherits.budget_w == 8e3
        assert inherits.predictor == "nameplate"
        assert overrides.cap_w == 7e3 and overrides.budget_w == 8e3
        assert overrides.predictor == "oracle"

    def test_grid_is_seed_outer_cell_inner(self):
        plan = build(RuntimeConfig.from_dict(_json_config()))
        order = [(s.seed_index, s.label) for s in plan.grid]
        assert order == [(0, "base"), (0, "capped"),
                         (1, "base"), (1, "capped")]

    def test_shared_outages_thread_into_every_cell(self):
        data = _json_config()
        data["outage"] = [
            {"at_s": 100.0, "node_id": 2, "duration_s": 50.0}]
        data["campaign"]["cells"][1]["outages"] = [
            {"at_s": 5.0, "node_id": 0, "duration_s": 1.0}]
        plan = build(RuntimeConfig.from_dict(data))
        assert plan.grid[0].node_outages == (
            NodeOutage(at_s=100.0, node_id=2, duration_s=50.0),)
        # a cell's own outage list overrides the shared one
        assert plan.grid[1].node_outages == (
            NodeOutage(at_s=5.0, node_id=0, duration_s=1.0),)

    def test_campaign_config_maps_machine_and_workload(self):
        data = _json_config(
            machine={"n_nodes": 8, "min_speed": 0.5,
                     "idle_node_power_w": 250.0},
        )
        plan = build(RuntimeConfig.from_dict(data))
        assert plan.config == CampaignConfig(
            n_nodes=8, n_jobs=20, root_seed=5, load_factor=0.85,
            idle_node_power_w=250.0, min_speed=0.5)

    def test_campaign_plan_runs(self):
        from repro.scheduler import campaign_digest, run_campaign

        plan = build(RuntimeConfig.from_dict(_json_config()))
        results = plan.run(processes=1)
        hand = run_campaign(plan.config, list(plan.grid), processes=1)
        assert campaign_digest(results) == campaign_digest(hand)

    def test_live_build_wires_capping_and_observability(self):
        data = {
            "runtime": {"kind": "live"},
            "machine": {"n_nodes": 3},
            "cap": {"cap_w": 1500.0},
            "observability": {"enabled": True},
            "live": {"until_s": 1.0},
        }
        cluster = build(RuntimeConfig.from_dict(data))
        assert isinstance(cluster, LiveCluster)
        assert len(cluster.agents) == 3
        cluster.run(until=1.0)
        assert cluster.env.now == 1.0
        assert list(cluster.obs.metrics.series())  # observability is live

    def test_exploration_space_preserves_declaration_order(self):
        data = {
            "runtime": {"kind": "exploration"},
            "machine": {"n_nodes": 4},
            "exploration": {
                "space": {
                    "policy": {"type": "categorical",
                               "choices": ["easy", "fifo"]},
                    "backfill_depth": {"type": "integer",
                                       "lo": 1, "hi": 8},
                    "cap_w": {"type": "continuous",
                              "lo": 1e3, "hi": 2e3},
                },
                "objective": {"metrics": ["total_energy_j"]},
            },
        }
        plan = build(RuntimeConfig.from_dict(data))
        assert plan.space.names() == ("policy", "backfill_depth", "cap_w")
        assert plan.objective.sense == "min"


class TestDump:
    def test_dump_accepts_plans(self):
        cfg = RuntimeConfig.from_dict(_json_config())
        assert dump(build(cfg), "json") == dump(cfg, "json")

    def test_dump_rejects_other_objects(self):
        with pytest.raises(TypeError, match="RuntimeConfig"):
            dump({"runtime": {"kind": "campaign"}})

    def test_json_dump_round_trips_without_tomllib(self):
        cfg = RuntimeConfig.from_dict(_json_config())
        assert loads(dump(cfg, "json"), "json") == cfg

    def test_dump_omits_null_knobs(self):
        cfg = RuntimeConfig.from_dict(_json_config())
        data = json.loads(dump(cfg, "json"))
        cell = data["campaign"]["cells"][0]
        assert "cap_w" not in cell  # None is spelled by omission
        assert data["campaign"]["cells"][1]["cap_w"] == 9000.0

    @needs_tomllib
    def test_toml_dump_of_generated_config_round_trips(self):
        data = _json_config(
            policy={"name": "easy", "backfill_depth": 4},
            cap={"cap_w": 9e3},
        )
        data["outage"] = [{"at_s": 9.0, "node_id": 1, "duration_s": 2.0}]
        cfg = RuntimeConfig.from_dict(data)
        assert loads(dump(cfg, "toml"), "toml") == cfg


class TestRejectUnknownKwargs:
    """The loader's unknown-key error names *every* unknown spelling
    (sorted), not one arbitrary pick, plus the known fields."""

    def test_single_unknown_keeps_the_classic_message(self):
        from repro.runtime.models import reject_unknown_kwargs
        with pytest.raises(TypeError,
                           match="got an unexpected keyword argument 'zap'"):
            reject_unknown_kwargs("Thing", {"zap": 1})

    def test_all_unknowns_reported_in_sorted_order(self):
        """Regression: only ``next(iter(kwargs))`` — one arbitrary
        name — used to be reported when several were left over."""
        from repro.runtime.models import reject_unknown_kwargs
        with pytest.raises(
            TypeError,
            match=r"unexpected keyword arguments 'alpha', 'beta', 'zeta'",
        ):
            reject_unknown_kwargs("Thing", {"zeta": 1, "alpha": 2, "beta": 3})

    def test_known_fields_named_when_provided(self):
        from repro.runtime.models import reject_unknown_kwargs
        with pytest.raises(TypeError, match=r"\(known: bar, foo\)"):
            reject_unknown_kwargs("Section", {"baz": 1}, known=("foo", "bar"))

    def test_empty_kwargs_pass_silently(self):
        from repro.runtime.models import reject_unknown_kwargs
        reject_unknown_kwargs("Thing", {}, known=("a",))
