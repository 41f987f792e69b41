"""Design-space exploration harness: spaces, objectives, env, searchers.

The load-bearing properties pinned here:

* **Trace digest invariance** — the same ``(space, objective, searcher,
  seed, budget)`` produces the identical trace digest whether it runs
  serially or pooled, against a cold store or a warm one.
* **Warm replay is free** — re-running an identical search against its
  own store performs zero simulations (100% cache hits) and still
  digests identically.
* **The evolutionary searcher earns its keep** — on the smoke problem
  it finds a better optimum than random search at equal budget.
"""

import json

import numpy as np
import pytest

from repro.explore import (
    BATCH_SIZE,
    SEARCHERS,
    Categorical,
    Continuous,
    DesignSpace,
    EvolutionarySearcher,
    ExplorationEnv,
    ExplorationTrace,
    Integer,
    Objective,
    explore,
)
from repro.observability import Observability
from repro.scheduler import (
    CampaignConfig,
    MemoryResultStore,
    make_searcher,
)

CONFIG = CampaignConfig(n_nodes=8, n_jobs=20, root_seed=11, load_factor=1.1)


def small_space() -> DesignSpace:
    return DesignSpace({
        "cap_w": Continuous(8_000.0, 14_000.0),
        "backfill_depth": Integer(1, 8),
        "policy": Categorical(("easy", "power-aware")),
    })


def small_objective() -> Objective:
    return Objective.blend({"total_energy_j": 1.0, "p95_wait_s": 5e4})


# ---------------------------------------------------------------------------
# domains and spaces
# ---------------------------------------------------------------------------

class TestDomains:
    def test_continuous_sample_grid_clip(self):
        knob = Continuous(1.0, 3.0)
        rng = np.random.default_rng(0)
        assert all(1.0 <= knob.sample(rng) <= 3.0 for _ in range(50))
        assert knob.grid(3) == [1.0, 2.0, 3.0]
        assert knob.grid(1) == [2.0]
        assert knob.clip(99.0) == 3.0 and knob.clip(-1) == 1.0

    def test_integer_sample_is_inclusive_and_grid_dedupes(self):
        knob = Integer(2, 4)
        rng = np.random.default_rng(0)
        seen = {knob.sample(rng) for _ in range(200)}
        assert seen == {2, 3, 4}
        assert knob.grid(10) == [2, 3, 4]
        assert knob.grid(2) == [2, 4]

    def test_integer_mutate_always_moves(self):
        knob = Integer(0, 10)
        rng = np.random.default_rng(3)
        assert any(knob.mutate(5, rng) != 5 for _ in range(10))

    def test_categorical_mutate_changes_choice(self):
        knob = Categorical(("a", "b", "c"))
        rng = np.random.default_rng(0)
        assert all(knob.mutate("a", rng) != "a" for _ in range(20))
        assert Categorical(("only",)).mutate("only", rng) == "only"

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            Continuous(2.0, 2.0)
        with pytest.raises(ValueError):
            Integer(5, 4)
        with pytest.raises(ValueError):
            Categorical(())
        with pytest.raises(ValueError):
            Categorical(("x", "x"))


class TestDesignSpace:
    def test_validate_clips_and_rejects(self):
        space = small_space()
        point = space.validate(
            {"cap_w": 99e9, "backfill_depth": 0, "policy": "easy"})
        assert point["cap_w"] == 14_000.0 and point["backfill_depth"] == 1
        with pytest.raises(KeyError, match="unknown knob"):
            space.validate({"cap_w": 9e3, "backfill_depth": 2,
                            "policy": "easy", "bogus": 1})
        with pytest.raises(KeyError, match="missing"):
            space.validate({"cap_w": 9e3})

    def test_grid_is_cartesian_and_ordered(self):
        space = small_space()
        lattice = space.grid()
        assert len(lattice) == 3 * 3 * 2 == space.size()  # 3 levels per ordered axis
        assert lattice[0] == {"cap_w": 8_000.0, "backfill_depth": 1,
                              "policy": "easy"}
        # the last knob varies fastest
        assert lattice[1]["policy"] == "power-aware"

    def test_sample_and_mutate_stay_in_space(self):
        space = small_space()
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = space.sample(rng)
            assert space.validate(p) == p
            q = space.mutate(p, rng)
            assert space.validate(q) == q
            assert q != p  # at least one knob always flips


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

class TestObjective:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            Objective(metrics=("joules",))

    def test_value_and_vector(self):
        obj = Objective.blend({"mean_wait_s": 2.0, "peak_power_w": 0.5})
        qos = {"mean_wait_s": 10.0, "peak_power_w": 100.0, "extra": 1.0}
        assert obj.vector(qos) == (10.0, 100.0)
        assert obj.value(qos) == 2.0 * 10.0 + 0.5 * 100.0

    def test_sense_drives_better_and_best(self):
        lo = Objective(metrics=("mean_wait_s",))
        hi = Objective(metrics=("utilization",), sense="max")
        assert lo.better(1.0, 2.0) and not lo.better(2.0, 1.0)
        assert hi.better(2.0, 1.0) and not hi.better(1.0, 1.0)

    def test_weight_arity_checked(self):
        with pytest.raises(ValueError, match="one weight per metric"):
            Objective(metrics=("mean_wait_s", "peak_power_w"),
                      weights=(1.0,))


# ---------------------------------------------------------------------------
# the environment
# ---------------------------------------------------------------------------

class TestExplorationEnv:
    def test_compile_routes_knobs_into_scenario(self):
        env = ExplorationEnv(small_space(), small_objective(), CONFIG)
        cell = env.compile(
            {"cap_w": 9e3, "backfill_depth": 4, "policy": "power-aware"})
        assert cell.policy == "power-aware"
        assert cell.cap_w == 9e3 and cell.backfill_depth == 4

    def test_policy_must_come_from_somewhere(self):
        space = DesignSpace({"cap_w": Continuous(8e3, 14e3)})
        with pytest.raises(ValueError, match="policy"):
            ExplorationEnv(space, small_objective(), CONFIG)
        ExplorationEnv(space, small_objective(), CONFIG,
                       base={"policy": "easy"})  # ok

    def test_base_and_knobs_must_not_overlap(self):
        with pytest.raises(KeyError, match="both as knobs and in base"):
            ExplorationEnv(small_space(), small_objective(), CONFIG,
                           base={"policy": "easy"})

    def test_non_scenario_knob_rejected(self):
        space = DesignSpace({"n_nodes": Integer(4, 8)})
        with pytest.raises(KeyError, match="scenario fields"):
            ExplorationEnv(space, small_objective(), CONFIG)

    def test_evaluate_dedupes_within_batch(self):
        env = ExplorationEnv(small_space(), small_objective(), CONFIG)
        p = {"cap_w": 9e3, "backfill_depth": 4, "policy": "easy"}
        steps = env.evaluate([p, dict(p)])
        assert steps[0].cache_hit is False
        assert steps[1].cache_hit is True
        assert steps[0].result_digest == steps[1].result_digest
        assert steps[0].fitness == steps[1].fitness

    def test_counters_land_in_ops_report(self):
        obs = Observability()
        env = ExplorationEnv(small_space(), small_objective(), CONFIG,
                             obs=obs)
        p = {"cap_w": 9e3, "backfill_depth": 4, "policy": "easy"}
        env.evaluate([p, dict(p)])
        section = obs.ops_report()["exploration"]
        assert section["points"] == 2.0
        assert section["simulations"] == 1.0
        assert section["cache_hits"] == 1.0
        assert section["batches"] == 1.0


# ---------------------------------------------------------------------------
# explore() determinism — the acceptance criteria
# ---------------------------------------------------------------------------

class TestExploreDeterminism:
    @pytest.mark.parametrize("searcher", ["random", "grid", "evolutionary"])
    def test_digest_reproducible_per_searcher(self, searcher):
        kw = dict(searcher=searcher, budget=6, seed=4, config=CONFIG)
        a = explore(small_space(), small_objective(), **kw)
        b = explore(small_space(), small_objective(), **kw)
        assert a.digest() == b.digest()
        assert [s.point for s in a.steps] == [s.point for s in b.steps]

    def test_digest_invariant_to_pool_size(self):
        kw = dict(searcher="evolutionary", budget=10, seed=2, config=CONFIG)
        serial = explore(small_space(), small_objective(), processes=1, **kw)
        pooled = explore(small_space(), small_objective(), processes=2, **kw)
        assert serial.digest() == pooled.digest()

    def test_warm_rerun_is_all_hits_and_digest_identical(self):
        store = MemoryResultStore()
        kw = dict(searcher="random", budget=8, seed=6, config=CONFIG,
                  cache=store)
        cold = explore(small_space(), small_objective(), **kw)
        warm = explore(small_space(), small_objective(), **kw)
        assert warm.digest() == cold.digest()
        assert warm.n_simulated == 0
        assert warm.n_cache_hits == len(warm.steps)
        assert warm.cache_hit_fraction == 1.0

    def test_different_seed_changes_trajectory(self):
        a = explore(small_space(), small_objective(), searcher="random",
                    budget=6, seed=0, config=CONFIG)
        b = explore(small_space(), small_objective(), searcher="random",
                    budget=6, seed=1, config=CONFIG)
        assert a.digest() != b.digest()

    def test_searcher_instance_and_name_agree(self):
        kw = dict(budget=6, seed=4, config=CONFIG)
        by_name = explore(small_space(), small_objective(),
                          searcher="evolutionary", **kw)
        by_instance = explore(small_space(), small_objective(),
                              searcher=make_searcher("evolutionary"), **kw)
        assert by_name.digest() == by_instance.digest()

    def test_grid_searcher_walks_the_lattice_in_order(self):
        space = DesignSpace({"backfill_depth": Integer(1, 2),
                             "policy": Categorical(("fifo", "easy"))})
        trace = explore(space, small_objective(), searcher="grid",
                        budget=6, seed=0, config=CONFIG)
        points = [s.point for s in trace.steps]
        assert points[:4] == space.grid()[:4]
        assert points[4] == points[0]  # budget past the lattice cycles
        assert trace.steps[4].cache_hit is True


class TestExploreSearchQuality:
    def test_evolutionary_beats_random_on_smoke_problem(self):
        """Same budget, same seed, smooth landscape (energy falls as the
        cap tightens): the adaptive searcher must find a better optimum.
        Everything is pinned, so this is a deterministic comparison, not
        a flaky statistical one.  The cap range is chosen to *bind* on
        the 8-node machine — a non-binding cap flattens the landscape
        and every searcher ties."""
        space = DesignSpace({"cap_w": Continuous(3_000.0, 9_000.0),
                             "backfill_depth": Integer(1, 8)})
        objective = Objective.blend(
            {"total_energy_j": 1.0, "p95_wait_s": 1e4})
        base = {"policy": "power-aware"}
        store = MemoryResultStore()
        kw = dict(budget=3 * BATCH_SIZE, seed=1, config=CONFIG, base=base,
                  cache=store)
        evo = explore(space, objective, searcher="evolutionary", **kw)
        rnd = explore(space, objective, searcher="random", **kw)
        assert objective.better(evo.best_fitness, rnd.best_fitness)

    def test_best_fitness_curve_is_monotone(self):
        trace = explore(small_space(), small_objective(),
                        searcher="evolutionary", budget=10, seed=3,
                        config=CONFIG)
        curve = trace.best_fitness_curve()
        assert len(curve) == 10
        assert all(b <= a for a, b in zip(curve, curve[1:]))  # sense=min
        assert curve[-1] == trace.best_fitness


class TestMakeSearcher:
    def test_make_searcher_builds_by_name(self):
        assert tuple(SEARCHERS) == ("random", "grid", "evolutionary")
        searcher = make_searcher("evolutionary")
        assert type(searcher) is EvolutionarySearcher
        assert searcher.name == "evolutionary"

    def test_unknown_searcher_lists_known(self):
        with pytest.raises(KeyError,
                           match=r"'simulated-annealing'.*'random'.*'evolutionary'"):
            make_searcher("simulated-annealing")


class TestTraceArtifact:
    def test_to_dict_round_trips_through_json(self):
        trace = explore(small_space(), small_objective(), searcher="random",
                        budget=4, seed=9, config=CONFIG)
        blob = json.loads(json.dumps(trace.to_dict()))
        assert blob["digest"] == trace.digest()
        assert blob["best_index"] == trace.best_index
        assert len(blob["steps"]) == 4
        assert blob["best_fitness_curve"] == trace.best_fitness_curve()

    def test_digest_ignores_cache_hits_but_not_results(self):
        trace = explore(small_space(), small_objective(), searcher="random",
                        budget=3, seed=9, config=CONFIG)
        d0 = trace.digest()
        flipped = ExplorationTrace(
            space=trace.space, objective=trace.objective,
            searcher=trace.searcher, seed=trace.seed, budget=trace.budget,
            steps=[type(s)(**{**s.canonical(), "qos": s.qos,
                              "vector": s.vector, "cache_hit": True})
                   for s in trace.steps],
        )
        assert flipped.digest() == d0
        tampered = ExplorationTrace(
            space=trace.space, objective=trace.objective,
            searcher=trace.searcher, seed=trace.seed, budget=trace.budget,
            steps=list(trace.steps[:-1]) + [type(trace.steps[-1])(
                **{**trace.steps[-1].canonical(),
                   "result_digest": "0" * 64,
                   "qos": trace.steps[-1].qos,
                   "vector": trace.steps[-1].vector})],
        )
        assert tampered.digest() != d0

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="positive budget"):
            explore(small_space(), small_objective(), budget=0,
                    config=CONFIG)
