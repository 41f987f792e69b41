"""Seeded differential sweep pinning the array core to the reference.

Each test expands one seed into a random scenario (policy x cap x
outages x workload shape, see ``tests/diff_harness.random_scenario``)
and demands the reference and array cores produce float-identical
results — every record field, both trace arrays, every
QoS metric and the sha256 digest.  A failure message names the seed and
the exact ``python tests/diff_harness.py --seed N`` command that
reproduces it outside pytest.

The 200-seed sweep is the acceptance gate for the array core: any
arithmetic shortcut in its vectorized trim, batched completions or flat
FIFO loop that is not an IEEE-754 identity of the contract expression
shows up here as a one-ULP divergence.
"""

import math

import pytest

from repro.scheduler import ClusterSimulator, NodeOutage
from tests.diff_harness import (
    CORES,
    PREDICTOR_KINDS,
    HarnessScenario,
    assert_cap_heavy_equivalent,
    assert_equivalent,
    cap_heavy_scenario,
    compare_results,
    random_scenario,
    run_core,
)

N_SWEEP_SEEDS = 200
N_CAP_HEAVY_SEEDS = 40


@pytest.mark.parametrize("seed", range(N_SWEEP_SEEDS))
def test_cores_equivalent(seed):
    assert_equivalent(seed)


@pytest.mark.parametrize("seed", range(N_CAP_HEAVY_SEEDS))
def test_cores_equivalent_cap_heavy(seed):
    """Tight-cap fuzzing: rho binds and moves on nearly every event, so
    the trim-epoch path (the unmasked whole-lane settle, same-timestamp
    cascade batching) is exercised constantly rather than
    incidentally."""
    assert_cap_heavy_equivalent(seed)


def test_cap_heavy_sweep_is_actually_cap_heavy():
    """Every cap-heavy draw must cap tightly (<= 65 % of nameplate) and
    the sweep must still cover the policy kinds, step caps included."""
    scenarios = [cap_heavy_scenario(seed) for seed in range(N_CAP_HEAVY_SEEDS)]
    assert all(s.cap_w is not None for s in scenarios)
    from tests.diff_harness import BUDGET_PER_NODE_W

    assert all(
        s.cap_w <= 0.65 * s.n_nodes * BUDGET_PER_NODE_W + 1e-9
        for s in scenarios
    )
    kinds = {s.policy_kind for s in scenarios}
    assert "time-varying" in kinds  # step caps: rho moves between events
    assert "easy" in kinds  # deep-backlog decision cascades
    assert any(s.outages for s in scenarios)
    assert {s.predictor_kind for s in scenarios
            if s.policy_kind in ("power-aware", "time-varying")} == set(PREDICTOR_KINDS)


#: rho_min = nextafter(1, 0) ** 1e15 is about 0.895, and on [rho_min, 1]
#: ``rho ** 1e-15`` rounds to at most two floats, so most trim moves
#: change rho but not speed: the granted-only branch of the array core,
#: which neither sampler reaches.
_COLLAPSED_SPEED = dict(speed_exponent=1e-15, min_speed=math.nextafter(1.0, 0.0))


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("policy_kind", ("fifo", "easy"))
@pytest.mark.parametrize(
    "outages",
    [(), (NodeOutage(at_s=5000.0, node_id=2, duration_s=4000.0),)],
    ids=["no-outage", "outage"],
)
def test_cores_equivalent_on_granted_only_trim_moves(seed, policy_kind, outages):
    scenario = HarnessScenario(
        seed=seed,
        label=f"granted-only/{policy_kind}/seed{seed}/out{len(outages)}",
        n_nodes=8, n_jobs=60, load_factor=1.2, policy_kind=policy_kind,
        cap_w=11000.0, outages=outages,
    )
    results = [
        ClusterSimulator(
            n_nodes=scenario.n_nodes, policy=scenario.build_policy(),
            cap_w=scenario.cap_w, node_outages=outages, core=core,
            **_COLLAPSED_SPEED,
        ).run(scenario.build_jobs())
        for core in CORES
    ]
    assert results[0].overdemand_s > 0  # the cap binds, so rho moves
    compare_results(scenario, results[0], CORES[0], results[1], CORES[1])


class _BackToFront:
    """Starts whatever fits, scanning the queue from its tail: a
    ``select``-only policy whose picks are neither a queue prefix nor in
    queue order, so the array core must find their slots itself."""

    name = "back-to-front"

    def select(self, queue, ctx):
        free = len(ctx.free_nodes)
        started = []
        for rec in reversed(queue):
            if rec.job.n_nodes <= free:
                started.append(rec)
                free -= rec.job.n_nodes
        return started


@pytest.mark.parametrize("cap_w", [None, 9000.0], ids=["uncapped", "capped"])
def test_cores_equivalent_on_unreported_out_of_order_picks(cap_w):
    scenario = HarnessScenario(
        seed=3, label=f"back-to-front/cap{cap_w}", n_nodes=8, n_jobs=80,
        load_factor=1.3, policy_kind="fifo", cap_w=cap_w,
        outages=(NodeOutage(at_s=4000.0, node_id=5, duration_s=3000.0),),
    )
    results = [
        ClusterSimulator(
            n_nodes=scenario.n_nodes, policy=_BackToFront(),
            cap_w=cap_w, node_outages=scenario.outages, core=core,
        ).run(scenario.build_jobs())
        for core in CORES
    ]
    assert all(r.end_time_s is not None for r in results[1].records)
    compare_results(scenario, results[0], CORES[0], results[1], CORES[1])


def test_cap_heavy_divergence_reports_repro_seed():
    """Cap-heavy failures must point at --cap-heavy-seed, not --seed."""
    scenario = cap_heavy_scenario(0)
    other = cap_heavy_scenario(1)
    a = run_core(scenario, "reference")
    b = run_core(other, "reference")
    with pytest.raises(AssertionError, match=r"--cap-heavy-seed 0"):
        compare_results(scenario, a, "reference", b, "array")


def test_sweep_covers_the_scenario_space():
    """The seed range actually exercises every policy kind, capped and
    uncapped runs, and outage injection — otherwise the sweep silently
    stops guarding paths it claims to pin."""
    scenarios = [random_scenario(seed) for seed in range(N_SWEEP_SEEDS)]
    kinds = {s.policy_kind for s in scenarios}
    assert kinds == {"fifo", "easy", "power-aware", "time-varying"}
    # Both pricing policies see every predictor: prices that differ
    # between (end, n) ties, and prices below the idle floor.
    for kind in ("power-aware", "time-varying"):
        assert {s.predictor_kind for s in scenarios
                if s.policy_kind == kind} == set(PREDICTOR_KINDS)
    assert any(s.cap_w is None for s in scenarios)
    assert any(s.cap_w is not None for s in scenarios)
    assert any(s.outages for s in scenarios)
    assert any(not s.outages for s in scenarios)
    # The FIFO/uncapped/no-outage cell triggers the array core's flat
    # fast path; make sure the sweep hits it and its complement.
    assert any(
        s.policy_kind == "fifo" and s.cap_w is None and not s.outages
        for s in scenarios
    )
    # FIFO with a cap or with outages admits through the generic path,
    # and a requeue drops the completion heap in uncapped runs too.
    assert any(s.policy_kind == "fifo" and s.cap_w is not None for s in scenarios)
    assert any(s.policy_kind == "fifo" and s.outages for s in scenarios)
    assert any(s.cap_w is None and s.outages for s in scenarios)


def test_divergence_reports_repro_seed():
    """A mismatch must tell the reader how to rerun the scenario."""
    scenario = random_scenario(0)
    other = random_scenario(1)
    a = run_core(scenario, "reference")
    b = run_core(other, "reference")
    with pytest.raises(AssertionError, match=r"--seed 0"):
        compare_results(scenario, a, "reference", b, "array")


def test_scenario_expansion_is_deterministic():
    """Seeds must expand identically across calls (and interpreters),
    or the ``--seed`` repro hint points at a different scenario."""
    for seed in (0, 17, 199):
        assert random_scenario(seed) == random_scenario(seed)


def test_core_list_matches_simulator():
    from repro.scheduler import SIMULATOR_CORES

    assert tuple(CORES) == tuple(SIMULATOR_CORES)
