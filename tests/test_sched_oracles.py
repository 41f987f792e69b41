"""Closed-form oracles: tiny whole-simulator cases with hand-derived answers.

The two simulator cores are pinned to each other by differential tests,
but both execute the arithmetic in ``repro.scheduler.contract``, so a
bug in that shared arithmetic would pass every differential check.
These cases compute the expected answer from the power model's
definition instead, and this module imports nothing from the contract:

* one job under a constant binding cap runs at ``speed = rho ** e``,
  with ``rho = (cap - N*idle) / (P - n*idle)`` on an ``N``-node machine
  for an ``n``-node job drawing ``P``; it ends at ``submit + runtime /
  speed`` and bills its idle floor plus ``rho`` of its dynamic power
  over that stretched time;
* two jobs that each need the whole machine start back to back;
* a node crash under a running job requeues it exactly once: it
  restarts at the crash instant on the surviving nodes and its record
  keeps the joules and seconds its first life burnt.

Each case runs on both cores under FIFO and under EASY.
"""

import pytest

from repro.scheduler import (
    SIMULATOR_CORES,
    ClusterSimulator,
    EasyBackfillScheduler,
    FifoScheduler,
    Job,
    NodeOutage,
)

N_NODES = 4
IDLE_W = 300.0
#: Default simulator speed law: speed = rho ** SPEED_EXPONENT.
SPEED_EXPONENT = 0.75

POLICIES = {"fifo": FifoScheduler, "easy": EasyBackfillScheduler}

cores = pytest.mark.parametrize("core", SIMULATOR_CORES)
policies = pytest.mark.parametrize("policy", sorted(POLICIES))


def _job(job_id, n_nodes, runtime, submit=0.0, power_per_node=1500.0):
    return Job(
        job_id=job_id, user="u", app="qe", n_nodes=n_nodes,
        walltime_req_s=2 * runtime, submit_time_s=submit,
        true_runtime_s=runtime, true_power_per_node_w=power_per_node,
    )


def _run(core, policy, jobs, cap_w=None, outages=()):
    sim = ClusterSimulator(
        N_NODES, POLICIES[policy](), idle_node_power_w=IDLE_W, cap_w=cap_w,
        speed_exponent=SPEED_EXPONENT, node_outages=outages, core=core,
    )
    return sim.run(jobs)


def _trim(cap_w, n_nodes, power_w):
    """The binding trim ratio and speed for one job alone on the machine."""
    rho = (cap_w - N_NODES * IDLE_W) / (power_w - n_nodes * IDLE_W)
    assert 0.3 ** (1 / SPEED_EXPONENT) < rho < 1.0  # binding, above the floor
    return rho, rho ** SPEED_EXPONENT


@cores
@policies
def test_one_job_under_a_binding_cap_runs_at_the_trimmed_speed(core, policy):
    submit, runtime, n = 100.0, 1000.0, 2
    job = _job(0, n, runtime, submit=submit)
    cap_w = 2880.0  # demand 3600 W: the cap binds
    rho, speed = _trim(cap_w, n, job.true_power_w)

    result = _run(core, policy, [job], cap_w=cap_w)

    rec = result.records[0]
    stretched = runtime / speed
    assert rec.start_time_s == submit
    assert rec.end_time_s == pytest.approx(submit + stretched, rel=1e-12)
    granted = n * IDLE_W + (job.true_power_w - n * IDLE_W) * rho
    assert rec.energy_j == pytest.approx(granted * stretched, rel=1e-12)
    assert rec.elapsed_running_s == pytest.approx(stretched, rel=1e-12)
    assert rec.work_progressed_s == pytest.approx(runtime, rel=1e-12)
    assert rec.requeues == 0


@cores
@policies
@pytest.mark.parametrize("cap_w", [None, 3600.0], ids=["uncapped", "capped"])
def test_two_whole_machine_jobs_start_back_to_back(core, policy, cap_w):
    first, second = _job(0, N_NODES, 700.0), _job(1, N_NODES, 300.0)
    if cap_w is None:
        speed = 1.0
    else:
        _, speed = _trim(cap_w, N_NODES, first.true_power_w)

    result = _run(core, policy, [first, second], cap_w=cap_w)

    a, b = result.records
    assert a.start_time_s == 0.0
    assert b.start_time_s == a.end_time_s  # the second waits for the first
    assert a.end_time_s == pytest.approx(700.0 / speed, rel=1e-12)
    assert b.end_time_s == pytest.approx((700.0 + 300.0) / speed, rel=1e-12)
    assert a.nodes == b.nodes == tuple(range(N_NODES))


@cores
@policies
def test_a_crash_under_a_running_job_requeues_it_once(core, policy):
    runtime, crash_at = 1000.0, 400.0
    job = _job(0, 2, runtime)
    outage = NodeOutage(at_s=crash_at, node_id=0, duration_s=400.0)

    result = _run(core, policy, [job], outages=[outage])

    rec = result.records[0]
    assert rec.requeues == result.n_requeues == 1
    assert rec.start_time_s == crash_at  # restarted at once ...
    assert rec.nodes == (1, 2)  # ... on the nodes that survived
    assert rec.end_time_s == crash_at + runtime
    # The first life's 400 s stay billed on the record.
    assert rec.elapsed_running_s == pytest.approx(crash_at + runtime, rel=1e-12)
    assert rec.energy_j == pytest.approx(
        job.true_power_w * (crash_at + runtime), rel=1e-12)
