"""Property-based invariants of the cluster scheduling simulator.

For randomized workloads and policies, the simulation must uphold the
physical/bookkeeping invariants regardless of parameters: every job
completes exactly once, no node is double-allocated, causality holds,
and the energy ledger balances.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scheduler import (
    ClusterSimulator,
    EasyBackfillScheduler,
    FifoScheduler,
    JobState,
    PowerAwareScheduler,
    WorkloadConfig,
    WorkloadGenerator,
)

POLICIES = {
    "fifo": lambda: FifoScheduler(),
    "easy": lambda: EasyBackfillScheduler(),
    "power": lambda: PowerAwareScheduler(55e3, predictor=lambda j: j.true_power_w),
}


def run_one(seed: int, policy_name: str, load: float, cap: float | None):
    jobs = WorkloadGenerator(
        WorkloadConfig(n_jobs=40, cluster_nodes=45, load_factor=load),
        rng=np.random.default_rng(seed),
    ).generate()
    sim = ClusterSimulator(45, POLICIES[policy_name](), cap_w=cap)
    return jobs, sim.run(jobs)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(sorted(POLICIES)),
    st.floats(min_value=0.5, max_value=1.4),
    st.one_of(st.none(), st.floats(min_value=40e3, max_value=80e3)),
)
def test_simulation_invariants(seed, policy_name, load, cap):
    jobs, result = run_one(seed, policy_name, load, cap)

    # 1. Every job completed exactly once, after its submission.
    assert len(result.records) == len(jobs)
    for rec in result.records:
        assert rec.state is JobState.COMPLETED
        assert rec.start_time_s >= rec.job.submit_time_s - 1e-9
        assert rec.end_time_s > rec.start_time_s
        # Runtime never shrinks below the true runtime (caps only stretch).
        assert rec.actual_runtime_s >= rec.job.true_runtime_s - 1e-6
        assert len(rec.nodes) == rec.job.n_nodes

    # 2. No node serves two jobs at once.
    by_node: dict[int, list[tuple[float, float]]] = {}
    for rec in result.records:
        for node in rec.nodes:
            by_node.setdefault(node, []).append((rec.start_time_s, rec.end_time_s))
    for intervals in by_node.values():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-9, "node double-allocated"

    # 3. The energy ledger balances: total energy equals the trace
    #    integral (step convention) and covers the per-job energies.
    t, p = result.power_trace.times_s, result.power_trace.power_w
    step_energy = float(np.sum(np.diff(t) * p[:-1]))
    assert step_energy == pytest.approx(result.total_energy_j, rel=1e-6)
    job_energy = sum(rec.energy_j for rec in result.records)
    assert job_energy <= result.total_energy_j + 1e-6

    # 4. Utilization and makespan are consistent.
    assert 0.0 < result.utilization <= 1.0
    assert result.makespan_s >= max(j.submit_time_s for j in jobs)

    # 5. The reactive cap, when present, is never exceeded post-trim
    #    (modulo the uncontrollable floor).
    if cap is not None:
        floor = 45 * 300.0
        assert result.peak_power_w() <= max(cap, floor) * 1.001
