"""The differential harness's core-independent invariants catch what
they claim to.

``tests/diff_harness.py`` checks every result on every core against
:data:`~tests.diff_harness.INVARIANTS` before it compares the cores.
Each check here gets a clean result first (it must hold) and then a
copy corrupted in the one way that check exists to see (it must fail).
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from repro.scheduler.simulate import NodeOutage
from tests.diff_harness import (
    INVARIANTS,
    _down_node_seconds,
    cap_heavy_scenario,
    check_invariants,
    random_scenario,
    run_core,
)

#: A tightly capped time-varying-budget run with three outages, so it
#: requeues jobs and spends time above its cap.
SCENARIO = cap_heavy_scenario(3)


@pytest.fixture(scope="module")
def clean():
    jobs = SCENARIO.build_jobs()
    result = run_core(SCENARIO, "array", jobs)
    assert result.n_requeues > 0 and result.overdemand_s > 0
    return jobs, result


def _first_two_sharing_a_node(result):
    for a in result.records:
        for b in result.records:
            if a is not b and set(a.nodes) & set(b.nodes):
                return a, b
    raise AssertionError("no two records share a node")


def _drop_record(result):
    return dataclasses.replace(result, records=result.records[:-1])


def _duplicate_record(result):
    return dataclasses.replace(result, records=result.records + result.records[:1])


def _start_before_submit(result):
    rec = result.records[-1]
    rec.start_time_s = rec.job.submit_time_s - 1.0


def _end_at_start(result):
    rec = result.records[0]
    rec.end_time_s = rec.start_time_s


def _one_node_short(result):
    rec = next(r for r in result.records if len(r.nodes) > 1)
    rec.nodes = rec.nodes[:-1]


def _node_off_the_machine(result):
    rec = result.records[0]
    rec.nodes = rec.nodes[:-1] + (SCENARIO.n_nodes,)


def _overlapping_runs(result):
    a, b = _first_two_sharing_a_node(result)
    b.start_time_s, b.end_time_s = a.start_time_s, a.end_time_s


def _run_shorter_than_runtime(result):
    rec = result.records[0]
    rec.end_time_s = rec.start_time_s + 0.5 * rec.job.true_runtime_s


def _work_short_of_runtime(result):
    rec = next(r for r in result.records if not r.requeues)
    rec.work_progressed_s *= 1.0 - 1e-6


def _stretch_not_elapsed_over_work(result):
    rec = next(r for r in result.records if not r.requeues)
    rec.stretch = math.nextafter(rec.elapsed_running_s / rec.work_progressed_s, 2.0)


def _requeued_work_short_of_runtime(result):
    rec = next(r for r in result.records if r.requeues)
    rec.work_progressed_s = 0.5 * rec.job.true_runtime_s


def _requeue_not_counted(result):
    result.records[0].requeues += 1


def _energy_off_the_trace(result):
    return dataclasses.replace(result, total_energy_j=result.total_energy_j * 1.001)


def _job_energy_unbilled(result):
    rec = max(result.records, key=lambda r: r.energy_j)
    rec.energy_j *= 0.5


def _overdemand_undercounted(result):
    t, p = result.power_trace.times_s, result.power_trace.power_w
    above_s = float(np.sum(np.diff(t)[p[:-1] > result.cap_w]))
    return dataclasses.replace(result, overdemand_s=0.5 * above_s)


#: (invariant, corruption) pairs: each corruption breaks its invariant.
#: A corruption mutates the copy in place or returns a replacement.
CORRUPTIONS = [
    ("completes_once", _drop_record),
    ("completes_once", _duplicate_record),
    ("completes_once", _start_before_submit),
    ("completes_once", _end_at_start),
    ("completes_once", _one_node_short),
    ("completes_once", _node_off_the_machine),
    ("no_node_double_booked", _overlapping_runs),
    ("final_run_covers_runtime", _run_shorter_than_runtime),
    ("work_is_conserved", _work_short_of_runtime),
    ("work_is_conserved", _stretch_not_elapsed_over_work),
    ("work_is_conserved", _requeued_work_short_of_runtime),
    ("requeues_add_up", _requeue_not_counted),
    ("energy_is_trace_integral", _energy_off_the_trace),
    ("energy_closes", _job_energy_unbilled),
    ("above_cap_only_in_overdemand", _overdemand_undercounted),
]


def test_every_invariant_has_a_corruption():
    assert {name for name, _ in CORRUPTIONS} == set(INVARIANTS)


@pytest.mark.parametrize("core", ["reference", "array"])
def test_clean_results_hold_every_invariant(clean, core):
    jobs, _ = clean
    check_invariants(SCENARIO, core, run_core(SCENARIO, core, jobs), jobs)


@pytest.mark.parametrize("name, corrupt", CORRUPTIONS,
                         ids=[fn.__name__.strip("_") for _, fn in CORRUPTIONS])
def test_corrupted_result_breaks_its_invariant(clean, name, corrupt):
    jobs, result = clean
    check = INVARIANTS[name]
    assert check(result, jobs, SCENARIO.n_nodes, SCENARIO.outages) is None
    bad = copy.deepcopy(result)
    bad = corrupt(bad) or bad
    detail = check(bad, jobs, SCENARIO.n_nodes, SCENARIO.outages)
    assert detail is not None
    with pytest.raises(AssertionError, match=r"(?s)broken invariant .*--cap-heavy-seed 3"):
        check_invariants(SCENARIO, "array", bad, jobs)


@pytest.mark.parametrize("seed", range(5))
def test_array_core_alone_holds_every_invariant(seed):
    """No second core to compare with: the invariants alone must catch
    arithmetic both cores share, such as a trim-epoch settle that
    credits a trimmed segment's work at full speed or bills it no
    energy."""
    scenario = random_scenario(seed)
    jobs = scenario.build_jobs()
    check_invariants(scenario, "array", run_core(scenario, "array", jobs), jobs)


def test_uncapped_run_reporting_overdemand_breaks_the_cap_check():
    scenario = next(s for s in map(random_scenario, range(50)) if s.cap_w is None)
    jobs = scenario.build_jobs()
    result = run_core(scenario, "array", jobs)
    check = INVARIANTS["above_cap_only_in_overdemand"]
    assert check(result, jobs, scenario.n_nodes, scenario.outages) is None
    bad = dataclasses.replace(result, overdemand_s=1.0)
    assert "uncapped" in check(bad, jobs, scenario.n_nodes, scenario.outages)


def test_power_above_the_cap_outside_overdemand_breaks_the_cap_check(clean):
    """Raising one below-cap trace step above the cap adds time above
    it that no overdemand accounts for."""
    jobs, result = clean
    power = result.power_trace.power_w.copy()
    below = np.flatnonzero(power[:-1] <= result.cap_w)
    steps = np.diff(result.power_trace.times_s)[below]
    i = below[np.argmax(steps)]
    power[i] = 2.0 * result.cap_w
    trace = dataclasses.replace(result.power_trace, power_w=power)
    bad = dataclasses.replace(
        result, power_trace=trace,
        overdemand_s=float(np.sum(np.diff(result.power_trace.times_s)[
            result.power_trace.power_w[:-1] > result.cap_w])))
    assert INVARIANTS["above_cap_only_in_overdemand"](
        bad, jobs, SCENARIO.n_nodes, SCENARIO.outages)


def test_energy_balance_needs_the_down_time(clean):
    """Billing the crashed nodes' down time as idle draw breaks the
    balance: the outages are part of the check's input."""
    jobs, result = clean
    check = INVARIANTS["energy_closes"]
    assert check(result, jobs, SCENARIO.n_nodes, SCENARIO.outages) is None
    assert check(result, jobs, SCENARIO.n_nodes, ()) is not None


def test_down_node_seconds_merges_and_clips():
    """A crash on a down node extends its outage (union, not sum), and
    only down time inside the run counts."""
    outages = [NodeOutage(at_s=10.0, node_id=0, duration_s=20.0),   # 10-30
               NodeOutage(at_s=20.0, node_id=0, duration_s=5.0),    # inside
               NodeOutage(at_s=25.0, node_id=0, duration_s=15.0),   # to 40
               NodeOutage(at_s=5.0, node_id=1, duration_s=10.0),    # 5-15
               NodeOutage(at_s=90.0, node_id=1, duration_s=50.0)]   # clipped
    assert _down_node_seconds(outages, 100.0) == 30.0 + 10.0 + 10.0
    assert _down_node_seconds(outages, 35.0) == 25.0 + 10.0
    assert _down_node_seconds((), 100.0) == 0.0
