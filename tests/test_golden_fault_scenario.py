"""Golden-trace regression: one canonical fault drill, pinned end to end.

The checked-in fixture captures the full summary of a fixed scenario —
jobs completed, joules accounted, faults recovered, the SHA-256 of the
canonical event log.  Any behavioural change to the kernel, scheduler,
capping, monitoring or fault layers shows up here as a diff.

Regenerate (after an *intentional* behaviour change) with:

    PYTHONPATH=src python tests/test_golden_fault_scenario.py --regenerate

Run without ``--regenerate`` (or with ``--help``) the script prints its
usage and leaves the fixture alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import DrillConfig, FaultDrill, FaultKind, FaultSpec

THIS = Path(__file__).resolve()
FIXTURE = THIS.parent / "fixtures" / "fault_drill_golden.json"

GOLDEN_CONFIG = DrillConfig(seed=2026)

GOLDEN_CAMPAIGN = [
    FaultSpec(FaultKind.NODE_CRASH, at_s=22.0, duration_s=35.0, target=4),
    FaultSpec(FaultKind.NODE_CRASH, at_s=60.0, duration_s=25.0, target=11),
    FaultSpec(FaultKind.BROKER_OUTAGE, at_s=40.0, duration_s=14.0),
    FaultSpec(FaultKind.PSU_FAILURE, at_s=55.0, duration_s=45.0),
    FaultSpec(FaultKind.SENSOR_DROPOUT, at_s=30.0, duration_s=12.0, target=7),
    FaultSpec(FaultKind.SENSOR_SPIKE, at_s=80.0, duration_s=9.0, target=2, magnitude=2500.0),
    FaultSpec(FaultKind.CLOCK_DRIFT, at_s=35.0, duration_s=30.0, target=13, magnitude=0.08),
]


def run_golden_scenario():
    drill = FaultDrill(GOLDEN_CONFIG)
    report = drill.run(GOLDEN_CAMPAIGN, extra_random_faults=3)
    return report


def test_golden_scenario_matches_fixture():
    golden = json.loads(FIXTURE.read_text())
    report = run_golden_scenario()
    assert report.ok, [str(v) for v in report.checker.violations]
    assert report.summary == golden, (
        "fault-drill behaviour changed; if intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_golden_fault_scenario.py --regenerate`"
    )


def test_golden_scenario_recovered_everything():
    report = run_golden_scenario()
    assert report.summary["faults_injected"] == report.summary["faults_recovered"]
    assert report.summary["jobs_completed"] == GOLDEN_CONFIG.n_jobs
    assert report.summary["total_requeues"] >= 1
    assert report.summary["violations"] == 0


@pytest.mark.parametrize("argv, code", [(["--help"], 0), ([], 2)], ids=["help", "no-args"])
def test_script_writes_the_fixture_only_on_request(argv, code):
    """``--help`` and a bare run print the usage without running the
    drill (a stub makes any drill run exit 1) and leave the fixture's
    bytes as they were."""
    before = FIXTURE.read_bytes()
    probe = ("import runpy, sys\n"
             "from repro.faults import FaultDrill\n"
             "FaultDrill.run = lambda *a, **k: sys.exit('the drill ran')\n"
             f"sys.argv = [{str(THIS)!r}, *{argv!r}]\n"
             f"runpy.run_path({str(THIS)!r}, run_name='__main__')\n")
    src = str(THIS.parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "--regenerate" in proc.stdout + proc.stderr
    assert FIXTURE.read_bytes() == before


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Rewrite the golden fault-drill fixture from the current code.")
    parser.add_argument("--regenerate", action="store_true", required=True,
                        help=f"run the canonical drill and write {FIXTURE.name}")
    parser.parse_args()
    summary = run_golden_scenario().summary
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    print(json.dumps(summary, indent=2, sort_keys=True))
