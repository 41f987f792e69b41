"""Bad inputs fail fast, with an error that names what is wrong.

Three families:

* **core names** — the simulator has two cores, ``"reference"`` (the
  oracle) and ``"array"`` (the default).  Any other name, including the
  removed ``"calendar"`` core, is rejected rather than mapped onto one
  of them: by ``ClusterSimulator`` and by a store entry that records
  it.  Campaign cells always run the array core, so a config that
  names a core fails as an unknown key (the CLI exits 2);
* **non-finite and infeasible numbers** — TOML spells ``nan`` and
  ``inf``, and a NaN slips past every ``<=`` range check.  Unchecked, a
  NaN cap or runtime would spin the array core forever, NaN power would
  give NaN energy, and a job larger than the machine would surface only
  as an anonymous stall.  The live constructors take the same ``not x >
  0`` check: a NaN gateway period hangs the kernel, a NaN dispatcher cap
  runs uncapped and a NaN capping-agent cap never trims.  Each raises,
  naming the field or the job;
* **config values the run cannot use** — a zero speed exponent, or
  one whose trim floor ``min_speed ** (1 / speed_exponent)`` underflows
  to 0 (the simulator rejects that pair too), negative seeds, capping
  or noise knobs, an outage on a node the machine does not have,
  policy or workload names no run accepts, and exploration names, NaNs
  or values ``Scenario`` refuses that the search would set.  Unchecked, each
  would load and then die mid-run with a bare NumPy, ``KeyError`` or
  ``ZeroDivisionError`` traceback; each fails at load naming
  ``section.field``, and the CLI exits 2.

The CLI cases that could reach the simulator run in a subprocess with
a timeout, so a regression that brings a hang back fails the test
instead of stalling the suite; the load-time cases call ``main()``.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.hardware import ComputeNode
from repro.monitoring import CappingAgent, GatewayArray, GatewayDaemon, MqttBroker
from repro.runtime import ConfigError, load
from repro.runtime.cli import main
from repro.scheduler import (
    SIMULATOR_CORES,
    ClusterSimulator,
    DirectoryResultStore,
    FifoScheduler,
    Job,
    PowerAwareScheduler,
    Scenario,
)
from repro.scheduler.cache import KEY_VERSION
from repro.sim import Environment
from repro.timesync import LocalClock, NtpClient, PtpSlave

needs_tomllib = pytest.mark.skipif(
    importlib.util.find_spec("tomllib") is None,
    reason="stdlib tomllib needs Python >= 3.11",
)

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Both cores, as every core error message lists them.
_CORES_LISTED = r"\('reference', 'array'\)"

_NAN = float("nan")

_TOML_BASE = """\
[runtime]
kind = "campaign"

[machine]
n_nodes = 6

[workload]
n_jobs = 12
seed = 3

[policy]
name = "easy"
"""


def _toml(tmp_path, campaign_body):
    path = tmp_path / "campaign.toml"
    path.write_text(_TOML_BASE + "\n[campaign]\nseeds = [0]\n" + campaign_body)
    return str(path)


def _cli(*args):
    """``python -m repro ...`` in a subprocess; a hang fails, not stalls."""
    env = dict(os.environ,
               PYTHONPATH=_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _job(job_id, n_nodes=1, runtime=100.0, power=1500.0):
    return Job(
        job_id=job_id, user="u", app="qe", n_nodes=n_nodes,
        walltime_req_s=200.0, submit_time_s=0.0,
        true_runtime_s=runtime, true_power_per_node_w=power,
    )


class TestCoreNames:
    def test_two_cores_and_the_array_core_is_the_default(self):
        assert SIMULATOR_CORES == ("reference", "array")
        assert ClusterSimulator(4, FifoScheduler()).core == "array"
        assert ClusterSimulator(4, FifoScheduler(), core="reference").core == "reference"

    def test_simulator_rejects_calendar(self):
        with pytest.raises(ValueError, match=rf"core 'calendar'.*{_CORES_LISTED}"):
            ClusterSimulator(4, FifoScheduler(), core="calendar")

    @needs_tomllib
    def test_config_naming_a_core_fails_and_the_cli_exits_2(
            self, tmp_path):
        path = _toml(tmp_path, 'core = "array"\n\n[[campaign.cells]]\nlabel = "a"\n')
        with pytest.raises(TypeError, match=r"campaign\(\) .* argument 'core'"):
            load(path)
        run = _cli("campaign", path, "--quiet",
                   "--cache", str(tmp_path / "store"))
        assert run.returncode == 2
        assert "unexpected keyword argument 'core'" in run.stderr

    def test_store_entry_recording_calendar_is_rejected(self, tmp_path):
        store = DirectoryResultStore(tmp_path / "store")
        (tmp_path / "store" / "k.json").write_text(json.dumps({
            "v": KEY_VERSION, "payload": False, "qos": {}, "digest": "0" * 64,
            "scenario": {"policy": "fifo", "core": "calendar"},
        }))
        with pytest.raises(ValueError, match=rf"core 'calendar'.*{_CORES_LISTED}"):
            store.get("k")


class TestNonFiniteAndInfeasibleInputs:
    @needs_tomllib
    def test_nan_cap_in_config_names_the_field_and_the_cli_exits_2(self, tmp_path):
        path = _toml(tmp_path, '\n[[campaign.cells]]\nlabel = "a"\ncap_w = nan\n')
        with pytest.raises(ConfigError,
                           match=r"campaign\.cells\[0\]\.cap_w must be a finite number"):
            load(path)
        run = _cli("campaign", path, "--quiet")
        assert run.returncode == 2
        assert "cap_w" in run.stderr

    @pytest.mark.parametrize("kwargs, match", [
        (dict(cap_w=float("inf")), r"cap_w must be positive and finite, got inf"),
        (dict(policy="power-aware", budget_w=float("inf")),
         r"budget_w must be positive and finite, got inf"),
        (dict(cap_w=-100.0), r"cap_w must be positive and finite, got -100\.0"),
        (dict(cap_w=_NAN), r"cap_w must be positive and finite, got nan"),
        (dict(backfill_depth=2.5),
         r"backfill_depth must be a non-negative integer, got 2\.5"),
        (dict(backfill_depth=3.0),
         r"backfill_depth must be a non-negative integer, got 3\.0"),
        (dict(backfill_depth=True),
         r"backfill_depth must be a non-negative integer, got True"),
    ], ids=["cap-inf", "budget-inf", "cap-negative", "cap-nan",
            "depth-fraction", "depth-float", "depth-bool"])
    def test_scenario_refuses_what_the_key_and_the_simulator_cannot_take(
            self, kwargs, match):
        """An infinite cap cannot be keyed (canonical JSON refuses it), a
        non-positive one dies in the simulator, and a depth of 2.5, 3.0
        or True would share the key of depth 2, 3 or 1."""
        with pytest.raises(ValueError, match=match):
            Scenario(**{"policy": "easy", **kwargs})

    def test_nan_cap_rejected_by_the_simulator(self):
        with pytest.raises(ValueError, match="cap_w=nan"):
            ClusterSimulator(4, FifoScheduler(), cap_w=float("nan"))

    def test_nan_runtime_names_the_job(self):
        with pytest.raises(ValueError, match="job 7: true_runtime_s must be finite"):
            _job(7, runtime=float("nan"))

    def test_nan_power_names_the_job(self):
        with pytest.raises(ValueError,
                           match="job 8: true_power_per_node_w must be finite"):
            _job(8, power=float("nan"))

    def test_job_larger_than_the_machine_is_named(self):
        sim = ClusterSimulator(4, FifoScheduler())
        with pytest.raises(RuntimeError, match="job 3 needs 5 nodes"):
            sim.run([_job(0), _job(3, n_nodes=5)])


class TestNaNCapOrPeriod:
    """The live constructors' ``not x > 0`` checks.  Unchecked, a NaN
    gateway period hangs ``env.run``, a NaN dispatcher cap runs uncapped
    and a NaN capping-agent cap never trims."""

    @pytest.mark.parametrize("field, build", [
        ("period_s", lambda env, node, broker: GatewayDaemon(
            env, node, broker, period_s=_NAN)),
        ("period_s", lambda env, node, broker: GatewayArray(
            env, [node], broker, period_s=_NAN)),
        ("cap_w", lambda env, node, broker: CappingAgent(
            env, node, broker, cap_w=_NAN)),
        ("cap_w", lambda env, node, broker: PowerAwareScheduler(cap_w=_NAN)),
        ("period_s", lambda env, node, broker: NtpClient(
            LocalClock(), period_s=_NAN)),
        ("period_s", lambda env, node, broker: PtpSlave(
            LocalClock(), period_s=_NAN)),
    ], ids=["GatewayDaemon", "GatewayArray", "CappingAgent",
            "PowerAwareScheduler", "NtpClient", "PtpSlave"])
    def test_constructor_rejects_it(self, field, build):
        env = Environment()
        broker = MqttBroker(clock=lambda: env.now)
        with pytest.raises(ValueError, match=rf"{field} must be positive, got nan"):
            build(env, ComputeNode(node_id=0), broker)


#: A small valid config of each kind, in the JSON spelling.
_CONFIGS = {
    "campaign": {
        "runtime": {"kind": "campaign"},
        "machine": {"n_nodes": 4},
        "workload": {"n_jobs": 8},
        "policy": {"name": "easy"},
        "campaign": {"cells": [{"label": "a"}]},
    },
    "live": {
        "runtime": {"kind": "live"},
        "machine": {"n_nodes": 2},
        "cap": {"cap_w": 1500.0},
        "live": {"until_s": 0.5},
    },
    "exploration": {
        "runtime": {"kind": "exploration"},
        "machine": {"n_nodes": 4},
        "workload": {"n_jobs": 8},
        "exploration": {
            "budget": 2,
            "space": {
                "cap_w": {"type": "continuous", "lo": 4e3, "hi": 8e3},
                "policy": {"type": "categorical", "choices": ["easy", "fifo"]},
            },
            "objective": {"metrics": ["total_energy_j"]},
        },
    },
}

_SUBCOMMAND = {"campaign": "campaign", "live": "run", "exploration": "explore"}

_OUTAGE = {"at_s": 10.0, "duration_s": 5.0}


class TestValuesTheRunCannotUseFailAtLoad:
    """``load`` names the field, and every subcommand that reads the
    file exits 2 instead of failing mid-run."""

    @pytest.mark.parametrize("kind, path, value, error, match", [
        ("campaign", ("machine", "speed_exponent"), 0.0, ConfigError,
         r"machine\.speed_exponent must be positive, got 0\.0"),
        ("campaign", ("machine", "speed_exponent"), 0.001, ConfigError,
         r"machine\.speed_exponent = 0\.001 with machine\.min_speed = 0\.3 "
         r"puts the trim floor min_speed \*\* \(1 / speed_exponent\) at 0"),
        ("campaign", ("workload", "seed"), -1, ConfigError,
         r"workload\.seed must be non-negative, got -1"),
        ("campaign", ("campaign", "seeds"), [0, -2], ConfigError,
         r"campaign\.seeds\[1\] must be non-negative, got -2"),
        ("live", ("live", "seed"), -3, ConfigError,
         r"live\.seed must be non-negative, got -3"),
        ("live", ("cap", "hysteresis_w"), -1.0, ConfigError,
         r"cap\.hysteresis_w must be non-negative, got -1\.0"),
        ("live", ("cap", "actuation_delay_s"), -0.5, ConfigError,
         r"cap\.actuation_delay_s must be non-negative, got -0\.5"),
        ("live", ("live", "sensor_noise_w"), -2.0, ConfigError,
         r"live\.sensor_noise_w must be non-negative, got -2\.0"),
        ("campaign", ("outage",), [dict(_OUTAGE, node_id=99)], ConfigError,
         r"outage\[0\]\.node_id must be below machine\.n_nodes = 4, got 99"),
        ("campaign", ("campaign", "cells", 0, "outages"),
         [dict(_OUTAGE, node_id=4)], ConfigError,
         r"campaign\.cells\[0\]\.outages\[0\]\.node_id must be below "
         r"machine\.n_nodes = 4, got 4"),
        ("exploration", ("exploration", "space", "cap_ww"),
         {"type": "continuous", "lo": 1.0, "hi": 2.0}, TypeError,
         r"exploration\.space\(\) got an unexpected keyword argument 'cap_ww'"),
        ("exploration", ("exploration", "base"), {"label": "x"}, TypeError,
         r"exploration\.base\(\) got an unexpected keyword argument 'label'"),
        ("exploration", ("exploration", "base"), {"dvfs_floor": _NAN},
         ConfigError, r"exploration\.base\.dvfs_floor must be a finite number"),
        ("exploration", ("exploration", "space", "policy", "choices"),
         ["easy", _NAN], ConfigError,
         r"exploration\.space\.policy\.choices\[1\] must be a finite number"),
        ("campaign", ("policy", "name"), "fairshare", ConfigError,
         r"policy\.name: 'fairshare' is not one of "
         r"\('fifo', 'easy', 'power-aware'\)"),
        ("campaign", ("workload", "generator"), "qe", ConfigError,
         r"workload\.generator: 'qe' is not one of \('davide',\)"),
        ("live", ("workload",), {"generator": "qe"}, ConfigError,
         r"workload\.generator: 'qe' is not one of \('davide',\)"),
        ("exploration", ("workload", "generator"), "qe", ConfigError,
         r"workload\.generator: 'qe' is not one of \('davide',\)"),
        ("exploration", ("exploration", "base"), {"dvfs_floor": 5.0}, ConfigError,
         r"exploration\.base\.dvfs_floor = 5\.0: DVFS floor must lie in \(0, 1\]"),
        ("exploration", ("exploration",), dict(
            _CONFIGS["exploration"]["exploration"], searcher="grid",
            space={"dvfs_floor": {"type": "continuous", "lo": 0.0, "hi": 1.0},
                   "policy": {"type": "categorical", "choices": ["easy"]}}),
         ConfigError,
         r"exploration\.space\.dvfs_floor = 0\.0: DVFS floor must lie in \(0, 1\]"),
        ("exploration", ("exploration", "space"),
         {"policy": {"type": "categorical", "choices": ["easy", "power-aware"]}},
         ConfigError,
         r"exploration\.space\.policy = 'power-aware': power-aware scenarios "
         r"need budget_w or cap_w"),
        ("exploration", ("exploration",), dict(
            _CONFIGS["exploration"]["exploration"], base={"cap_w": -100.0},
            space={"policy": {"type": "categorical", "choices": ["easy", "fifo"]}}),
         ConfigError,
         r"exploration\.base\.cap_w = -100\.0: cap_w must be positive and "
         r"finite, got -100\.0"),
        ("exploration", ("exploration", "space", "backfill_depth"),
         {"type": "continuous", "lo": 1.0, "hi": 8.0}, ConfigError,
         r"exploration\.space\.backfill_depth = 1\.0: backfill_depth must be "
         r"a non-negative integer, got 1\.0"),
    ], ids=["speed-exponent", "speed-floor-underflow", "workload-seed",
            "campaign-seeds", "live-seed",
            "hysteresis", "actuation-delay", "sensor-noise", "outage-node",
            "cell-outage-node", "space-knob-name", "base-field-name",
            "base-nan", "choices-nan", "policy-fairshare",
            "generator-campaign", "generator-live", "generator-exploration",
            "base-out-of-range", "grid-knob-lo-out-of-range",
            "choice-needs-a-cap", "base-negative-cap", "continuous-depth"])
    def test_load_names_the_field_and_the_cli_exits_2(
            self, tmp_path, capsys, kind, path, value, error, match):
        data = copy.deepcopy(_CONFIGS[kind])
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(data))
        with pytest.raises(error, match=match):
            load(config)
        for command in ("report", _SUBCOMMAND[kind]):
            assert main([command, str(config)]) == 2
            assert "bad.json" in capsys.readouterr().err

    def test_simulator_rejects_a_non_positive_speed_exponent(self):
        with pytest.raises(ValueError,
                           match="speed_exponent must be positive, got 0.0"):
            ClusterSimulator(4, FifoScheduler(), speed_exponent=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"speed_exponent": 0.001},
        {"min_speed": 1e-300},
    ], ids=["tiny-exponent", "tiny-min-speed"])
    def test_simulator_rejects_a_speed_floor_that_underflows(self, kwargs):
        """``min_speed ** (1 / speed_exponent)`` is the trim floor; at 0 a
        cap below the idle floor would stop every job with a bare
        ``ZeroDivisionError``."""
        with pytest.raises(ValueError,
                           match=r"underflows to 0 for speed_exponent=.*min_speed="):
            ClusterSimulator(8, FifoScheduler(), **kwargs)
