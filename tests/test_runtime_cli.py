"""``python -m repro`` smoke tests, driven in-process via ``main()``.

The headline guarantee: ``python -m repro campaign
examples/scenarios/e07b.toml`` reproduces the hand-wired
``bench_e07_power_capping.campaign_grid()`` digest byte for byte.  The
hand-wired run seeds a content-addressed store first, so the CLI leg is
a warm replay (zero simulations) that still walks the full
load → build → run → digest path.
"""

import importlib.util
import json
import os
import sys

import pytest

from repro.runtime.cli import main
from repro.scheduler import campaign_digest, run_campaign
from repro.scheduler.cache import DirectoryResultStore

HAVE_TOMLLIB = importlib.util.find_spec("tomllib") is not None
needs_tomllib = pytest.mark.skipif(
    not HAVE_TOMLLIB, reason="stdlib tomllib needs Python >= 3.11"
)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ZOO = os.path.join(_ROOT, "examples", "scenarios")


def _bench_e07_grid():
    path = os.path.join(_ROOT, "benchmarks", "bench_e07_power_capping.py")
    spec = importlib.util.spec_from_file_location("bench_e07_cli", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_e07_cli"] = module
    spec.loader.exec_module(module)
    return module.campaign_grid()


def _write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _small_campaign(tmp_path):
    return _write_json(tmp_path, "small.json", {
        "runtime": {"kind": "campaign", "name": "small"},
        "machine": {"n_nodes": 6},
        "workload": {"n_jobs": 12, "seed": 3, "load_factor": 1.1},
        "campaign": {
            "seeds": [0],
            "cells": [
                {"label": "easy"},
                {"label": "easy capped", "cap_w": 7000.0},
            ],
        },
        "policy": {"name": "easy"},
    })


@needs_tomllib
class TestCampaignDigestReproduction:
    def test_e07b_toml_reproduces_the_bench_digest(self, tmp_path, capsys):
        """ISSUE acceptance: the zoo TOML drives the CLI end-to-end and
        lands on the hand-wired campaign digest."""
        config, grid = _bench_e07_grid()
        store = DirectoryResultStore(tmp_path / "store")
        expected = campaign_digest(run_campaign(config, grid, cache=store))

        exit_code = main([
            "campaign", os.path.join(ZOO, "e07b.toml"),
            "--cache", str(tmp_path / "store"),
            "--check", expected, "--quiet",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert expected in out
        assert "digest check: ok" in out
        # warm replay: the CLI leg simulated nothing new
        assert len(store) == len(grid)

    def test_digest_mismatch_exits_nonzero(self, tmp_path, capsys):
        exit_code = main([
            "campaign", _small_campaign(tmp_path),
            "--check", "0" * 64, "--quiet",
        ])
        assert exit_code == 1
        assert "MISMATCH" in capsys.readouterr().err


class TestCampaignCommand:
    def test_out_artifact_carries_keys_and_digest(self, tmp_path, capsys):
        from repro.runtime import build
        from repro.scheduler.cache import scenario_key

        path = _small_campaign(tmp_path)
        out = tmp_path / "artifact.json"
        assert main(["campaign", path, "--quiet", "--processes", "1",
                     "--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        plan = build(path)
        assert artifact["config_key"] == plan.config_key()
        assert [c["scenario_key"] for c in artifact["cells"]] == [
            scenario_key(plan.config, s) for s in plan.grid]
        assert artifact["campaign_digest"] in capsys.readouterr().out

    def test_progress_lines_name_each_cell(self, tmp_path, capsys):
        assert main(["campaign", _small_campaign(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "easy capped" in captured.err  # progress on stderr
        assert "easy capped" in captured.out  # QoS table on stdout

    def test_wrong_kind_is_rejected(self, tmp_path, capsys):
        path = _write_json(tmp_path, "live.json", {
            "runtime": {"kind": "live"},
            "machine": {"n_nodes": 2},
        })
        assert main(["campaign", path]) == 2
        assert "kind='live'" in capsys.readouterr().err


class TestRunCommand:
    def test_runs_a_live_config(self, tmp_path, capsys):
        path = _write_json(tmp_path, "live.json", {
            "runtime": {"kind": "live", "name": "smoke"},
            "machine": {"n_nodes": 2},
            "cap": {"cap_w": 1500.0},
            "live": {"until_s": 0.5},
        })
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "ran smoke for 0.5 s" in out
        assert "fleet power" in out

    def test_until_flag_overrides_config(self, tmp_path, capsys):
        path = _write_json(tmp_path, "live.json", {
            "runtime": {"kind": "live"},
            "machine": {"n_nodes": 2},
        })
        assert main(["run", path, "--until", "0.25"]) == 0
        assert "for 0.25 s" in capsys.readouterr().out


class TestExploreCommand:
    def _config(self, tmp_path):
        return _write_json(tmp_path, "search.json", {
            "runtime": {"kind": "exploration", "name": "mini"},
            "machine": {"n_nodes": 4},
            "workload": {"n_jobs": 8, "seed": 3, "load_factor": 1.1},
            "exploration": {
                "searcher": "random", "budget": 3, "seed": 2,
                "space": {"cap_w": {"type": "continuous",
                                    "lo": 3e3, "hi": 6e3}},
                "objective": {"metrics": ["total_energy_j"]},
                "base": {"policy": "easy"},
            },
        })

    def test_trace_artifact_and_check(self, tmp_path, capsys):
        path = self._config(tmp_path)
        out = tmp_path / "trace.json"
        assert main(["explore", path, "--quiet", "--out", str(out),
                     "--cache", str(tmp_path / "store")]) == 0
        trace = json.loads(out.read_text())
        assert len(trace["steps"]) == 3
        # warm rerun against the same store replays and digest-checks
        assert main(["explore", path, "--quiet",
                     "--cache", str(tmp_path / "store"),
                     "--check", trace["digest"]]) == 0
        assert "digest check: ok" in capsys.readouterr().out

    def test_reports_best_point(self, tmp_path, capsys):
        assert main(["explore", self._config(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "best point" in out and "cap_w=" in out


class TestReportCommand:
    @needs_tomllib
    def test_all_zoo_files_validate(self, capsys):
        files = sorted(
            os.path.join(ZOO, f)
            for f in os.listdir(ZOO) if f.endswith(".toml"))
        assert main(["report", *files]) == 0
        out = capsys.readouterr().out
        assert out.count("kind=") == len(files)

    def test_report_describes_json_configs(self, tmp_path, capsys):
        assert main(["report", _small_campaign(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kind=campaign" in out and "config_key" in out

    def test_dump_output_reloads_identically(self, tmp_path, capsys):
        from repro.runtime import load, loads

        path = _small_campaign(tmp_path)
        assert main(["report", "--dump", "json", path]) == 0
        text = capsys.readouterr().out
        assert loads(text, "json") == load(path)

    def test_config_errors_exit_2(self, tmp_path, capsys):
        path = _write_json(tmp_path, "bad.json", {
            "runtime": {"kind": "campaign"},
            "machine": {"n_nodes": 8, "n_node": 1},
            "campaign": {"cells": [{}]},
        })
        assert main(["report", path]) == 2
        err = capsys.readouterr().err
        assert "n_node" in err and "n_nodes" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "ghost.toml")]) == 2
        assert "ghost.toml" in capsys.readouterr().err
