"""``python -m repro`` — drive the reproduction from config files.

Four subcommands, one per artifact shape plus a dry one::

    python -m repro report  examples/scenarios/*.toml   # validate + describe
    python -m repro run     live.toml --until 5         # live cluster
    python -m repro campaign e07b.toml --cache .cache   # scenario grid
    python -m repro explore  search.toml --out trace.json

``campaign`` and ``explore`` print the artifact's content digest and
accept ``--check DIGEST`` (exit 1 on mismatch), so a shell one-liner
can assert that a config file reproduces a hand-wired run bit for bit.
``--cache`` maps onto the content-addressed
:class:`~repro.scheduler.cache.DirectoryResultStore`: a rerun over the
same directory replays every stored cell, so a warm rerun simulates
nothing and a killed campaign resumes where it stopped.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from ..scheduler.cache import DirectoryResultStore, scenario_key
from ..scheduler.campaign import campaign_digest
from .build import CampaignPlan, ExplorationPlan, build
from .dump import dump
from .loader import load
from .models import ConfigError

__all__ = ["main"]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _row(label: str, value: Any) -> str:
    return f"  {label:<18} {value}"


def _describe(path: str) -> None:
    cfg = load(path)
    artifact = build(cfg)
    name = cfg.runtime.name or "(unnamed)"
    print(f"{path}: kind={cfg.runtime.kind} name={name!r}")
    if cfg.runtime.description:
        print(_row("description", cfg.runtime.description))
    print(_row("machine", f"{cfg.machine.n_nodes} nodes"))
    if isinstance(artifact, CampaignPlan):
        print(_row("workload", f"{cfg.workload.n_jobs} jobs x "
                               f"load {cfg.workload.load_factor} "
                               f"(seed {cfg.workload.seed})"))
        print(_row("grid", f"{len(artifact.grid)} cells "
                           f"({len(cfg.campaign.cells)} specs x "
                           f"{len(cfg.campaign.seeds)} seeds)"))
        print(_row("config_key", artifact.config_key()))
        for scenario in artifact.grid[:len(cfg.campaign.cells)]:
            print(_row("cell",
                       f"{scenario.label or scenario.policy}  "
                       f"{scenario_key(artifact.config, scenario)[:16]}"))
    elif isinstance(artifact, ExplorationPlan):
        print(_row("searcher", f"{artifact.searcher} "
                               f"(budget {artifact.budget}, "
                               f"seed {artifact.seed})"))
        print(_row("space", ", ".join(artifact.space.names())))
        print(_row("objective", artifact.objective.name))
    else:
        cap = cfg.cap.cap_w
        print(_row("telemetry", f"period {artifact.telemetry.gateways[0].period_s} s"))
        print(_row("capping", "off" if cap is None else f"{cap:.0f} W/node"))
        print(_row("run until", f"{cfg.live.until_s} s"))


def _cmd_report(args: argparse.Namespace) -> int:
    for path in args.config:
        if args.dump:
            sys.stdout.write(dump(load(path), fmt=args.dump))
        else:
            _describe(path)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load(args.config)
    if cfg.runtime.kind != "live":
        return _fail(f"{args.config} is kind={cfg.runtime.kind!r}; "
                     f"'run' drives kind='live' configs "
                     f"(use the {cfg.runtime.kind!r} subcommand)")
    cluster = build(cfg)
    until = args.until if args.until is not None else cfg.live.until_s
    cluster.run(until=until)
    report = cluster.ops_report()
    print(f"ran {cfg.runtime.name or args.config} for {until:g} s simulated")
    print(_row("events", report["kernel"]["events_dispatched"]))
    print(_row("fleet power", f"{cluster.total_power_w / 1e3:.2f} kW"))
    print(_row("capped nodes",
               f"{cluster.capped_nodes}/{len(cluster.nodes)}"))
    return 0


def _check_digest(digest: str, expected: Optional[str]) -> int:
    print(f"digest {digest}")
    if expected is None:
        return 0
    if digest == expected:
        print("digest check: ok")
        return 0
    print(f"digest check: MISMATCH (expected {expected})", file=sys.stderr)
    return 1


def _write_artifact(path: Optional[str], payload: dict) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_campaign(args: argparse.Namespace) -> int:
    cfg = load(args.config)
    plan = build(cfg)
    if not isinstance(plan, CampaignPlan):
        return _fail(f"{args.config} is kind={cfg.runtime.kind!r}, "
                     f"not a campaign")
    cache = None if args.cache is None else DirectoryResultStore(args.cache)

    done = {"count": 0}

    def on_result(cell, replayed: bool) -> None:
        done["count"] += 1
        if not args.quiet:
            tag = "replayed " if replayed else "simulated"
            label = cell.scenario.label or cell.scenario.policy
            print(f"  [{done['count']:>3}/{len(plan.grid)}] {tag} "
                  f"{label} (seed {cell.scenario.seed_index})",
                  file=sys.stderr)

    results = plan.run(processes=args.processes, cache=cache, on_result=on_result)
    digest = campaign_digest(results)
    if not args.quiet:
        header = f"{'label':<24} {'policy':<12} {'seed':>4} " \
                 f"{'energy [MJ]':>12} {'makespan [h]':>13} {'peak [kW]':>10}"
        print(header)
        for r in results:
            s = r.scenario
            print(f"{(s.label or '-'):<24} {s.policy:<12} "
                  f"{s.seed_index:>4} "
                  f"{r.qos['total_energy_j'] / 1e6:>12.1f} "
                  f"{r.qos['makespan_s'] / 3600:>13.2f} "
                  f"{r.qos['peak_power_w'] / 1e3:>10.1f}")
    _write_artifact(args.out, {
        "name": cfg.runtime.name,
        "kind": "campaign",
        "config_key": plan.config_key(),
        "campaign_digest": digest,
        "cells": [
            {
                "label": r.scenario.label,
                "seed_index": r.scenario.seed_index,
                "scenario_key": scenario_key(plan.config, r.scenario),
                "result_digest": r.digest,
                "qos": r.qos,
            }
            for r in results
        ],
    })
    return _check_digest(digest, args.check)


def _cmd_explore(args: argparse.Namespace) -> int:
    cfg = load(args.config)
    plan = build(cfg)
    if not isinstance(plan, ExplorationPlan):
        return _fail(f"{args.config} is kind={cfg.runtime.kind!r}, "
                     f"not an exploration")
    cache = None if args.cache is None else DirectoryResultStore(args.cache)
    trace = plan.run(cache=cache, processes=args.processes)
    best = trace.best_step
    if not args.quiet:
        print(f"{trace.searcher} searched {len(trace.steps)} points "
              f"({trace.n_cache_hits} cache hits)")
        if best is not None:
            point = ", ".join(f"{k}={v}" for k, v in sorted(best.point.items()))
            print(_row("best point", point))
            print(_row("best fitness", f"{best.fitness:g} "
                                       f"({plan.objective.name})"))
    _write_artifact(args.out, trace.to_dict())
    return _check_digest(trace.digest(), args.check)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Config-driven runtime for the D.A.V.I.D.E. "
                    "reproduction: compile TOML/JSON scenario files into "
                    "live clusters, campaign grids, or design-space "
                    "searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="validate config files and describe what they build")
    report.add_argument("config", nargs="+", help="config file(s)")
    report.add_argument("--dump", choices=("toml", "json"),
                        help="print the canonical config instead")
    report.set_defaults(fn=_cmd_report)

    run = sub.add_parser("run", help="run a live cluster (kind='live')")
    run.add_argument("config", help="config file")
    run.add_argument("--until", type=float, default=None,
                     help="simulated seconds (default: [live].until_s)")
    run.set_defaults(fn=_cmd_run)

    campaign = sub.add_parser(
        "campaign", help="run a scenario grid (kind='campaign')")
    campaign.add_argument("config", help="config file")
    campaign.add_argument("--processes", type=int, default=None,
                          help="worker pool size (default: auto)")
    campaign.add_argument("--cache", metavar="DIR", default=None,
                          help="content-addressed result store directory")
    campaign.add_argument("--out", metavar="FILE", default=None,
                          help="write a JSON artifact (keys, QoS, digest)")
    campaign.add_argument("--check", metavar="DIGEST", default=None,
                          help="exit 1 unless the campaign digest matches")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress progress and the QoS table")
    campaign.set_defaults(fn=_cmd_campaign)

    explore = sub.add_parser(
        "explore", help="run a design-space search (kind='exploration')")
    explore.add_argument("config", help="config file")
    explore.add_argument("--processes", type=int, default=None)
    explore.add_argument("--cache", metavar="DIR", default=None,
                         help="content-addressed result store directory")
    explore.add_argument("--out", metavar="FILE", default=None,
                         help="write the full trace artifact as JSON")
    explore.add_argument("--check", metavar="DIGEST", default=None,
                         help="exit 1 unless the trace digest matches")
    explore.add_argument("--quiet", action="store_true")
    explore.set_defaults(fn=_cmd_explore)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, TypeError) as exc:
        return _fail(str(exc))
