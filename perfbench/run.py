#!/usr/bin/env python3
"""The repo benchmark: four workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # all four in one process
    python3 perfbench/run.py --pin               # re-pin default-seed digests

Workloads (sizes, reasons and the layer map are in ``manifest.json``):
``capped_campaign``, ``explore_search``, ``fig4_pipeline``,
``fault_drill``.  Each run:

1. builds the workload in this process and, for ``--seconds``, repeats
   the timed run (``run_s``), at least three times, checking every
   operation: its own correctness check, its digests against the first
   repetition and, at the default seed, against the pins in
   ``manifest.json``;
2. spreads five set-up timings (``setup_s``) evenly over the same
   window, each in a fresh interpreter (``setup_probe.py``) reading a
   warm bytecode cache under ``perfbench/_work/pycache`` (a cold cache
   is filled by one untimed probe first);
3. with ``--trace 1``, alternates untraced and traced repetitions; the
   traced ones wrap the package's layers from outside (``tracing.py``)
   and give the per-layer metrics, their digests must equal the
   untraced ones, and the fastest traced minus the fastest untraced
   repetition is the tracing overhead.

The host is a VM whose speed swings by up to 1.5-2x for seconds to
minutes while other tenants share its cores, so a raw timing says as
much about the neighbours as about the program.  Every timed section
(a repetition, a set-up probe) is therefore bracketed by three passes
of a fixed pure-Python loop (``host_loop_s``) on each side, and
``run_s`` and ``setup_s`` are the median over sections of the section's
seconds divided by the median of its six loop passes, times
``HOST_LOOP_REF_S``: seconds at the reference host speed.  A change to
the program moves them like the raw seconds; a slow host does not.
The raw seconds and loop passes go to the results file.  The
``setup.*`` parts and the per-layer times are raw medians and raw
fastest repetitions.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
failed fraction.  A fuller record, stamped with the interpreter and
library versions, ``nproc`` and the bytecode-cache state, is written to
``perfbench/_work/results/``.  ``peak_rss_mb`` is the process's RSS
high-water mark, reset when each workload starts, so with ``--workload
all`` every workload reports its own peak.  The metric names and units
and the default ``--seconds`` come from ``BENCHMARK.json``.  Exits 2
without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
PYCACHE = WORK / "pycache"
MANIFEST = HERE / "manifest.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = workloads.NAMES
SETUP_PROBES = 5
MIN_REPS = 3
#: Traced mode alternates untraced/traced repetitions: at least two each.
MIN_TRACED_REPS = 4
PROBE_TIMEOUT_S = 120
#: Passes of the host loop timed before and after each timed section.
HOST_LOOP_PASSES = 3
#: Median seconds of one ``host_loop_s`` pass on the reference host, a
#: 2-vCPU x86-64 VM running Python 3.11 at its fast speed.
HOST_LOOP_REF_S = 0.0125


def host_loop_s() -> float:
    """One pass of a fixed pure-Python loop: how fast the host runs now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - t0


def host_loops() -> list[float]:
    return [host_loop_s() for _ in range(HOST_LOOP_PASSES)]


def _probe_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def probe_setup(name: str, seed: int) -> dict[str, float]:
    """One set-up timing in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        cwd=ROOT, env=_probe_env(), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bytecode_cache_state() -> str:
    pyc = importlib.util.cache_from_source(str(SRC / "repro" / "__init__.py"))
    return "warm" if os.path.exists(pyc) else "cold"


def environment_stamp(cache_state: str) -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        # Timed probes always read a warm cache; this is what the run found.
        "bytecode_cache_at_start": cache_state,
    }


def reset_peak_rss() -> None:
    """Lower this process's RSS high-water mark to its current RSS."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # no reset: the peak then also covers earlier workloads


def peak_rss_mb() -> float:
    """High-water RSS of this process in MiB since the last reset."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # reported in KiB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   workdir: Path, manifest: dict) -> dict:
    """Set-up probes plus the repeated timed run of one workload."""
    import stats
    import tracing

    reset_peak_rss()
    wl = workloads.get(name)
    cfg = wl.load(seed)
    art = wl.build(cfg)
    workdir.mkdir(parents=True, exist_ok=True)
    shared = wl.prepare_once(cfg, art, workdir)
    pinned = (manifest["workloads"][name]["pins"]
              if seed == manifest["default_seed"] else None)

    tally = stats.Tally()
    reference = None
    expected_ops = 1
    untraced: list[float] = []
    traced: list[float] = []
    layer_runs: list[dict[str, float]] = []
    min_reps = MIN_TRACED_REPS if trace else MIN_REPS
    setups: list[dict[str, float]] = []
    setup_loops: list[tuple[list[float], list[float]]] = []
    run_loops: list[tuple[list[float], list[float]]] = []
    rep = 0
    window_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - window_start
        # Set-up probes are spaced over the window, so that one slow
        # stretch of the machine cannot spoil all of them.
        if len(setups) < SETUP_PROBES and elapsed >= len(setups) * seconds / SETUP_PROBES:
            before = host_loops()
            setups.append(probe_setup(name, seed))
            setup_loops.append((before, host_loops()))
            continue
        if rep >= min_reps and len(setups) == SETUP_PROBES and elapsed >= seconds:
            break
        traced_rep = trace and rep % 2 == 1
        repdir = workdir / f"rep-{rep}"
        repdir.mkdir()
        state = wl.prepare(cfg, art, shared, repdir)
        tracer = tracing.Tracer() if traced_rep else None
        installed = tracing.install(tracer) if traced_rep else None
        gc.collect()
        before = host_loops()
        t0 = time.perf_counter()
        try:
            out, digests = wl.run(state)
        except Exception:  # an operation failure, counted below
            out = None
            traceback.print_exc(file=sys.stderr)
        run_s = time.perf_counter() - t0
        after = host_loops()
        if installed is not None:
            installed.restore()
        rep += 1
        if out is None:
            tally.add(False, count=expected_ops)
            shutil.rmtree(repdir)
            continue
        if reference is None:
            reference = digests
        ops = wl.check(state, out)
        expected_ops = len(ops)
        stats.score_ops(ops, stats.digest_mismatches(digests, pinned, reference), tally)
        if traced_rep:
            traced.append(run_s)
            agg = tracing.aggregate(tracer.spans)
            layer_runs.append(tracing.layer_metrics(agg, run_s, wl.counts(state, out)))
        else:
            untraced.append(run_s)
            run_loops.append((before, after))
        del state, out, tracer
        shutil.rmtree(repdir)

    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "sizes": wl.sizes(cfg),
        "setup_probes": setups,
        "setup_host_loops": setup_loops,
        "run_s_reps": untraced,
        "run_host_loops": run_loops,
        "traced_run_s_reps": traced,
        "digests": reference,
        "pinned": pinned is not None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed_frac,
        "run_s_median": statistics.median(untraced) if untraced else None,
    }
    metrics = {}
    if untraced:
        metrics["setup_s"] = stats.host_scaled(
            [sum(p.values()) for p in setups], setup_loops, HOST_LOOP_REF_S)
        metrics["run_s"] = stats.host_scaled(untraced, run_loops, HOST_LOOP_REF_S)
        metrics["peak_rss_mb"] = peak_rss_mb()
    if trace and traced and untraced:
        for key in ("import_s", "load_s", "build_s"):
            metrics[f"setup.{key}"] = statistics.median(p[key] for p in setups)
        fastest = min(range(len(traced)), key=traced.__getitem__)
        metrics.update(layer_runs[fastest])
        metrics["tracing.run_s"] = traced[fastest]
        metrics["tracing.overhead_s"] = traced[fastest] - min(untraced)
    result["metrics"] = metrics
    return result


def print_result(res: dict, units: dict[str, str]) -> None:
    print(f"== {res['workload']} seed={res['seed']} trace={int(res['trace'])} "
          f"reps={len(res['run_s_reps'])}+{len(res['traced_run_s_reps'])} traced "
          f"sizes={json.dumps(res['sizes'], sort_keys=True)}")
    for name, value in res["metrics"].items():
        print(f"   {name:38s} {value:14.6f} {units[name]}")
    print(f"   {'failed_frac':38s} {res['failed_frac']:14.6f} ratio "
          f"({res['failed']}/{res['attempted']} operations)")


def pin(workdir: Path) -> int:
    """Record default-seed digests and sizes in ``manifest.json``."""
    manifest = load_manifest()
    seed = manifest["default_seed"]
    for name in WORKLOAD_NAMES:
        wl = workloads.get(name)
        cfg = wl.load(seed)
        art = wl.build(cfg)
        wdir = workdir / name
        wdir.mkdir(parents=True)
        shared = wl.prepare_once(cfg, art, wdir)
        (wdir / "rep").mkdir()
        state = wl.prepare(cfg, art, shared, wdir / "rep")
        out, digests = wl.run(state)
        if not all(op.ok for op in wl.check(state, out)):
            print(f"{name}: own checks fail at the default seed; not pinned",
                  file=sys.stderr)
            return 1
        entry = manifest["workloads"][name]
        entry["sizes"] = wl.sizes(cfg)
        entry["pins"] = digests
        print(f"{name}: pinned {len(entry['pins'])} digests")
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: manifest default_seed)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measuring window per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin default-seed digests in manifest.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    # Read (and, unless disabled, write) bytecode under the benchmark's
    # own cache, never next to the sources.
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        if args.pin:
            return pin(workdir)
        manifest = load_manifest()
        seed = manifest["default_seed"] if args.seed is None else args.seed
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        cache_state = bytecode_cache_state()
        if cache_state == "cold":
            probe_setup(names[0], seed)  # warm-up: fills the bytecode cache
        stamp = environment_stamp(cache_state)
        results = [bench_workload(n, seed, args.seconds, bool(args.trace),
                                  workdir / n, manifest) for n in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"env: {json.dumps(stamp, sort_keys=True)}")
    for res in results:
        res["environment"] = stamp
        print_result(res, units)
    out_dir = WORK / "results"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    (out_dir / f"{tag}.json").write_text(json.dumps(results, indent=2) + "\n")

    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        for name in wanted:
            if name in res["metrics"]:
                metrics[prefix + name] = {"value": res["metrics"][name],
                                          "unit": units[name]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    complete = all(name in r["metrics"] for r in results for name in wanted)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
