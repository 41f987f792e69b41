#!/usr/bin/env python3
"""Check that the benchmark's end-to-end figures are steady across seeds.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs ``run.py`` once per seed and workload, one run at a time, with the
``command`` and ``run_seconds`` of ``BENCHMARK.json``, then prints for
every end-to-end metric its median, its quartile spread
(``statistics.quantiles(values, n=4)``, distance as a share of the
median) and its bound.  A spread at or above a third of the bound is
flagged.  Before each run it also times a fixed pure-Python loop
(``host_loop_s``, the median of eleven passes): the package plays no
part in it, so its spread shows how much the machine's own speed moved
during the check.  Raw figures go to ``perfbench/_work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host_loop_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed now."""
    times = []
    for _ in range(11):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return median(times)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw: dict[str, dict[str, list[float]]] = {}
    ok = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {m: [] for m in bounds}
        host: list[float] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            host.append(host_loop_s())
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect result {result}")
                ok = False
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        raw[name] = dict(values, host_loop_s=host)
        print(f"{name:16s} {'host_loop_s':12s} median {median(host):10.4f} "
              f"spread {spread(host):7.4f}")
        for metric, bound in bounds.items():
            s = spread(values[metric])
            flag = "" if s < bound / 3 else "  <-- spread >= bound/3"
            print(f"{name:16s} {metric:12s} median {median(values[metric]):10.4f} "
                  f"spread {s:7.4f} bound {bound:.2f}{flag}")
            ok = ok and s < bound
    (HERE / "_work").mkdir(exist_ok=True)
    (HERE / "_work" / "steady.json").write_text(json.dumps(raw, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
