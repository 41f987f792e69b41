"""Time one workload's set-up in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/setup_probe.py <workload> <seed>``
with ``src`` on ``PYTHONPATH``.  Prints one JSON line with the seconds
spent importing the package and the workload's module (which imports
the subpackages that workload uses), loading the config, and building
the ready-to-run artifact.
"""

import json
import sys
import time

t0 = time.perf_counter()
import repro  # noqa: E402,F401
import workloads  # noqa: E402

workload = workloads.get(sys.argv[1])
t1 = time.perf_counter()
cfg = workload.load(int(sys.argv[2]))
t2 = time.perf_counter()
workload.build(cfg)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "build_s": t3 - t2}))
