"""The ``--check-against`` gate of ``bench_sched``, ``bench_scale`` and
``bench_explore``.

Each bench records ratios of two timings taken in one process, so runner
speed cancels out.  A ratio fails below ``baseline * (1 - tolerance)`` and
a pinned digest fails when it differs.  Labels the baseline lacks are
skipped; every check prints one line.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Mapping


def add_arguments(parser: argparse.ArgumentParser, tolerance: float,
                  checks: str) -> None:
    """Add ``--check-against BASELINE.json`` and ``--tolerance``."""
    parser.add_argument("--check-against", default=None, metavar="BASELINE.json",
                        help=f"fail if {checks} regressed vs this baseline "
                             "report")
    parser.add_argument("--tolerance", type=float, default=tolerance,
                        help="allowed fractional speedup regression "
                             f"(default {tolerance})")


def load_baseline(path: str) -> dict:
    return json.loads(Path(path).read_text())


def check_speedup(label: str, measured: float, expected: float,
                  tolerance: float) -> bool:
    """Whether ``measured`` clears the floor under ``expected``."""
    floor = expected * (1.0 - tolerance)
    ok = measured >= floor
    print(f"speedup check {label}: measured {measured:.2f}x vs baseline "
          f"{expected:.2f}x (floor {floor:.2f}x) -> "
          f"{'ok' if ok else 'REGRESSED'}")
    return ok


def check_speedups(measured: Mapping[str, float],
                   baseline: Mapping[str, float], tolerance: float) -> bool:
    """:func:`check_speedup` for every label the baseline also has."""
    ok = True
    for label, value in measured.items():
        if baseline.get(label) is not None:
            ok &= check_speedup(label, value, baseline[label], tolerance)
    return ok


def check_digests(measured: Mapping[str, str],
                  baseline: Mapping[str, str]) -> bool:
    """Whether every digest the baseline also has is unchanged."""
    ok = True
    for label, digest in measured.items():
        expected = baseline.get(label)
        if expected is not None:
            equal = digest == expected
            print(f"digest check {label}: {digest[:16]} vs baseline "
                  f"{expected[:16]} -> {'ok' if equal else 'DIFFERS'}")
            ok &= equal
    return ok
