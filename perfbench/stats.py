"""Statistics and operation accounting for the benchmark."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for one value).

    Uses ``statistics.quantiles(values, n=4)``, the figure a run-to-run
    steadiness check compares against a metric's bound.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def host_scaled(times: Sequence[float],
                loops: Sequence[tuple[Sequence[float], Sequence[float]]],
                ref_s: float) -> float:
    """Median of timed sections in reference-host seconds.

    ``loops[i]`` holds the host-loop passes timed just before and just
    after ``times[i]``.  Each section is divided by the median of those
    passes, which tells how fast the host ran around it, and multiplied
    by ``ref_s``, the loop's time on the reference host.
    """
    return statistics.median(
        t / statistics.median([*before, *after])
        for t, (before, after) in zip(times, loops, strict=True)) * ref_s


@dataclass
class Tally:
    """Operations attempted and failed across a benchmark run."""

    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def digest_mismatches(
    digests: Mapping[str, str],
    pinned: Optional[Mapping[str, str]],
    reference: Optional[Mapping[str, str]],
) -> set[str]:
    """Names of digests that differ from the pin or from the first run.

    ``pinned`` holds the values recorded for the default seed (``None``
    for any other seed); ``reference`` is the first repetition's digests
    in this process, so every seed is still checked for determinism.  A
    pinned or reference digest the run did not produce is a mismatch.
    """
    bad: set[str] = set()
    for expected in (pinned, reference):
        if expected is None:
            continue
        for name, value in expected.items():
            if digests.get(name) != value:
                bad.add(name)
    return bad


def score_ops(ops: Iterable, bad_digests: set[str], tally: Tally) -> None:
    """Count each operation; it fails on its own check or a bad digest."""
    for op in ops:
        tally.add(op.ok and not bad_digests.intersection(op.digests))
