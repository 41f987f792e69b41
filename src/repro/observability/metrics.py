"""Labeled metrics for the management plane: counters, gauges, histograms.

D.A.V.I.D.E.'s out-of-band monitoring watched the *compute*; a
production-scale management plane must also watch *itself* — how many
samples crossed the bus, how deep the gateway backlogs ran, how long
cap violations lasted.  This module is the storage half of that
self-observability: a :class:`MetricsRegistry` holding labeled series of
three instrument kinds, Prometheus-style.

Two properties the simulation stack demands, and ordinary metrics
libraries do not give:

* **Determinism** — instruments never read the wall clock.  Every
  recorded value is supplied by the caller (sim-clock durations, sample
  counts), so two seeded runs produce byte-identical snapshots.
* **Near-zero disabled cost** — the :class:`NullMetricsRegistry` hands
  out shared no-op instruments, so un-observed components pay one
  attribute load and a no-op call on their hot path.  Components fetch
  instrument handles **once** at construction; per-tick work is a plain
  ``Counter.inc``, a slotted float add.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Label sets are stored canonically as sorted (key, value) tuples.
LabelSet = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-flavoured: covers
#: publish latencies from sub-millisecond to minutes).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
)


def _labelset(labels: dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total (events, joule-seconds, drops)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, backlog, active trim ratio)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current level."""
        self.value = float(value)


class Histogram:
    """A distribution over fixed bucket bounds (publish latencies...).

    Buckets are cumulative-upper-bound style, as in Prometheus: bucket
    ``i`` counts observations ``<= bounds[i]``, with an implicit +Inf
    bucket at the end.  ``sum``/``count`` track the exact first moment.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelSet = (), bounds: Sequence[float] = DEFAULT_BUCKETS):
        b = tuple(float(x) for x in bounds)
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("histogram bounds must be non-empty and strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = b
        self.bucket_counts = [0] * (len(b) + 1)  # trailing +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by the null registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""


class _NullGauge(Gauge):
    """Shared do-nothing gauge handed out by the null registry."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Discard the level."""


class _NullHistogram(Histogram):
    """Shared do-nothing histogram handed out by the null registry."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Discard the observation."""


class MetricsRegistry:
    """Get-or-create store of labeled instrument series.

    One registry per observed system.  Series identity is
    ``(name, sorted labels)``; asking twice returns the same instrument,
    so components can resolve handles at construction and increment
    without any lookup on the hot path.

    >>> reg = MetricsRegistry()
    >>> pub = reg.counter("telemetry_samples_total")
    >>> pub.inc(42)
    >>> reg.value("telemetry_samples_total")
    42.0
    """

    #: False on the null registry — lets callers skip building label
    #: dicts or attributes when nobody is watching.
    enabled = True

    def __init__(self) -> None:
        self._series: dict[tuple[str, LabelSet], Counter | Gauge | Histogram] = {}

    # -- get-or-create -------------------------------------------------------
    def _get(self, cls, name: str, labels: dict[str, str], **kw):
        if not name:
            raise ValueError("metric name must be non-empty")
        key = (name, _labelset(labels))
        inst = self._series.get(key)
        if inst is None:
            inst = cls(name, key[1], **kw)
            self._series[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(f"metric {name!r} already registered as a {inst.kind}")
        return inst

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter series ``name{labels}``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge series ``name{labels}``."""
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, **labels: str
    ) -> Histogram:
        """Get or create the histogram series ``name{labels}``."""
        return self._get(Histogram, name, labels, bounds=bounds)

    # -- reads ----------------------------------------------------------------
    def series(self) -> Iterator[Counter | Gauge | Histogram]:
        """All registered series, sorted by (name, labels) for stable output."""
        for key in sorted(self._series):
            yield self._series[key]

    def value(self, name: str, **labels: str) -> Optional[float]:
        """Current value of one counter/gauge series, or None if absent."""
        inst = self._series.get((name, _labelset(labels)))
        if inst is None or isinstance(inst, Histogram):
            return None
        return inst.value

    def total(self, name: str) -> float:
        """Sum of a counter/gauge name across all of its label sets."""
        return sum(
            inst.value
            for (n, _), inst in self._series.items()
            if n == name and not isinstance(inst, Histogram)
        )

    def __len__(self) -> int:
        return len(self._series)


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every ask returns a shared no-op instrument.

    Keeps the instrumented code path identical whether observability is
    on or off — the off cost is one no-op method call per record site.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str, **labels: str) -> Counter:
        """Return the shared no-op counter."""
        return self._null_counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Return the shared no-op gauge."""
        return self._null_gauge

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, **labels: str
    ) -> Histogram:
        """Return the shared no-op histogram."""
        return self._null_histogram
