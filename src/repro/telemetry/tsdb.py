"""In-memory time-series database for the monitoring pipeline.

Fig. 4: "this information is recorded into a database, and computed by
the management node for the training of job-to-power predictors".

A minimal but real TSDB: named series keyed by (metric, tags), append
mostly-ordered samples, time-range queries and downsampling
aggregations.  Storage is chunked NumPy arrays so appends are
O(1) amortised and range scans are vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.trace import PowerTrace

__all__ = ["SeriesKey", "TimeSeriesDB"]


@dataclass(frozen=True)
class SeriesKey:
    """Identity of one series: metric name + sorted tag set."""

    metric: str
    tags: tuple[tuple[str, str], ...] = ()

    @classmethod
    def of(cls, metric: str, **tags: str) -> "SeriesKey":
        """Convenience constructor with keyword tags."""
        if not metric:
            raise ValueError("metric name must be non-empty")
        return cls(metric=metric, tags=tuple(sorted(tags.items())))


class _Series:
    """One series: growable arrays kept sorted by time."""

    __slots__ = ("times", "values", "size")

    def __init__(self) -> None:
        self.times = np.empty(1024)
        self.values = np.empty(1024)
        self.size = 0

    def _reserve(self, extra: int) -> None:
        needed = self.size + extra
        if needed > self.times.size:
            cap = self.times.size
            while cap < needed:
                cap *= 2
            self.times = np.resize(self.times, cap)
            self.values = np.resize(self.values, cap)

    def append(self, t: float, v: float) -> None:
        self._reserve(1)
        if self.size and t <= self.times[self.size - 1]:
            # Out-of-order sample: insert to keep the arrays sorted.
            idx = int(np.searchsorted(self.times[: self.size], t, side="right"))
            self.times[idx + 1: self.size + 1] = self.times[idx: self.size]
            self.values[idx + 1: self.size + 1] = self.values[idx: self.size]
            self.times[idx] = t
            self.values[idx] = v
        else:
            self.times[self.size] = t
            self.values[self.size] = v
        self.size += 1

    def extend(self, t: np.ndarray, v: np.ndarray) -> None:
        """Bulk append of already-sorted samples that land after the tail.

        Caller guarantees ``t`` is non-decreasing and (when the series is
        non-empty) ``t[0]`` is not before the last stored timestamp —
        the common case for gateway batches, where this is one slice
        assignment instead of ``len(t)`` Python-level appends.
        """
        n = int(t.size)
        if n == 0:
            return
        self._reserve(n)
        self.times[self.size: self.size + n] = t
        self.values[self.size: self.size + n] = v
        self.size += n

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        return self.times[: self.size], self.values[: self.size]


class TimeSeriesDB:
    """The management node's sample store."""

    def __init__(self) -> None:
        self._series: dict[SeriesKey, _Series] = {}
        # Optional observability counter (None keeps writes hook-free).
        self._m_written = None

    def bind_observability(self, obs) -> None:
        """Count writes into ``obs``'s ``tsdb_samples_written_total``.

        Seeds the counter with whatever is already stored, so late
        binding still reconciles with :meth:`sample_count`.  A disabled
        :class:`~repro.observability.Observability` leaves the write
        path untouched.
        """
        if not obs.enabled:
            return
        self._m_written = obs.metrics.counter("tsdb_samples_written_total")
        existing = self.sample_count()
        if existing:
            self._m_written.inc(existing)

    # -- writes ---------------------------------------------------------------
    def insert(self, key: SeriesKey, t: float, value: float) -> None:
        """Insert one sample."""
        self._series.setdefault(key, _Series()).append(float(t), float(value))
        if self._m_written is not None:
            self._m_written.inc()

    def insert_many(self, key: SeriesKey, times, values) -> int:
        """Bulk insert aligned arrays; returns the count inserted.

        Sorted batches that land at or after the series tail take a
        vectorised slice-assignment fast path; anything else falls back
        to the per-sample sorted insert.
        """
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be aligned 1-D arrays")
        series = self._series.setdefault(key, _Series())
        if t.size and (t.size == 1 or not np.any(np.diff(t) < 0)) and (
            series.size == 0 or t[0] >= series.times[series.size - 1]
        ):
            series.extend(t, v)
        else:
            for ti, vi in zip(t, v):
                series.append(float(ti), float(vi))
        if self._m_written is not None:
            self._m_written.inc(int(t.size))
        return int(t.size)

    def insert_trace(self, key: SeriesKey, trace: PowerTrace) -> int:
        """Bulk insert a PowerTrace."""
        return self.insert_many(key, trace.times_s, trace.power_w)

    # -- reads -----------------------------------------------------------------
    def query(
        self, key: SeriesKey, t_start: float = -np.inf, t_end: float = np.inf
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw samples of one series in [t_start, t_end]."""
        if key not in self._series:
            raise KeyError(f"no series {key}")
        times, values = self._series[key].view()
        lo = int(np.searchsorted(times, t_start, side="left"))
        hi = int(np.searchsorted(times, t_end, side="right"))
        return times[lo:hi].copy(), values[lo:hi].copy()

    def query_trace(self, key: SeriesKey, t_start: float = -np.inf, t_end: float = np.inf) -> PowerTrace:
        """Range query returned as a PowerTrace (duplicate times collapsed)."""
        t, v = self.query(key, t_start, t_end)
        if t.size > 1:
            keep = np.concatenate(([True], np.diff(t) > 0))
            t, v = t[keep], v[keep]
        return PowerTrace(t, v)

    def downsample(
        self, key: SeriesKey, bucket_s: float, agg: str = "mean",
        t_start: float = -np.inf, t_end: float = np.inf,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bucketed aggregation: mean / max / min / sum / count."""
        if bucket_s <= 0:
            raise ValueError("bucket width must be positive")
        if agg not in ("mean", "max", "min", "sum", "count"):
            raise ValueError(f"unknown aggregation {agg!r}")
        t, v = self.query(key, t_start, t_end)
        if t.size == 0:
            return np.array([]), np.array([])
        # Samples come back time-sorted, so buckets are sorted too and
        # each bucket is one contiguous run — reduceat over run starts
        # replaces the per-bucket boolean-mask scan (O(buckets * n)).
        buckets = np.floor(t / bucket_s).astype(np.int64)
        uniq, starts = np.unique(buckets, return_index=True)
        out_t = (uniq + 0.5) * bucket_s
        counts = np.diff(np.append(starts, v.size)).astype(float)
        if agg == "count":
            out_v = counts
        elif agg == "sum":
            out_v = np.add.reduceat(v, starts)
        elif agg == "mean":
            out_v = np.add.reduceat(v, starts) / counts
        elif agg == "max":
            out_v = np.maximum.reduceat(v, starts)
        else:
            out_v = np.minimum.reduceat(v, starts)
        return np.asarray(out_t, dtype=float), np.asarray(out_v, dtype=float)

    # -- size ------------------------------------------------------------------------
    def sample_count(self) -> int:
        """Total samples stored across every series."""
        return sum(s.size for s in self._series.values())
