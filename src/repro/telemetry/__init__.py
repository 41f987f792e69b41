"""Telemetry: time-series DB, energy accounting, phase-correlating profiler."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".accounting": ("EnergyAccountant", "JobEnergyBill", "UserStatement"),
    ".eventlog": ("TelemetryEvent", "TelemetryEventLog"),
    ".events": ("EventCorrelator", "EventTrace", "events_from_execution"),
    ".profiler": ("PhaseMarker", "PowerProfiler", "RegionProfile"),
    ".tsdb": ("SeriesKey", "TimeSeriesDB"),
})
