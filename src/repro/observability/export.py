"""Exporter: the Prometheus text exposition format.

The exporter is deterministic — series sorted by (name, labels), floats
serialized exactly — so exported snapshots from seeded runs can be
diffed or digested byte-for-byte, the same contract
:class:`~repro.telemetry.TelemetryEventLog` keeps.
"""

from __future__ import annotations

from .metrics import Histogram, MetricsRegistry

__all__ = ["to_prometheus_text"]


def _label_str(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    """Prometheus-style number: integral floats lose the trailing .0."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render every series in the Prometheus text exposition format.

    Counters get the conventional ``_total``-less name passthrough (this
    repo already names them ``*_total``), histograms expand into
    cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``.
    """
    lines: list[str] = []
    seen_types: set[str] = set()
    for inst in registry.series():
        if inst.name not in seen_types:
            seen_types.add(inst.name)
            lines.append(f"# TYPE {inst.name} {inst.kind}")
        if isinstance(inst, Histogram):
            cumulative = 0
            for bound, count in zip(inst.bounds, inst.bucket_counts):
                cumulative += count
                le_label = _label_str(inst.labels, 'le="%s"' % _fmt(bound))
                lines.append(f"{inst.name}_bucket{le_label} {cumulative}")
            cumulative += inst.bucket_counts[-1]
            inf_label = _label_str(inst.labels, 'le="+Inf"')
            lines.append(f"{inst.name}_bucket{inf_label} {cumulative}")
            lines.append(f"{inst.name}_sum{_label_str(inst.labels)} {_fmt(inst.sum)}")
            lines.append(f"{inst.name}_count{_label_str(inst.labels)} {inst.count}")
        else:
            lines.append(f"{inst.name}{_label_str(inst.labels)} {_fmt(inst.value)}")
    return "\n".join(lines) + ("\n" if lines else "")
