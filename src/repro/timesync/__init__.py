"""Time synchronization: drifting clocks, PTP (IEEE 1588), NTP baseline."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".clocks": ("TCXO", "XO_CHEAP", "DisciplinedClock", "LocalClock", "OscillatorSpec"),
    ".ntp": ("NtpClient",),
    ".ptp": (
        "HW_TIMESTAMPING", "SW_TIMESTAMPING", "NetworkPathSpec", "PtpExchange",
        "PtpSlave",
    ),
})
