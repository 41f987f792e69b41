"""Power-sensing chain: traces, sensors, ADC, decimation, synthetic workloads."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".adc": ("AM335X_ADC", "AdcSpec", "SarAdc", "quantization_snr_db"),
    ".decimation": (
        "boxcar_decimate", "cascaded_average", "effective_bits_gain", "naive_decimate",
    ),
    ".sensors": ("HALL_SENSOR", "SHUNT_SENSOR", "PowerSensor", "SensorSpec"),
    ".trace": ("PowerTrace", "trace_from_function"),
    ".workloads": (
        "PhaseAlternation", "hpc_job_power", "random_phase_workload", "sine_ripple",
        "square_wave",
    ),
})
