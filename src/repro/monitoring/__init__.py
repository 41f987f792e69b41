"""Monitoring stack: MQTT broker, energy gateway, baselines, live agents."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".baselines": (
        "ArduPowerMonitor", "EnergyGatewayMonitor", "HdeemMonitor", "IpmiMonitor",
        "MonitoringSystem", "PowerInsightMonitor", "standard_monitors",
    ),
    ".comparison": ("MonitorScore", "aliasing_spread", "compare_monitors"),
    ".daemon": ("CappingAgent", "GatewayArray", "GatewayDaemon"),
    ".gateway": ("EnergyGateway", "GatewayConfig"),
    ".insight": (
        "EfficiencyAuditor", "Finding", "HazardDetector", "PowerAnomalyDetector",
    ),
    ".plane": ("TelemetryPlane",),
    ".mqtt": (
        "BrokerUnavailableError", "Message", "MqttBroker", "MqttClient", "Subscription",
        "topic_matches", "validate_filter", "validate_topic",
    ),
})
