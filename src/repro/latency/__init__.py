"""RTT model over the routed topology: deterministic base latency from
geography + BGP, stochastic per-packet jitter/loss, and the ping engine
the measurement layer drives."""

from repro._lazy import lazy_exports

__all__ = [
    "BackboneStretch",
    "Endpoint",
    "LatencyConfig",
    "LatencyModel",
    "PingEngine",
    "PingResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.latency.backbone": ("BackboneStretch",),
        "repro.latency.model": ("Endpoint", "LatencyConfig", "LatencyModel"),
        "repro.latency.ping": ("PingEngine", "PingResult"),
    },
)
