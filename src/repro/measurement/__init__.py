"""Measurement-infrastructure emulators: node registries, the RIPE Atlas
probe platform, PlanetLab, and the ground-truth colocation interface pool
that the (aged) Giotsas-style dataset is derived from."""

from repro._lazy import lazy_exports

__all__ = [
    "NodeKind",
    "MeasurementNode",
    "HostAddressBook",
    "InfrastructureConfig",
    "RipeAtlasEmulator",
    "AtlasProbe",
    "PlanetLabEmulator",
    "PlanetLabSite",
    "PlanetLabNode",
    "ColoInterfacePool",
    "ColoInterface",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.measurement.nodes": ("HostAddressBook", "MeasurementNode", "NodeKind"),
        "repro.measurement.config": ("InfrastructureConfig",),
        "repro.measurement.atlas": ("AtlasProbe", "RipeAtlasEmulator"),
        "repro.measurement.planetlab": ("PlanetLabEmulator", "PlanetLabNode", "PlanetLabSite"),
        "repro.measurement.colo": ("ColoInterface", "ColoInterfacePool"),
    },
)
