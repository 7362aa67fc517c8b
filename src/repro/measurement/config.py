"""Configuration of the measurement-infrastructure emulators.

The access-latency ranges are the main calibration lever behind the
paper's relay-type ordering: Colo interfaces sit on facility routers
(sub-millisecond host latency), PlanetLab nodes are servers on campus
networks, and RIPE Atlas probes mostly hang behind home access links —
so a relayed path through an eyeball probe pays that last-mile latency
twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class InfrastructureConfig:
    """Knobs for Atlas/PlanetLab/colo/LG node generation."""

    # --- RIPE Atlas -------------------------------------------------------
    probes_per_eyeball_lambda: float = 1.8
    """Poisson mean of probes hosted per eyeball AS."""

    core_probe_prob: float = 0.75
    """Probability a transit/content/cloud AS hosts a probe (RIPE Atlas has
    significant core-network deployment; these seed the RAR_other pool)."""

    research_probe_prob: float = 0.6
    """Probability a research AS hosts a probe."""

    enterprise_probe_prob: float = 0.3
    """Probability an enterprise AS hosts a probe."""

    anchor_prob: float = 0.7
    """Probability a transit/content AS hosts an anchor."""

    latest_firmware: int = 4790
    """Current probe firmware version."""

    old_firmware_prob: float = 0.15
    """Fraction of probes stuck on older firmware (filtered out, Sec 2.1)."""

    unlisted_probe_prob: float = 0.08
    """Fraction of probes not publicly available."""

    disconnected_probe_prob: float = 0.08
    """Fraction of probes currently disconnected."""

    ungeolocated_probe_prob: float = 0.10
    """Fraction of probes without geolocation tags."""

    probe_access_ms: tuple[float, float] = (1.0, 6.0)
    """Uniform one-way access-latency range for home probes."""

    anchor_access_ms: tuple[float, float] = (0.5, 2.0)
    """Access-latency range for anchors and core-hosted probes."""

    probe_loss_prob: tuple[float, float] = (0.002, 0.02)
    """Per-packet loss range contributed by a probe."""

    # --- PlanetLab ---------------------------------------------------------
    sites_per_research_as: tuple[int, int] = (1, 3)
    """Sites hosted per national NREN (uniform integer range)."""

    nodes_per_site: tuple[int, int] = (2, 6)
    """Nodes per PlanetLab site (uniform integer range)."""

    planetlab_access_ms: tuple[float, float] = (0.5, 1.5)
    """Access-latency range for PlanetLab nodes."""

    planetlab_avail_alpha: float = 3.0
    planetlab_avail_beta: float = 1.2
    """Beta distribution of a node's per-round availability probability
    (PlanetLab nodes are notoriously flaky, Sec 2.3.1 footnote 3)."""

    planetlab_loss_prob: tuple[float, float] = (0.005, 0.03)
    """Loss range for (often overloaded) PlanetLab nodes."""

    # --- Colo interfaces ----------------------------------------------------
    colo_member_interface_prob: float = 0.35
    """Probability a tenant AS at a facility exposes pingable interfaces."""

    interfaces_per_member: tuple[int, int] = (1, 2)
    """Interfaces per (facility, member) when exposed."""

    colo_access_ms: tuple[float, float] = (0.05, 0.3)
    """Access-latency range for facility router interfaces."""

    colo_loss_prob: tuple[float, float] = (0.0005, 0.005)
    """Loss range for facility interfaces."""

    # --- Looking glasses ------------------------------------------------------
    lg_city_prob: float = 0.8
    """Probability a facility city hosts at least one looking glass."""

    lgs_per_city: tuple[int, int] = (2, 6)
    """LG count per covered city."""

    lg_access_ms: tuple[float, float] = (0.3, 1.5)
    """Access-latency range for LG servers."""

    def __post_init__(self) -> None:
        for name in (
            "probe_access_ms",
            "anchor_access_ms",
            "probe_loss_prob",
            "planetlab_access_ms",
            "planetlab_loss_prob",
            "colo_access_ms",
            "colo_loss_prob",
            "lg_access_ms",
        ):
            low, high = getattr(self, name)
            if not 0 <= low <= high < math.inf:
                raise ConfigError(f"{name}=({low}, {high}) is not a valid range")
        for name in (
            "core_probe_prob",
            "research_probe_prob",
            "enterprise_probe_prob",
            "anchor_prob",
            "old_firmware_prob",
            "unlisted_probe_prob",
            "disconnected_probe_prob",
            "ungeolocated_probe_prob",
            "colo_member_interface_prob",
            "lg_city_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name}={value} outside [0, 1]")
        if self.probes_per_eyeball_lambda <= 0:
            raise ConfigError("probes_per_eyeball_lambda must be positive")
        for name in ("sites_per_research_as", "nodes_per_site", "interfaces_per_member", "lgs_per_city"):
            low, high = getattr(self, name)
            if low < 1 or high < low:
                raise ConfigError(f"{name}=({low}, {high}) is not a valid integer range")
