"""The paper's methodology: endpoint selection at eyeballs (Sec 2.1), relay
selection at Colos (2.2) and elsewhere (2.3), speed-of-light feasibility
(2.4), and the round-based measurement campaign with overlay stitching
(2.5)."""

from repro._lazy import lazy_exports

__all__ = [
    "RelayType",
    "CampaignConfig",
    "EyeballSelector",
    "ColoRelayPipeline",
    "FilterReport",
    "VerifiedColoRelay",
    "AtlasRelaySelector",
    "PlanetLabRelaySelector",
    "is_feasible",
    "feasible_relays",
    "feasibility_mask",
    "stitch_rtt",
    "is_tiv",
    "RelayRecord",
    "RoundResult",
    "CampaignResult",
    "MeasurementCampaign",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.types": ("RelayType",),
        "repro.core.config": ("CampaignConfig",),
        "repro.core.eyeballs": ("EyeballSelector",),
        "repro.core.colo": ("ColoRelayPipeline", "FilterReport", "VerifiedColoRelay"),
        "repro.core.relays": ("AtlasRelaySelector", "PlanetLabRelaySelector"),
        "repro.core.feasibility": ("feasibility_mask", "feasible_relays", "is_feasible"),
        "repro.core.stitching": ("stitch_rtt", "is_tiv"),
        "repro.core.results": ("CampaignResult", "RelayRecord", "RoundResult"),
        "repro.core.campaign": ("MeasurementCampaign",),
    },
)
