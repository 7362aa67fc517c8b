"""repro — reproduction of "Shortcuts through Colocation Facilities" (IMC 2017).

The package builds a deterministic, geographically-embedded synthetic Internet
(AS-level topology, valley-free BGP, facility/IXP ecosystem, RTT model and
measurement-infrastructure emulators) and re-implements the paper's full
measurement methodology on top of it: endpoint selection at eyeball networks,
relay selection at colocation facilities and elsewhere, speed-of-light
feasibility pruning, the round-based ping campaign, overlay path stitching and
all of the paper's analyses (Figures 1-4, Table 1 and the in-text results).

Quickstart::

    from repro import build_world, CampaignConfig, MeasurementCampaign

    world = build_world(seed=7)
    campaign = MeasurementCampaign(world, CampaignConfig(num_rounds=4))
    result = campaign.run()
    print(result.summary())

See ``README.md`` for the command line and the public API, and
``benchmarks/README.md`` for the scripts that regenerate each figure and
table.  Every name below loads on first use, so ``from repro import X``
imports only the module that defines ``X``.
"""

from repro._lazy import lazy_exports

__version__ = "1.5.0"

__all__ = [
    "World",
    "WorldConfig",
    "build_world",
    "CampaignConfig",
    "MeasurementCampaign",
    "CampaignResult",
    "RoundResult",
    "ObservationTable",
    "TablePools",
    "SweepEntry",
    "SweepRequest",
    "SweepResult",
    "run_sweep",
    "MonteCarloConfig",
    "MonteCarloManager",
    "ParamSpec",
    "run_montecarlo",
    "RoutingFabric",
    "Regime",
    "Scenario",
    "get_regime",
    "get_scenario",
    "list_regimes",
    "list_scenarios",
    "scenario_names",
    "RelayDirectory",
    "ShortcutService",
    "TimelineConfig",
    "RelayOutage",
    "ProbeChurn",
    "LinkDegradation",
    "TrafficShift",
    "rolling_outages",
    "ImprovementAnalysis",
    "TopRelayAnalysis",
    "FacilityTable",
    "StabilityAnalysis",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.world": ("World", "WorldConfig", "build_world"),
        "repro.core.config": ("CampaignConfig",),
        "repro.core.campaign": ("MeasurementCampaign",),
        "repro.core.results": ("CampaignResult", "RoundResult"),
        "repro.core.sweep": ("SweepEntry", "SweepRequest", "SweepResult", "run_sweep"),
        "repro.core.montecarlo": (
            "MonteCarloConfig",
            "MonteCarloManager",
            "ParamSpec",
            "run_montecarlo",
        ),
        "repro.core.table": ("ObservationTable", "TablePools"),
        "repro.routing.fabric": ("RoutingFabric",),
        "repro.scenarios.registry": (
            "Scenario",
            "get_scenario",
            "list_scenarios",
            "scenario_names",
        ),
        "repro.scenarios.regimes": ("Regime", "get_regime", "list_regimes"),
        "repro.service.directory": ("RelayDirectory",),
        "repro.service.service": ("ShortcutService",),
        "repro.timeline.events": (
            "LinkDegradation",
            "ProbeChurn",
            "RelayOutage",
            "TimelineConfig",
            "TrafficShift",
            "rolling_outages",
        ),
        "repro.analysis.improvements": ("ImprovementAnalysis",),
        "repro.analysis.ranking": ("TopRelayAnalysis",),
        "repro.analysis.facilities": ("FacilityTable",),
        "repro.analysis.stability": ("StabilityAnalysis",),
    },
)
