"""Named world/latency/workload regimes for campaigns and sweeps.

See :mod:`repro.scenarios.registry` for the :class:`Scenario` model and
the preset definitions, :mod:`repro.scenarios.regimes` for the
Monte-Carlo :class:`Regime` presets (scenarios with parameter
distributions), and :mod:`repro.analysis.scenarios` for the paper-shape
reductions the expectations are checked against.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Regime",
    "Scenario",
    "get_regime",
    "get_scenario",
    "list_regimes",
    "list_scenarios",
    "regime_names",
    "register",
    "register_regime",
    "scenario_names",
    "scenario_with",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.scenarios.registry": (
            "Scenario",
            "get_scenario",
            "list_scenarios",
            "register",
            "scenario_names",
            "scenario_with",
        ),
        "repro.scenarios.regimes": (
            "Regime",
            "get_regime",
            "list_regimes",
            "regime_names",
            "register_regime",
        ),
    },
)
