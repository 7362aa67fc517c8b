"""Analyses over campaign results: every figure, table and in-text number
of the paper's Sec 3, plus the cross-regime paper-shape reductions
(:mod:`repro.analysis.scenarios`) and the Monte-Carlo risk reductions
(:mod:`repro.analysis.montecarlo`)."""

from repro._lazy import lazy_exports

__all__ = [
    "CountryChangeAnalysis",
    "FacilityRow",
    "FacilityTable",
    "ImprovementAnalysis",
    "StabilityAnalysis",
    "SymmetryAnalysis",
    "TopRelayAnalysis",
    "VoipAnalysis",
    "bootstrap_ci",
    "check_expectations",
    "compare_scenarios",
    "draw_metrics",
    "hold_probability",
    "paper_shapes",
    "risk_summary",
    "scenario_metrics",
    "scenario_report",
    "summary_converged",
    "top_relay_coverage",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.countries": ("CountryChangeAnalysis",),
        "repro.analysis.facilities": ("FacilityRow", "FacilityTable"),
        "repro.analysis.improvements": ("ImprovementAnalysis",),
        "repro.analysis.montecarlo": (
            "bootstrap_ci",
            "draw_metrics",
            "hold_probability",
            "risk_summary",
            "summary_converged",
            "top_relay_coverage",
        ),
        "repro.analysis.ranking": ("TopRelayAnalysis",),
        "repro.analysis.scenarios": (
            "check_expectations",
            "compare_scenarios",
            "paper_shapes",
            "scenario_metrics",
            "scenario_report",
        ),
        "repro.analysis.stability": ("StabilityAnalysis",),
        "repro.analysis.symmetry": ("SymmetryAnalysis",),
        "repro.analysis.voip": ("VoipAnalysis",),
    },
)
