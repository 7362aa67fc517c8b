"""Small shared utilities: statistics helpers and seeded RNG management."""

from repro._lazy import lazy_exports

__all__ = [
    "median",
    "percentile",
    "quantiles",
    "cdf_points",
    "coefficient_of_variation",
    "SeedSequenceFactory",
    "derive_rng",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.util.stats": (
            "cdf_points",
            "coefficient_of_variation",
            "median",
            "percentile",
            "quantiles",
        ),
        "repro.util.rand": ("SeedSequenceFactory", "derive_rng"),
    },
)
