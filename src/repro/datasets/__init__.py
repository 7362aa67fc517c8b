"""Dataset substrates: synthetic equivalents of the external data sources
the paper consumes (APNIC user coverage, PeeringDB, CAIDA prefix2as, the
Giotsas et al. facility-mapping dataset, and Periscope looking glasses)."""

from repro._lazy import lazy_exports

__all__ = [
    "DatasetConfig",
    "ApnicCoverage",
    "CoverageRecord",
    "PeeringDB",
    "Prefix2AS",
    "FacilityMappingDataset",
    "FacilityMappingRecord",
    "Periscope",
    "LookingGlass",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.datasets.config": ("DatasetConfig",),
        "repro.datasets.apnic": ("ApnicCoverage", "CoverageRecord"),
        "repro.datasets.peeringdb": ("PeeringDB",),
        "repro.datasets.prefix2as": ("Prefix2AS",),
        "repro.datasets.facility_mapping": ("FacilityMappingDataset", "FacilityMappingRecord"),
        "repro.datasets.periscope": ("LookingGlass", "Periscope"),
    },
)
