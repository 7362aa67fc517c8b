"""Geographic substrate: coordinates, great-circle distances, fiber delay,
and the embedded world-city / country databases the topology is placed on."""

from repro._lazy import lazy_exports

__all__ = [
    "GeoPoint",
    "great_circle_km",
    "fiber_delay_ms",
    "propagation_delay_ms",
    "min_rtt_ms",
    "SPEED_OF_LIGHT_FIBER_KM_PER_MS",
    "FIBER_PATH_STRETCH",
    "Country",
    "country",
    "continent_of",
    "all_countries",
    "City",
    "city",
    "all_cities",
    "cities_in_country",
    "hub_cities",
    "CityDelayMatrix",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.geo.coords": ("GeoPoint",),
        "repro.geo.distance": (
            "FIBER_PATH_STRETCH",
            "SPEED_OF_LIGHT_FIBER_KM_PER_MS",
            "fiber_delay_ms",
            "great_circle_km",
            "min_rtt_ms",
            "propagation_delay_ms",
        ),
        "repro.geo.countries": ("Country", "continent_of", "country", "all_countries"),
        "repro.geo.cities": ("City", "all_cities", "cities_in_country", "city", "hub_cities"),
        "repro.geo.matrix": ("CityDelayMatrix",),
    },
)
