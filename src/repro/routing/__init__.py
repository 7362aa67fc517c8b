"""Inter-domain routing: Gao-Rexford valley-free route selection, the
geographic course of each BGP path, and path-inflation metrics."""

from repro._lazy import lazy_exports

__all__ = [
    "BGPRouting",
    "Route",
    "RouteClass",
    "GeoPathWalker",
    "PathSegment",
    "geodesic_inflation",
    "path_length_km",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.routing.bgp": ("BGPRouting", "Route", "RouteClass"),
        "repro.routing.geopath": ("GeoPathWalker", "PathSegment"),
        "repro.routing.inflation": ("geodesic_inflation", "path_length_km"),
    },
)
