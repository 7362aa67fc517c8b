"""AS-level topology substrate: autonomous systems with geographic PoPs,
colocation facilities, IXPs, and a Gao-Rexford relationship graph, all
produced deterministically by :class:`~repro.topology.builder.TopologyBuilder`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ASType",
    "AutonomousSystem",
    "Facility",
    "IXP",
    "ASGraph",
    "Relationship",
    "TopologyConfig",
    "TopologyBuilder",
    "Topology",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.topology.types": ("ASType", "AutonomousSystem"),
        "repro.topology.facilities": ("Facility", "IXP"),
        "repro.topology.graph": ("ASGraph", "Relationship"),
        "repro.topology.config": ("TopologyConfig",),
        "repro.topology.builder": ("TopologyBuilder", "Topology"),
    },
)
