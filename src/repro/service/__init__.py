"""The serving layer: online relay selection over campaign history.

The offline side of the system (``repro.core``) measures; this package
*serves*: :class:`RelayDirectory` compiles observation tables into dense
ranked lookup lanes, :class:`ShortcutService` answers batched relay
queries with pair → country → direct fallback and ingests new rounds
incrementally, and :mod:`repro.service.loadgen` replays Zipf-shaped
synthetic user traffic against it to measure sustained queries/sec
(``repro serve-bench``).  :func:`cross_world_service` pools several world
seeds' campaigns behind one directory via node-identity unification.

Wrap a compiled directory with ``ShortcutService(directory)`` or compile
one with the keyword-only classmethods —
:meth:`ShortcutService.from_campaign` / ``from_table`` /
``from_snapshot`` / ``empty`` — and consume the typed results
(:class:`RouteAnswer`, :class:`RouteBatch`, :class:`ServiceStats`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BLOCK_SIZE",
    "DegradationCounters",
    "LaneBlock",
    "LoadgenConfig",
    "QueryStream",
    "RelayDirectory",
    "RouteAnswer",
    "RouteBatch",
    "SNAPSHOT_VERSION",
    "ServiceStats",
    "ShortcutService",
    "TIER_COUNTRY",
    "TIER_DIRECT",
    "TIER_NAMES",
    "TIER_PAIR",
    "country_rank_order",
    "cross_world_service",
    "replay",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.service.directory": (
            "SNAPSHOT_VERSION",
            "TIER_COUNTRY",
            "TIER_DIRECT",
            "TIER_NAMES",
            "TIER_PAIR",
            "LaneBlock",
            "RelayDirectory",
        ),
        "repro.service.loadgen": (
            "BLOCK_SIZE",
            "LoadgenConfig",
            "QueryStream",
            "country_rank_order",
            "replay",
        ),
        "repro.service.results": (
            "DegradationCounters",
            "RouteAnswer",
            "RouteBatch",
            "ServiceStats",
        ),
        "repro.service.service": ("ShortcutService", "cross_world_service"),
    },
)
