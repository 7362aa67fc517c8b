"""Hand-written observation tables for tests.

A :class:`Case` spells out one case (one endpoint pair in one round) field
by field; :func:`build_table` encodes a list of them into an
:class:`~repro.core.table.ObservationTable` with the campaign's column
dtypes.  A relay type a case leaves out gets the campaign's defaults: no
best relay (``-1`` / NaN), zero feasible relays, all-false country flags
and an empty improving list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.table import NUM_RELAY_TYPES, ObservationTable, TablePools
from repro.core.types import RELAY_TYPE_ORDER, RelayType


@dataclass(frozen=True)
class Case:
    """One case's fields, decoded; the per-type maps are keyed by relay type."""

    round_index: int = 0
    e1_id: str = "a"
    e2_id: str = "b"
    e1_cc: str = "DE"
    e2_cc: str = "JP"
    e1_city: str = "Berlin/DE"
    e2_city: str = "Tokyo/JP"
    direct_rtt_ms: float = 120.0
    #: (best relay's registry index, its stitched RTT)
    best_by_type: dict[RelayType, tuple[int, float]] = field(default_factory=dict)
    #: (registry index, improvement in ms) per improving relay, in relay order
    improving_by_type: dict[RelayType, tuple[tuple[int, float], ...]] = field(
        default_factory=dict
    )
    feasible_by_type: dict[RelayType, int] = field(default_factory=dict)
    #: the four flags in ``COUNTRY_FLAG_LABELS`` order
    country_groups_by_type: dict[RelayType, tuple[bool, bool, bool, bool]] = field(
        default_factory=dict
    )


def build_table(cases: list[Case], pools: TablePools | None = None) -> ObservationTable:
    """The cases as one table, interning their strings into ``pools``."""
    pools = pools or TablePools.fresh()
    n = len(cases)
    best_relay = np.full((NUM_RELAY_TYPES, n), -1, np.int32)
    best_stitched = np.full((NUM_RELAY_TYPES, n), np.nan)
    feasible = np.zeros((NUM_RELAY_TYPES, n), np.int32)
    country_flags = np.zeros((NUM_RELAY_TYPES, 4, n), bool)
    indptr, relays, gains = [0], [], []
    for i, case in enumerate(cases):
        for code, relay_type in enumerate(RELAY_TYPE_ORDER):
            if relay_type in case.best_by_type:
                best_relay[code, i], best_stitched[code, i] = case.best_by_type[relay_type]
            feasible[code, i] = case.feasible_by_type.get(relay_type, 0)
            country_flags[code, :, i] = case.country_groups_by_type.get(relay_type, False)
            for relay, gain in case.improving_by_type.get(relay_type, ()):
                relays.append(relay)
                gains.append(gain)
            indptr.append(len(relays))

    def codes(pool, name: str) -> np.ndarray:
        return pool.codes(getattr(case, name) for case in cases)

    return ObservationTable(
        pools,
        round_idx=np.array([case.round_index for case in cases], np.int32),
        e1_id=codes(pools.endpoint_ids, "e1_id"),
        e2_id=codes(pools.endpoint_ids, "e2_id"),
        e1_cc=codes(pools.countries, "e1_cc"),
        e2_cc=codes(pools.countries, "e2_cc"),
        e1_city=codes(pools.cities, "e1_city"),
        e2_city=codes(pools.cities, "e2_city"),
        direct_rtt_ms=np.array([case.direct_rtt_ms for case in cases], float),
        best_relay=best_relay,
        best_stitched=best_stitched,
        feasible=feasible,
        country_flags=country_flags,
        imp_indptr=np.array(indptr, np.int64),
        imp_relay=np.array(relays, np.int32),
        imp_gain=np.array(gains, float),
    )
