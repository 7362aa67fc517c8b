"""Submarine-cable proximity analysis (the paper's future-work item iii).

Hypothesis from the paper's conclusions: relayed-path latency correlates
with how close endpoints and relays sit to submarine cable landing points,
because intercontinental capacity funnels through them.  This analysis
splits a campaign's pairs by the endpoints' distance to their nearest
landing station and compares direct RTTs and relay benefit across the
split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.results import CampaignResult
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import AnalysisError
from repro.geo.cables import LandingPointIndex
from repro.geo.cities import city as city_of
from repro.util.stats import median


@dataclass(frozen=True, slots=True)
class CableProximityReport:
    """Outcome of the landing-point proximity split.

    Attributes:
        threshold_km: Distance defining "near" a landing point.
        near_pairs / far_pairs: Intercontinental pair counts per group
            (both endpoints near vs at least one far).
        near_direct_median_ms / far_direct_median_ms: Median direct RTTs.
        near_improved_rate / far_improved_rate: COR improvement rates.
    """

    threshold_km: float
    near_pairs: int
    far_pairs: int
    near_direct_median_ms: float
    far_direct_median_ms: float
    near_improved_rate: float
    far_improved_rate: float


class CableProximityAnalysis:
    """Landing-point proximity effects over a campaign result."""

    def __init__(self, result: CampaignResult, threshold_km: float = 500.0) -> None:
        if result.total_cases == 0:
            raise AnalysisError("campaign result has no observations")
        if threshold_km <= 0:
            raise AnalysisError("threshold_km must be positive")
        self._result = result
        self._threshold = threshold_km
        self._index = LandingPointIndex()

    def report(self, relay_type: RelayType = RelayType.COR) -> CableProximityReport:
        """Split intercontinental pairs by landing-point proximity.

        Raises:
            AnalysisError: if either group ends up empty (tiny campaigns).
        """
        table = self._result.table
        continents = table.continent_codes()
        # cable proximity only matters across oceans
        inter = continents[table.e1_cc] != continents[table.e2_cc]
        city_near = np.array([
            self._index.distance_km(city_of(key).location) <= self._threshold
            for key in table.pools.cities.values
        ], dtype=bool)
        both_near = city_near[table.e1_city] & city_near[table.e2_city]
        near = inter & both_near
        far = inter & ~both_near
        near_pairs = int(np.count_nonzero(near))
        far_pairs = int(np.count_nonzero(far))
        if not near_pairs or not far_pairs:
            raise AnalysisError(
                "not enough intercontinental pairs on both sides of the "
                f"{self._threshold} km threshold"
            )
        improved = table.improved_mask(RELAY_TYPE_ORDER.index(relay_type))
        return CableProximityReport(
            threshold_km=self._threshold,
            near_pairs=near_pairs,
            far_pairs=far_pairs,
            near_direct_median_ms=median(table.direct_rtt_ms[near].tolist()),
            far_direct_median_ms=median(table.direct_rtt_ms[far].tolist()),
            near_improved_rate=int(np.count_nonzero(improved & near)) / near_pairs,
            far_improved_rate=int(np.count_nonzero(improved & far)) / far_pairs,
        )
