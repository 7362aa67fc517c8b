"""Latency-improvement analysis (Fig. 2 and the in-text medians).

For every pair ("case") and relay type, the campaign recorded the
best-performing (minimum-latency) relay; this module turns those records
into the paper's headline statistics: the per-type fraction of improved
cases, the CDF of improvements for improved cases, median improvements,
the fraction of large (>100 ms) gains, and the median count of improving
relays per pair (the relay-redundancy observation).

All statistics are NumPy reductions over the campaign's columnar
:class:`~repro.core.table.ObservationTable` — the per-case maxima of all
four relay types come from one segment max over the CSR improving block,
and the masks and medians from the per-type columns, with the same values
(to the bit) the object-walking implementation produced.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import CampaignResult
from repro.core.table import ObservationTable
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import AnalysisError
from repro.util.stats import cdf_points


def _median_of_column(values: np.ndarray) -> float:
    """Median of a float64 column.

    ``np.median`` averages the middle two for even length exactly like
    :func:`repro.util.stats.median` ((a + b) / 2 in float64), so a
    column's median equals that helper's over the same values, bit for bit.
    """
    return float(np.median(values))


class ImprovementAnalysis:
    """Fig. 2-style improvement statistics over a campaign result.

    Construction takes every type's best gain per improved case from one
    ``maximum.reduceat`` over the table's non-empty CSR groups
    (:meth:`~repro.core.table.ObservationTable.best_gain_per_improved_case`)
    and attaches nothing to the table, so a pooled sweep table leaves the
    report as large as it entered.
    """

    def __init__(self, result: CampaignResult | ObservationTable) -> None:
        table = result if isinstance(result, ObservationTable) else result.table
        if table.num_cases == 0:
            raise AnalysisError("campaign result has no observations")
        self._table = table
        # per type: improvement of each improved case's best relay, in case
        # order (identical floats to the object walk's
        # ``max(gain for _, gain in entries)``)
        best = table.best_gain_per_improved_case()
        self._best_improvements: dict[RelayType, np.ndarray] = {
            relay_type: best[code][1] for code, relay_type in enumerate(RELAY_TYPE_ORDER)
        }

    @classmethod
    def from_table(cls, table: ObservationTable) -> ImprovementAnalysis:
        """Build directly from a columnar table (e.g. a sweep payload)."""
        return cls(table)

    @property
    def total_cases(self) -> int:
        """Total pair observations in the campaign."""
        return self._table.num_cases

    def improvements(self, relay_type: RelayType) -> list[float]:
        """Best-relay improvement for every *improved* case of the type."""
        return self._best_improvements[relay_type].tolist()

    def improved_fraction(self, relay_type: RelayType) -> float:
        """Fraction of total cases the type improved (paper: COR 76%,
        RAR_other 58%, PLR 43%, RAR_eye 35%)."""
        return self._best_improvements[relay_type].size / self.total_cases

    def median_improvement(self, relay_type: RelayType) -> float | None:
        """Median improvement among improved cases (paper: 12-14 ms)."""
        values = self._best_improvements[relay_type]
        if values.size == 0:
            return None
        return _median_of_column(values)

    def fraction_above(
        self, relay_type: RelayType, threshold_ms: float, of_total: bool = False
    ) -> float:
        """Fraction of improved (or total) cases gaining > ``threshold_ms``
        (paper: >100 ms in 6% of improved COR/RAR_other cases)."""
        values = self._best_improvements[relay_type]
        count = int(np.count_nonzero(values > threshold_ms))
        denominator = self.total_cases if of_total else max(1, values.size)
        return count / denominator

    def fig2_cdf(
        self, relay_type: RelayType, lo_ms: float = 1.0, hi_ms: float = 200.0
    ) -> list[tuple[float, float]]:
        """The Fig. 2 CDF: improvements clipped to [lo, hi] for display."""
        values = self._best_improvements[relay_type]
        kept = values[(values >= lo_ms) & (values <= hi_ms)]
        if kept.size == 0:
            return []
        return cdf_points(kept.tolist())

    def median_num_improving(self, relay_type: RelayType) -> float | None:
        """Median number of improving relays per improved pair
        (paper: 8 COR, 3 PLR, 2 RAR_other, 2 RAR_eye)."""
        code = RELAY_TYPE_ORDER.index(relay_type)
        counts = self._table.improving_counts()[code]
        counts = counts[counts > 0]
        if counts.size == 0:
            return None
        return _median_of_column(counts.astype(float))

    def best_type_gap_ms(self, a: RelayType, b: RelayType) -> float | None:
        """Median stitched-RTT gap between two types on cases both improve
        (paper: COR vs RAR_other within 5-10 ms)."""
        table = self._table
        code_a = RELAY_TYPE_ORDER.index(a)
        code_b = RELAY_TYPE_ORDER.index(b)
        rtt_a = table.best_stitched[code_a]
        rtt_b = table.best_stitched[code_b]
        mask = (
            table.improved_mask(code_a)
            & table.improved_mask(code_b)
            & ~np.isnan(rtt_a)
            & ~np.isnan(rtt_b)
        )
        if not mask.any():
            return None
        return _median_of_column(rtt_b[mask] - rtt_a[mask])

    def summary(self) -> dict[str, float | None]:
        """All headline improvement numbers keyed by metric name."""
        info: dict[str, float | None] = {}
        for relay_type in RELAY_TYPE_ORDER:
            name = relay_type.value
            info[f"improved_frac_{name}"] = round(self.improved_fraction(relay_type), 4)
            med = self.median_improvement(relay_type)
            info[f"median_improvement_ms_{name}"] = round(med, 2) if med is not None else None
            info[f"frac_gt100ms_of_improved_{name}"] = round(
                self.fraction_above(relay_type, 100.0), 4
            )
            info[f"median_num_improving_{name}"] = self.median_num_improving(relay_type)
        return info
