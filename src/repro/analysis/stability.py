"""Temporal stability (Sec 3, last analysis).

Two results: (i) per-round improvement fractions stay consistent across
the campaign (COR >75%, RAR_other >50%, PLR/RAR_eye <50% in the paper's
every round), and (ii) per-pair RTT medians are stable over time — the
coefficient of variation across rounds is below 10% for 90% of pairs,
"indicating stable, usable overlays".  The medians arrive as each round's
:class:`~repro.core.results.MedianColumns`, so the CVs are grouped on
integer keys without building a per-pair Python object.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.results import CampaignResult, MedianColumns
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import AnalysisError


def series_cvs(rounds: Sequence[MedianColumns], min_occurrences: int) -> list[float]:
    """Coefficient of variation of each ``(a, b)`` key's medians across ``rounds``.

    ``rounds`` holds one :class:`MedianColumns` per round, each key at most
    once; a key seen in fewer than ``min_occurrences`` (at least 2) rounds
    is skipped.  Each CV is :func:`~repro.util.stats.coefficient_of_variation`
    of the key's medians in round order, computed for all keys at once:
    keys are listed in order of first appearance, sums run left to right
    like Python's ``sum``, and squares call ``pow`` like ``** 2``.

    Raises:
        AnalysisError: if a kept key's values have a zero mean.
    """
    def joined(name: str, dtype) -> np.ndarray:
        parts = [np.empty(0, dtype)] + [getattr(r, name) for r in rounds]
        return np.concatenate(parts, dtype=dtype)

    # one int64 per (a, b) key; a stable sort groups each key's values in
    # round order, and the groups are then listed by first appearance
    keys = (joined("a", np.int64) << 32) | (joined("b", np.int64) & 0xFFFFFFFF)
    order = np.argsort(keys, kind="stable")
    keys, grouped = keys[order], joined("ms", np.float64)[order]
    new_key = np.ones(len(keys), bool)
    new_key[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new_key)
    counts = np.diff(starts, append=len(keys))
    by_first = np.argsort(order[starts])
    counts, starts = counts[by_first], starts[by_first]
    keep = counts >= min_occurrences
    counts, starts = counts[keep], starts[keep]
    # one row per kept key: its values in round order, zero-padded
    live = np.arange(counts.max(initial=0)) < counts[:, None]
    offsets = np.where(live, starts[:, None] + np.arange(live.shape[1]), 0)
    rows = np.where(live, grouped[offsets], 0.0)

    def row_sums(matrix: np.ndarray) -> np.ndarray:
        total = np.zeros(len(matrix))
        for column in matrix.T:
            total += column
        return total

    mean = row_sums(rows) / counts
    if np.any(mean == 0.0):
        raise AnalysisError("coefficient_of_variation() undefined for zero mean")
    squares = np.where(live, np.float_power(rows - mean[:, None], 2.0), 0.0)
    return (np.sqrt(row_sums(squares) / counts) / np.abs(mean)).tolist()


class StabilityAnalysis:
    """CV-over-time and per-round consistency of a campaign result.

    A direct pair's series is its rounds' ``direct_medians`` entries and an
    (endpoint, relay) leg's its ``relay_medians`` entries, keyed by
    endpoint code and by endpoint code or registry index.
    """

    def __init__(self, result: CampaignResult, min_occurrences: int = 3) -> None:
        if len(result.rounds) < 2:
            raise AnalysisError("stability analysis needs at least 2 rounds")
        if min_occurrences < 2:
            raise AnalysisError("min_occurrences must be >= 2")
        self._result = result
        self._min_occ = min_occurrences

    # -------------------------------------------------------------- CV side

    def direct_pair_cvs(self) -> list[float]:
        """CV of each recurring direct pair's per-round medians."""
        return series_cvs([rnd.direct_medians for rnd in self._result.rounds], self._min_occ)

    def relay_pair_cvs(self) -> list[float]:
        """CV of each recurring (endpoint, relay) leg's medians.

        Raises:
            AnalysisError: if the campaign did not record relay medians.
        """
        medians = [rnd.relay_medians for rnd in self._result.rounds]
        if any(m is None for m in medians):
            raise AnalysisError("campaign was configured with record_relay_medians=False")
        return series_cvs(medians, self._min_occ)

    def all_cvs(self, include_relay_legs: bool = True) -> list[float]:
        """CVs of all recurring pairs (direct plus, optionally, legs)."""
        cvs = self.direct_pair_cvs()
        if include_relay_legs:
            cvs.extend(self.relay_pair_cvs())
        return cvs

    def fraction_below(self, cv_threshold: float = 0.10) -> float:
        """Fraction of recurring pairs with CV under the threshold
        (paper: <10% CV for 90% of pairs).

        Raises:
            AnalysisError: if no pair recurred often enough.
        """
        cvs = self.all_cvs(include_relay_legs=self._result.rounds[0].relay_medians is not None)
        if not cvs:
            raise AnalysisError(
                f"no pair was measured in >= {self._min_occ} rounds; "
                "run more rounds or lower min_occurrences"
            )
        return sum(1 for cv in cvs if cv < cv_threshold) / len(cvs)

    # ------------------------------------------------------- per-round side

    def per_round_improved_fractions(
        self, relay_type: RelayType
    ) -> list[tuple[int, float]]:
        """(round, improved fraction of the round's cases) series.

        Served from each round table's cached improving counts — one
        comparison per round instead of an object walk.
        """
        code = RELAY_TYPE_ORDER.index(relay_type)
        out = []
        for rnd in self._result.rounds:
            if rnd.table.num_cases == 0:
                continue
            out.append(
                (rnd.round_index, rnd.table.improved_count(code) / rnd.table.num_cases)
            )
        return out

    def summary(self) -> dict[str, float]:
        """CV headline plus per-type min/max round fractions."""
        info: dict[str, float] = {}
        cvs = self.all_cvs(
            include_relay_legs=self._result.rounds[0].relay_medians is not None
        )
        if cvs:
            values = np.asarray(cvs)
            info["num_recurring_pairs"] = float(len(cvs))
            info["frac_cv_below_10pct"] = round(
                int(np.count_nonzero(values < 0.10)) / len(cvs), 4
            )
            info["max_cv"] = round(float(values.max()), 4)
        for relay_type in RELAY_TYPE_ORDER:
            series = [f for _, f in self.per_round_improved_fractions(relay_type)]
            if series:
                info[f"round_min_frac_{relay_type.value}"] = round(min(series), 4)
                info[f"round_max_frac_{relay_type.value}"] = round(max(series), 4)
        return info
