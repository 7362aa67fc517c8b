"""History-based relay prediction (VIA-style baseline).

VIA (Jiang et al., SIGCOMM 2016) improves call quality by picking relays
from *history*: even when prediction misses the optimal relay, the optimal
one is usually among the top few predicted.  The paper cites this as the
practical way a real overlay would use its measurements, so we provide the
baseline: rank relays per endpoint-country-pair by how often they improved
that pair in past rounds, predict the top-k for the next round, and score
the prediction against that round's oracle-best relay.

:class:`LaneHistory` / :func:`evaluate_prediction` accumulate and rank
history as NumPy reductions over
:class:`~repro.core.table.ObservationTable` columns: country pairs are
packed into int64 *lane* keys and per-lane relay counts are ranked
``(-count, relay)`` by one stable sort.  The serving layer
(:mod:`repro.service`) compiles its relay directory through the same
kernels (:func:`rank_lane_entries`, :func:`csr_top_k`), so service
rankings and predictor rankings cannot drift apart.  Frozen digests of
both outputs live in ``tests/test_golden.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.results import CampaignResult
from repro.core.table import ObservationTable
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class PredictionScore:
    """Outcome of evaluating history-based prediction on one round.

    Attributes:
        evaluated: Pairs with both history and an improving relay in the
            evaluation round.
        hit_at_k: Pairs where the oracle-best relay was among the top-k
            predictions.
        captured_gain_frac: Fraction of the oracle-achievable improvement
            captured by the best *predicted* relay, averaged over pairs.
    """

    evaluated: int
    hit_at_k: int
    captured_gain_frac: float

    @property
    def hit_rate(self) -> float:
        """Fraction of evaluated pairs where prediction contained the
        oracle-best relay."""
        if self.evaluated == 0:
            return 0.0
        return self.hit_at_k / self.evaluated


class LaneHistory:
    """Columnar relay history: per country-pair *lane*, relays ranked by
    how often they improved the lane.

    Built in three NumPy passes over a table's CSR improving block (filter,
    group-count, rank).  Lanes are canonical unordered country pairs and
    relays within a lane rank ``(-count, relay index)``: most frequent
    improver first, ties to the lower registry index.

    Attributes:
        lane_keys: ``(L,) int64`` sorted canonical country-pair keys
            (:meth:`ObservationTable.pack_pairs` over ``e1_cc``/``e2_cc``).
        indptr: ``(L+1,) int64`` CSR pointer into the ranked arrays.
        relays: ``(E,) int32`` relay registry indices, ranked per lane.
        counts: ``(E,) int32`` improvement count behind each ranked entry.
    """

    __slots__ = ("lane_keys", "indptr", "relays", "counts", "_pools")

    def __init__(
        self,
        lane_keys: np.ndarray,
        indptr: np.ndarray,
        relays: np.ndarray,
        counts: np.ndarray,
        pools=None,
    ) -> None:
        self.lane_keys = lane_keys
        self.indptr = indptr
        self.relays = relays
        self.counts = counts
        self._pools = pools

    @classmethod
    def from_table(
        cls,
        table: ObservationTable,
        relay_type: RelayType = RelayType.COR,
        case_mask: np.ndarray | None = None,
    ) -> LaneHistory:
        """Accumulate history from a table's improving entries.

        ``case_mask`` restricts which cases feed the history (the training
        rounds of an evaluation, or one round of an incremental ingest).
        """
        code = RELAY_TYPE_ORDER.index(relay_type)
        cases, relays, _ = table.type_entries(code)
        if case_mask is not None and cases.size:
            keep = case_mask[cases]
            cases, relays = cases[keep], relays[keep]
        if cases.size == 0:
            return cls(
                np.zeros(0, np.int64),
                np.zeros(1, np.int64),
                np.zeros(0, np.int32),
                np.zeros(0, np.int32),
                table.pools,
            )
        lanes = table.cc_pair_keys()[cases]
        lane_keys, indptr, ranked_relays, ranked_counts = rank_lane_entries(
            lanes, relays
        )
        return cls(lane_keys, indptr, ranked_relays, ranked_counts, table.pools)

    @property
    def num_lanes(self) -> int:
        """Number of country pairs with any history."""
        return self.lane_keys.shape[0]

    def lane_index(self, keys: np.ndarray) -> np.ndarray:
        """Per query key: the lane's row, or -1 when the lane is unknown."""
        if self.lane_keys.size == 0:
            return np.full(len(keys), -1, np.intp)
        pos = np.minimum(np.searchsorted(self.lane_keys, keys), self.lane_keys.size - 1)
        return np.where(self.lane_keys[pos] == keys, pos, -1)

    def top_k(self, lane_idx: np.ndarray, k: int) -> np.ndarray:
        """``(m, k) int32`` top-k ranked relays per lane row, -1 padded.

        Rows with ``lane_idx == -1`` (no history) are all -1.
        """
        return csr_top_k(self.indptr, lane_idx, k, (self.relays,), (-1,))[0]

    def predict_ccs(self, cc1: str, cc2: str, k: int = 3) -> list[int]:
        """Top-k relays for a country pair given as strings.

        The scalar convenience over :meth:`lane_index` / :meth:`top_k`;
        unknown countries (or lanes with no history) predict empty.

        Raises:
            AnalysisError: if ``k`` is not positive.
        """
        if self._pools is None:
            raise AnalysisError("history was built without pools")
        if k < 1:
            raise AnalysisError(f"k must be >= 1, got {k}")
        a = self._pools.countries.lookup(cc1)
        b = self._pools.countries.lookup(cc2)
        if a < 0 or b < 0:
            return []
        key = np.asarray([(min(a, b) << 32) | max(a, b)], np.int64)
        row = self.top_k(self.lane_index(key), k)[0]
        return [int(r) for r in row if r >= 0]


def rank_lane_entries(
    lanes: np.ndarray,
    relays: np.ndarray,
    counts: np.ndarray | None = None,
    gains: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """Group ``(lane, relay)`` rows and rank relays per lane.

    Returns ``(lane_keys, indptr, ranked_relays, ranked_counts[,
    ranked_gain_sums])`` — lanes sorted ascending, relays within a lane
    ordered by ``(-count, relay)``.  ``counts`` defaults to one
    per row (occurrence counting); when ``gains`` is given, per-group gain
    sums are reduced alongside, in the rows' stable order (what makes the
    service's incremental recompiles bit-identical to full ones).  The
    shared kernel of every columnar history consumer: evaluation here,
    lane-block compilation in :mod:`repro.service.directory`.

    Rows must be non-empty and fewer than 2**31; relay ids and summed
    counts must fit in int32.  Grouping sorts ``lane code * relay span +
    relay offset`` and ranking sorts ``lane code * count span + (max
    count - count)``; lane codes are dense (below 2**31) and each span is
    at most 2**32, so neither int64 key overflows.  Both sorts are stable:
    unique pairs come out relay-ascending within their lane, and ranking
    keeps that order on count ties.
    """
    lane_keys, lane_code = np.unique(lanes, return_inverse=True)
    relays = relays.astype(np.int64)
    low = relays.min()
    relay_span = relays.max() - low + 1
    key = lane_code.astype(np.int64) * relay_span + (relays - low)
    order = np.argsort(key, kind="stable")  # stable: preserves row order
    key_s = key[order]
    starts = np.flatnonzero(np.diff(key_s, prepend=-1))
    uniq_lane, uniq_relay = np.divmod(key_s[starts], relay_span)
    if counts is None:
        total_count = np.diff(np.append(starts, key_s.size))
    else:
        total_count = np.add.reduceat(counts[order], starts).astype(np.int64)
    top = total_count.max()
    count_span = top - total_count.min() + 1
    rank = np.argsort(uniq_lane * count_span + (top - total_count), kind="stable")
    indptr = np.zeros(lane_keys.size + 1, np.int64)
    np.cumsum(np.bincount(uniq_lane, minlength=lane_keys.size), out=indptr[1:])
    out = (
        lane_keys,
        indptr,
        (uniq_relay[rank] + low).astype(np.int32),
        total_count[rank].astype(np.int32),
    )
    if gains is None:
        return out
    return out + (np.add.reduceat(gains[order], starts)[rank],)


def csr_top_k(
    indptr: np.ndarray,
    lane_rows: np.ndarray,
    k: int,
    columns: tuple[np.ndarray, ...],
    fills: tuple,
) -> tuple[np.ndarray, ...]:
    """First ``k`` entries of each lane row from parallel CSR columns.

    Returns one ``(m, k)`` array per entry column, padded with the
    corresponding fill value past a lane's entry count; rows with
    ``lane_rows == -1`` are entirely padding.  Shared by
    :meth:`LaneHistory.top_k` and the service's ``LaneBlock.top_k``.

    Raises:
        AnalysisError: if ``k`` is not positive.
    """
    if k < 1:
        raise AnalysisError(f"k must be >= 1, got {k}")
    m = lane_rows.shape[0]
    out = tuple(
        np.full((m, k), fill, col.dtype) for col, fill in zip(columns, fills)
    )
    if m == 0 or int(indptr[-1]) == 0:
        return out
    safe = np.maximum(lane_rows, 0)
    starts = indptr[safe]
    lengths = np.where(lane_rows >= 0, indptr[safe + 1] - starts, 0)
    offsets = np.arange(k)[np.newaxis, :]
    take = offsets < lengths[:, np.newaxis]
    idx = starts[:, np.newaxis] + np.where(take, offsets, 0)
    for col, dst in zip(columns, out):
        dst[take] = col[idx][take]
    return out


def _first_max_per_segment(
    starts: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per CSR segment: (position of the first maximal value, the max).

    Mirrors ``max(d, key=d.get)`` over an insertion-ordered dict: ties keep
    the earliest entry.
    """
    seg_max = np.maximum.reduceat(values, starts)
    seg_len = np.diff(np.append(starts, values.size))
    pos = np.arange(values.size) - np.repeat(starts, seg_len)
    cand = np.where(values == np.repeat(seg_max, seg_len), pos, values.size)
    first = np.minimum.reduceat(cand, starts)
    return starts + first, seg_max


def evaluate_prediction(
    result: CampaignResult,
    relay_type: RelayType = RelayType.COR,
    k: int = 3,
) -> PredictionScore:
    """Train on all rounds but the last; evaluate on the last round.

    History comes from :class:`LaneHistory`; the evaluation round is
    reduced segment-wise (oracle = first max-gain entry per case, predicted
    gain via one packed ``(case, relay)`` searchsorted).  A pair counts as
    evaluated when its lane has history and it has an improving relay in
    the last round.  ``captured_gain_frac`` sums the per-pair ratios
    sequentially in case order, so it is reproducible to the bit.

    Raises:
        AnalysisError: with fewer than 2 rounds, or non-positive ``k``.
    """
    if len(result.rounds) < 2:
        raise AnalysisError("prediction evaluation needs >= 2 rounds")
    if k < 1:
        raise AnalysisError(f"k must be >= 1, got {k}")
    table = result.table
    code = RELAY_TYPE_ORDER.index(relay_type)
    last_round = result.rounds[-1].round_index
    train_rounds = np.asarray(
        sorted({r.round_index for r in result.rounds[:-1]}), np.int64
    )
    train_mask = np.isin(table.round_idx, train_rounds)
    history = LaneHistory.from_table(table, relay_type, case_mask=train_mask)

    eval_mask = table.round_mask(last_round)
    cases, relays, gains = table.type_entries(code)
    if cases.size:
        keep = eval_mask[cases]
        cases, relays, gains = cases[keep], relays[keep], gains[keep]
    if cases.size == 0:
        return PredictionScore(evaluated=0, hit_at_k=0, captured_gain_frac=0.0)

    starts = np.flatnonzero(np.diff(cases, prepend=-1))
    ecases = cases[starts]
    lane_idx = history.lane_index(table.cc_pair_keys()[ecases])
    has_hist = lane_idx >= 0
    evaluated = int(np.count_nonzero(has_hist))
    if evaluated == 0:
        return PredictionScore(evaluated=0, hit_at_k=0, captured_gain_frac=0.0)

    oracle_at, oracle_gain = _first_max_per_segment(starts, gains)
    oracle_relay = relays[oracle_at]
    predicted = history.top_k(lane_idx, k)
    hits = np.any(predicted == oracle_relay[:, np.newaxis], axis=1) & has_hist

    # gains.get(relay, 0.0) for every (evaluated case, predicted relay):
    # one searchsorted over the packed (case << 32 | relay) entry keys
    pkey = (cases.astype(np.int64) << 32) | relays.astype(np.int64)
    order = np.argsort(pkey, kind="stable")
    pkey_s, gain_s = pkey[order], gains[order]
    flat_pred = predicted.reshape(-1)
    query = (
        np.repeat(ecases.astype(np.int64), k) << 32
    ) | np.maximum(flat_pred, 0).astype(np.int64)
    pos = np.minimum(np.searchsorted(pkey_s, query), pkey_s.size - 1)
    found = (pkey_s[pos] == query) & (flat_pred >= 0)
    pred_gain = np.where(found, gain_s[pos], 0.0).reshape(-1, k).max(axis=1)

    ratios = (pred_gain / oracle_gain)[has_hist]
    captured = float(sum(ratios.tolist()))  # sequential, in case order
    return PredictionScore(
        evaluated=evaluated,
        hit_at_k=int(np.count_nonzero(hits)),
        captured_gain_frac=captured / evaluated,
    )
