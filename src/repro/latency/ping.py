"""Ping engine: batches of single-packet probes between endpoints.

The campaign workflow (Sec 2.5) sends 6 single-packet pings per pair per
30-minute window, 5 minutes apart, and summarises each batch by its median,
requiring at least 3 valid replies.  The engine implements the batch
semantics; the *policy* (how many batches, when) lives in the scheduler.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import MeasurementError
from repro.latency.model import Endpoint, LatencyModel
from repro.util.stats import median


@dataclass(frozen=True, slots=True)
class PingResult:
    """Outcome of a batch of pings between one pair of endpoints.

    Attributes:
        src_id: Pinging node id.
        dst_id: Target node id.
        rtts_ms: One entry per packet; None marks a lost packet.
    """

    src_id: str
    dst_id: str
    rtts_ms: tuple[float | None, ...]

    @property
    def valid_rtts(self) -> tuple[float, ...]:
        """The delivered packets' RTTs."""
        return tuple(r for r in self.rtts_ms if r is not None)

    @property
    def num_sent(self) -> int:
        """Packets sent."""
        return len(self.rtts_ms)

    @property
    def num_received(self) -> int:
        """Packets answered."""
        return len(self.valid_rtts)

    def median_rtt(self, min_valid: int = 3) -> float | None:
        """Median RTT of the batch, or None with fewer than ``min_valid``
        replies (the paper's ">= 3 valid RTTs per window" rule)."""
        valid = self.valid_rtts
        if len(valid) < min_valid:
            return None
        return median(valid)


class PingEngine:
    """Executes ping batches against a :class:`LatencyModel`."""

    def __init__(self, model: LatencyModel) -> None:
        self._model = model

    @property
    def model(self) -> LatencyModel:
        """The latency model answering the probes."""
        return self._model

    @staticmethod
    def _row_to_rtts(row: np.ndarray) -> tuple[float | None, ...]:
        return tuple(float(v) if v == v else None for v in row)

    def ping(
        self,
        src: Endpoint,
        dst: Endpoint,
        rng: np.random.Generator,
        count: int = 6,
    ) -> PingResult:
        """Send ``count`` single-packet pings from ``src`` to ``dst``.

        The batch's packets are sampled in vectorized RNG draws (see
        :meth:`LatencyModel.sample_rtt_batch`).

        Raises:
            MeasurementError: if ``count`` is not positive.
        """
        if count <= 0:
            raise MeasurementError(f"ping count must be positive, got {count}")
        row = self._model.sample_rtt_batch(src, dst, rng, count)
        return PingResult(
            src_id=src.node_id, dst_id=dst.node_id, rtts_ms=self._row_to_rtts(row)
        )

    def median_from_entries(
        self,
        base: np.ndarray,
        loss: np.ndarray,
        rng: np.random.Generator,
        count: int = 6,
        min_valid: int = 3,
    ) -> np.ndarray:
        """Batch medians for legs whose ``(base, loss)`` entries are given.

        Returns a ``(len(base),)`` float array: the batch median where at
        least ``min_valid`` of ``count`` packets were answered, NaN
        otherwise — the number :meth:`PingResult.median_rtt` gives for the
        same packets (:meth:`LatencyModel.sample_rtt_entries` draws them),
        computed vectorized.  The campaign gathers each leg's deterministic
        terms from a per-round :class:`~repro.latency.model.PairGrid` and
        hands them in, so no per-leg pair resolution runs at all.  This is
        the campaign's hot path.

        Raises:
            MeasurementError: if ``count`` is not positive.
        """
        if count <= 0:
            raise MeasurementError(f"ping count must be positive, got {count}")
        matrix = self._model.sample_rtt_entries(base, loss, rng, count)
        return self._batch_medians(matrix, min_valid)

    @staticmethod
    def _batch_medians(matrix: np.ndarray, min_valid: int) -> np.ndarray:
        valid = np.count_nonzero(~np.isnan(matrix), axis=1)
        # NaN sorts to the end, so row r's valid RTTs occupy the first
        # valid[r] sorted slots; gather the middle one(s) directly (much
        # faster than np.nanmedian's masked pass, identical values)
        ordered = np.sort(matrix, axis=1)
        rows = np.arange(matrix.shape[0])
        lo = ordered[rows, np.maximum(0, (valid - 1) // 2)]
        hi = ordered[rows, np.maximum(0, valid // 2)]
        return np.where(valid >= max(min_valid, 1), (lo + hi) / 2.0, np.nan)

    def is_responsive(
        self,
        src: Endpoint,
        dst: Endpoint,
        rng: np.random.Generator,
        count: int = 3,
    ) -> bool:
        """True if at least one of ``count`` probe packets is answered."""
        result = self.ping(src, dst, rng, count=count)
        return result.num_received > 0

    def any_response_many(
        self,
        legs: Sequence[tuple[Endpoint, Endpoint]],
        rng: np.random.Generator,
        count: int = 3,
    ) -> list[bool]:
        """Per leg: did at least one of ``count`` probe packets answer?

        The batched form of :meth:`is_responsive` — all legs' probes come
        out of one vectorized sampling pass, so a relay-liveness sweep
        costs a handful of RNG calls instead of one batch per candidate.

        Raises:
            MeasurementError: if ``count`` is not positive.
        """
        if count <= 0:
            raise MeasurementError(f"ping count must be positive, got {count}")
        matrix = self._model.sample_rtt_matrix(legs, rng, count)
        return np.any(~np.isnan(matrix), axis=1).tolist()
