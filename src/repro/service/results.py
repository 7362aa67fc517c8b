"""Typed result objects of the serving layer.

The service's query surface returns three shapes, each matched to its
call volume:

* :class:`RouteBatch` — the zero-copy answer of :meth:`route_many`:
  plain ``(n, k)`` NumPy arrays, because the batched path is the hot
  path and must never materialize per-query objects;
* :class:`RouteAnswer` — one scalar :meth:`route` decision, a frozen
  dataclass callers can log or assert on field by field;
* :class:`ServiceStats` — one replay's summary (throughput, tier mix,
  degradation counters), attribute-typed but with a read-only mapping
  bridge so JSON-minded callers can keep indexing it like the dict it
  used to be.

:class:`DegradationCounters` is the churn-awareness telemetry the
service accumulates (see :mod:`repro.service.service`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.core.types import RelayType
from repro.service.directory import TIER_NAMES


@dataclass(frozen=True, slots=True)
class RouteBatch:
    """Answers for one :meth:`ShortcutService.route_many` call.

    Attributes:
        relay_ids: ``(n, k) int32`` ranked relay registry indices, -1
            padded past a lane's candidate count.
        reduction_ms: ``(n, k) float64`` expected RTT reduction per
            candidate (mean observed improvement), NaN padded.
        tier: ``(n,) int8`` tier each query resolved through (index into
            :data:`~repro.service.directory.TIER_NAMES`).
    """

    relay_ids: np.ndarray
    reduction_ms: np.ndarray
    tier: np.ndarray

    def __len__(self) -> int:
        return self.tier.shape[0]

    @property
    def best_relay(self) -> np.ndarray:
        """``(n,) int32`` top-ranked relay per query (-1 = direct path)."""
        return self.relay_ids[:, 0]

    def tier_counts(self) -> dict[str, int]:
        """Queries answered per tier, keyed by tier name."""
        return {
            name: int(np.count_nonzero(self.tier == code))
            for code, name in enumerate(TIER_NAMES)
        }

    def relay_answer_fraction(self) -> float:
        """Fraction of queries that got a relay (resolved above direct)."""
        if len(self) == 0:
            return 0.0
        return 1.0 - int(np.count_nonzero(self.relay_ids[:, 0] < 0)) / len(self)


@dataclass(frozen=True, slots=True)
class RouteAnswer:
    """One scalar routing decision (see :meth:`ShortcutService.route`).

    Attributes:
        src_id / dst_id: The queried endpoint ids.
        relay_type: Relay lane the query ran against.
        relay_ids: Ranked candidate relays (may be empty: keep direct).
        reduction_ms: Expected RTT reduction per candidate, aligned with
            ``relay_ids``.
        tier: ``"pair"``, ``"country"`` or ``"direct"``.
    """

    src_id: str
    dst_id: str
    relay_type: RelayType
    relay_ids: tuple[int, ...]
    reduction_ms: tuple[float, ...]
    tier: str

    @property
    def relay_id(self) -> int | None:
        """The top-ranked relay, or None for the direct path."""
        return self.relay_ids[0] if self.relay_ids else None

    @property
    def expected_reduction_ms(self) -> float | None:
        """Expected gain of the top-ranked relay, or None for direct."""
        return self.reduction_ms[0] if self.reduction_ms else None

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view of the decision."""
        return {
            "src_id": self.src_id,
            "dst_id": self.dst_id,
            "relay_type": self.relay_type.value,
            "relay_ids": list(self.relay_ids),
            "reduction_ms": list(self.reduction_ms),
            "tier": self.tier,
        }


@dataclass(slots=True)
class DegradationCounters:
    """Cumulative graceful-degradation telemetry of one service.

    Attributes:
        queries: Queries routed since construction (health path only).
        stale_top_answers: Queries whose top-ranked candidate was dead
            and was replaced by the next-ranked live relay (the spill).
        candidates_evicted: Dead candidate entries demoted out of
            answers, summed over all ranks.
        unanswerable: Queries whose lane had history but no live
            candidate left — structurally downgraded to the direct tier.
        fallback_country: Queries answered from the country tier.
        direct: Queries that left with the direct verdict (no history,
            same endpoint, or unanswerable after health filtering).
    """

    queries: int = 0
    stale_top_answers: int = 0
    candidates_evicted: int = 0
    unanswerable: int = 0
    fallback_country: int = 0
    direct: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "stale_top_answers": self.stale_top_answers,
            "candidates_evicted": self.candidates_evicted,
            "unanswerable": self.unanswerable,
            "fallback_country": self.fallback_country,
            "direct": self.direct,
        }


@dataclass(frozen=True, slots=True)
class ServiceStats:
    """One replay's summary (see :func:`repro.service.loadgen.replay`).

    Attribute-typed, with a read-only mapping bridge (``stats["key"]``,
    ``"key" in stats``, ``dict(stats)``) over :meth:`as_dict` so callers
    that treated the old replay dict as JSON keep working.

    Attributes:
        queries: Queries replayed.
        batch_size: Queries per ``route_many`` call.
        batches: Number of ``route_many`` calls.
        k: Relay candidates requested per query.
        relay_type: Relay lane queried (the type's string value).
        zipf_exponent: Popularity skew of the synthesized stream.
        seed: Root seed of the stream synthesis.
        wall_clock_s: Wall-clock time of the timed replay loop.
        queries_per_s: Sustained throughput (None on empty streams).
        tier_counts: Queries answered per tier, keyed by tier name.
        relay_answer_frac: Fraction of queries that got a relay.
        answers_digest: BLAKE2 digest of every answer (relay ids +
            tiers) for exact cross-run comparison.
        degradation: Degradation-counter dict when churn awareness was
            on (None otherwise).
    """

    queries: int
    batch_size: int
    batches: int
    k: int
    relay_type: str
    zipf_exponent: float
    seed: int
    wall_clock_s: float
    queries_per_s: int | None
    tier_counts: dict[str, int]
    relay_answer_frac: float | None
    answers_digest: str
    degradation: dict[str, int] | None = None

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view (the old replay-dict shape plus new fields)."""
        out: dict[str, Any] = {
            "queries": self.queries,
            "batch_size": self.batch_size,
            "batches": self.batches,
            "k": self.k,
            "relay_type": self.relay_type,
            "zipf_exponent": self.zipf_exponent,
            "seed": self.seed,
            "wall_clock_s": self.wall_clock_s,
            "queries_per_s": self.queries_per_s,
            "tier_counts": dict(self.tier_counts),
            "relay_answer_frac": self.relay_answer_frac,
            "answers_digest": self.answers_digest,
        }
        if self.degradation is not None:
            out["degradation"] = dict(self.degradation)
        return out

    # ------------------------------------------------- mapping bridge
    def __getitem__(self, key: str) -> Any:
        return self.as_dict()[key]

    def __contains__(self, key: object) -> bool:
        return key in self.as_dict()

    def __iter__(self) -> Iterator[str]:
        return iter(self.as_dict())

    def keys(self):
        return self.as_dict().keys()

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default
