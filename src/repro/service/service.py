"""The shortcut service: batched online relay selection.

:class:`ShortcutService` is the query front-end over a
:class:`~repro.service.directory.RelayDirectory` — what a Skype/Hola-style
overlay (the paper's motivating application) would run next to its call
setup path.  The serving contract:

* :meth:`route_many` answers a whole query batch (parallel src/dst
  endpoint-code arrays) in a handful of NumPy passes;
* :meth:`route` is the scalar convenience for one call setup, implemented
  *on top of* the batched path so the two can never diverge (asserted in
  the tests);
* :meth:`ingest_round` folds a freshly measured round in incrementally;
* :meth:`save` / :meth:`from_snapshot` snapshot the service for operator
  restarts.

Construct a service over a compiled directory with
``ShortcutService(directory)``, or compile one with the classmethods —
:meth:`from_campaign`, :meth:`from_table`, :meth:`from_snapshot`,
:meth:`empty` — all sharing the same keyword-only tuning knobs (``k``,
``max_rounds``, ``liveness_rounds``, ``spill``).
:func:`cross_world_service` pools several world seeds' campaigns behind
one service via relay-identity unification.

Answers are deterministic: the same directory state returns the same
relays for the same queries, batched or scalar, before or after a
snapshot round-trip.

Churn awareness is opt-in via ``liveness_rounds``: the service then
treats relays unseen in the newest ``liveness_rounds`` ingested rounds as
dead, over-fetches each lane by ``spill`` candidates, demotes dead
candidates to the end of the answer (bounded retry: the next-ranked live
relay takes their place) and falls back to the direct tier when a lane
has no live candidate left.  Degradation is observable through
:class:`DegradationCounters` (stale top answers, candidates evicted,
fallback-tier hits, unanswerable queries).  With ``liveness_rounds=None``
(the default) the health path is never entered and answers are
byte-identical to a health-unaware service.
"""

from __future__ import annotations

from typing import IO, Any

import numpy as np

from repro import obs
from repro.core.results import (
    CampaignResult,
    RelayRegistry,
    RoundResult,
    pool_worlds,
)
from repro.core.table import ObservationTable
from repro.core.types import RelayType
from repro.errors import ServiceError
from repro.service.directory import (
    TIER_COUNTRY,
    TIER_DIRECT,
    TIER_NAMES,
    RelayDirectory,
)
from repro.service.results import DegradationCounters, RouteAnswer, RouteBatch

__all__ = [
    "DegradationCounters",
    "RouteAnswer",
    "RouteBatch",
    "ShortcutService",
    "cross_world_service",
]


class ShortcutService:
    """Online relay selection over a compiled :class:`RelayDirectory`.

    Wraps a compiled directory directly or is built via the ``from_*``
    classmethods; every constructor shares the keyword-only tuning knobs:

    * ``k`` — default relay candidates per query when ``route`` /
      ``route_many`` are called without an explicit ``k``;
    * ``max_rounds`` — the directory's retention window (staleness TTL);
    * ``liveness_rounds`` — enables churn awareness (see the module
      docstring);
    * ``spill`` — how many extra candidates each lookup over-fetches so
      dead relays can be replaced without a second pass.
    """

    def __init__(
        self,
        directory: RelayDirectory,
        *,
        k: int = 3,
        liveness_rounds: int | None = None,
        spill: int = 2,
    ) -> None:
        """Wrap an already-compiled directory."""
        if k < 1:
            raise ServiceError(f"k must be >= 1, got {k}")
        if liveness_rounds is not None and liveness_rounds < 1:
            raise ServiceError(
                f"liveness_rounds must be >= 1, got {liveness_rounds}"
            )
        if spill < 0:
            raise ServiceError(f"spill must be >= 0, got {spill}")
        self._directory = directory
        self._default_k = k
        self._liveness_rounds = liveness_rounds
        self._spill = spill
        self.counters = DegradationCounters()
        self._dead: np.ndarray | None = None
        # observability handles are bound once here so the hot path pays a
        # single attribute load (and nothing at all when obs is disabled)
        self._obs_on = obs.metrics_on()
        self._sp_route = obs.span("service.route_many")
        self._c_queries = obs.counter("service.queries")
        self._c_batches = obs.counter("service.batches")
        self._c_tiers = tuple(
            obs.counter(f"service.answers.{name}") for name in TIER_NAMES
        )
        self._refresh_health()

    def _refresh_health(self) -> None:
        if self._liveness_rounds is not None:
            self._dead = self._directory.stale_relay_mask(self._liveness_rounds)

    @property
    def directory(self) -> RelayDirectory:
        """The underlying compiled directory."""
        return self._directory

    # ------------------------------------------------------------ construction

    @classmethod
    def empty(
        cls,
        *,
        max_rounds: int | None = None,
        k: int = 3,
        liveness_rounds: int | None = None,
        spill: int = 2,
    ) -> ShortcutService:
        """A service with no history yet; feed it via :meth:`ingest_round`."""
        return cls(
            RelayDirectory(max_rounds=max_rounds),
            k=k,
            liveness_rounds=liveness_rounds,
            spill=spill,
        )

    @classmethod
    def from_campaign(
        cls,
        result: CampaignResult,
        *,
        rounds=None,
        max_rounds: int | None = None,
        k: int = 3,
        liveness_rounds: int | None = None,
        spill: int = 2,
    ) -> ShortcutService:
        """Compile a service from a campaign result.

        ``rounds`` restricts ingestion to a subset of the result's rounds
        (e.g. everything but the round being predicted).
        """
        return cls(
            RelayDirectory.from_result(result, max_rounds, rounds),
            k=k,
            liveness_rounds=liveness_rounds,
            spill=spill,
        )

    @classmethod
    def from_table(
        cls,
        table: ObservationTable,
        max_rounds: int | None = None,
        *,
        k: int = 3,
        liveness_rounds: int | None = None,
        spill: int = 2,
    ) -> ShortcutService:
        """Compile a service from a concatenated campaign/sweep table."""
        return cls(
            RelayDirectory.from_table(table, max_rounds),
            k=k,
            liveness_rounds=liveness_rounds,
            spill=spill,
        )

    @classmethod
    def from_snapshot(
        cls,
        file: str | IO[bytes],
        *,
        k: int = 3,
        liveness_rounds: int | None = None,
        spill: int = 2,
    ) -> ShortcutService:
        """Restore a service from a :meth:`save` snapshot.

        Health telemetry (relay last-seen rounds) restores with the
        snapshot; the counters are runtime state and start at zero.
        """
        return cls(
            RelayDirectory.load(file),
            k=k,
            liveness_rounds=liveness_rounds,
            spill=spill,
        )

    @classmethod
    def load(
        cls,
        file: str | IO[bytes],
        *,
        liveness_rounds: int | None = None,
        spill: int = 2,
    ) -> ShortcutService:
        """Legacy spelling of :meth:`from_snapshot`."""
        return cls.from_snapshot(
            file, liveness_rounds=liveness_rounds, spill=spill
        )

    def ingest_round(
        self,
        source: RoundResult | ObservationTable,
        round_id: int | None = None,
    ) -> dict[str, int]:
        """Fold one new measurement round in (see
        :meth:`RelayDirectory.ingest_round`); refreshes relay health."""
        stats = self._directory.ingest_round(source, round_id)
        self._refresh_health()
        return stats

    # ---------------------------------------------------------------- queries

    def encode_endpoints(self, endpoint_ids) -> np.ndarray:
        """Directory codes for endpoint ids (-1 = never observed)."""
        return self._directory.encode_endpoints(endpoint_ids)

    def route_many(
        self,
        src_codes: np.ndarray,
        dst_codes: np.ndarray,
        relay_type: RelayType = RelayType.COR,
        k: int | None = None,
    ) -> RouteBatch:
        """Relay choices for a whole query batch.

        ``src_codes`` / ``dst_codes`` are parallel directory endpoint-code
        arrays (:meth:`encode_endpoints`).  Each query resolves through the
        fallback tiers — exact endpoint-pair history, then country-pair
        history, then the direct path.  ``k`` defaults to the service's
        construction-time knob.  With ``liveness_rounds`` set, dead relays
        are demoted out of the answers first (see the module docstring);
        counters accumulate on :attr:`counters`.
        """
        with self._sp_route:
            batch = self._route_many(src_codes, dst_codes, relay_type, k)
        if self._obs_on:
            self._c_batches.inc()
            self._c_queries.inc(int(batch.tier.shape[0]))
            per_tier = np.bincount(batch.tier, minlength=len(TIER_NAMES))
            for handle, n in zip(self._c_tiers, per_tier):
                handle.inc(int(n))
        return batch

    def _route_many(
        self,
        src_codes: np.ndarray,
        dst_codes: np.ndarray,
        relay_type: RelayType,
        k: int | None,
    ) -> RouteBatch:
        if k is None:
            k = self._default_k
        if self._liveness_rounds is None:
            relays, reductions, tier = self._directory.lookup_many(
                src_codes, dst_codes, relay_type, k
            )
            return RouteBatch(relay_ids=relays, reduction_ms=reductions, tier=tier)
        if k < 1:
            raise ServiceError(f"k must be >= 1, got {k}")
        # over-fetch so dead candidates can spill to the next-ranked live
        # relay without a second directory pass
        relays, reductions, tier = self._directory.lookup_many(
            src_codes, dst_codes, relay_type, k + self._spill
        )
        dead = self._dead
        if dead is not None and dead.size:
            is_dead = (relays >= 0) & dead[np.maximum(relays, 0)]
            if is_dead.any():
                # stable argsort floats live candidates (and their pads)
                # left in rank order and pushes dead entries right
                order = np.argsort(is_dead, axis=1, kind="stable")
                relays = np.take_along_axis(relays, order, axis=1)
                reductions = np.take_along_axis(reductions, order, axis=1)
                dead_sorted = np.take_along_axis(is_dead, order, axis=1)
                relays[dead_sorted] = -1
                reductions[dead_sorted] = np.nan
                counters = self.counters
                counters.candidates_evicted += int(is_dead.sum())
                counters.stale_top_answers += int(
                    np.count_nonzero(is_dead[:, 0] & (tier != TIER_DIRECT))
                )
                # a lane whose every candidate died has no answer left:
                # structurally fall back to the direct verdict
                unanswerable = (tier != TIER_DIRECT) & (relays[:, 0] < 0)
                counters.unanswerable += int(np.count_nonzero(unanswerable))
                tier = np.where(unanswerable, TIER_DIRECT, tier).astype(np.int8)
        relays = relays[:, :k]
        reductions = reductions[:, :k]
        self.counters.queries += int(tier.shape[0])
        self.counters.fallback_country += int(
            np.count_nonzero(tier == TIER_COUNTRY)
        )
        self.counters.direct += int(np.count_nonzero(tier == TIER_DIRECT))
        return RouteBatch(relay_ids=relays, reduction_ms=reductions, tier=tier)

    def route(
        self,
        src_id: str,
        dst_id: str,
        relay_type: RelayType = RelayType.COR,
        k: int | None = None,
    ) -> RouteAnswer:
        """One call-setup decision, by endpoint id.

        A thin shell over :meth:`route_many` (a one-query batch), so scalar
        and batched answers are identical by construction.
        """
        codes = self.encode_endpoints((src_id, dst_id))
        batch = self.route_many(codes[:1], codes[1:], relay_type, k)
        valid = batch.relay_ids[0] >= 0
        return RouteAnswer(
            src_id=src_id,
            dst_id=dst_id,
            relay_type=relay_type,
            relay_ids=tuple(int(r) for r in batch.relay_ids[0][valid]),
            reduction_ms=tuple(float(g) for g in batch.reduction_ms[0][valid]),
            tier=TIER_NAMES[int(batch.tier[0])],
        )

    # -------------------------------------------------------------- snapshots

    def save(self, file: str | IO[bytes]) -> None:
        """Snapshot the service state to ``.npz`` (operator restarts)."""
        self._directory.save(file)

    # ------------------------------------------------------------------ stats

    @property
    def default_k(self) -> int:
        """Relay candidates returned when a query names no explicit ``k``."""
        return self._default_k

    @property
    def liveness_rounds(self) -> int | None:
        """The health window (None = churn awareness disabled)."""
        return self._liveness_rounds

    @property
    def spill(self) -> int:
        """Extra candidates over-fetched per lookup for the health path."""
        return self._spill

    def dead_relay_count(self) -> int:
        """Relays currently presumed dead (0 when health is disabled)."""
        return 0 if self._dead is None else int(self._dead.sum())

    def degradation_summary(self) -> dict[str, int] | None:
        """Counter snapshot when churn awareness is on (else None)."""
        if self._liveness_rounds is None:
            return None
        return self.counters.as_dict()

    def stats(self) -> dict[str, Any]:
        """The directory's shape summary, plus degradation telemetry when
        churn awareness is enabled."""
        stats = self._directory.stats()
        if self._liveness_rounds is not None:
            stats["liveness_rounds"] = self._liveness_rounds
            stats["spill"] = self._spill
            stats["dead_relays"] = self.dead_relay_count()
            stats["degradation"] = self.counters.as_dict()
        return stats


def cross_world_service(
    results: list[CampaignResult],
    *,
    max_rounds: int | None = None,
    k: int = 3,
    liveness_rounds: int | None = None,
    spill: int = 2,
) -> tuple[ShortcutService, RelayRegistry, dict[str, int]]:
    """Compile one service over several campaigns' unified history.

    The campaigns pool into one cross-world :class:`ObservationTable` on
    one relay registry through :func:`repro.core.results.pool_worlds`, the
    sweep's pooling function: relay identities unify by ``(node_id,
    relay_type)`` and each world's columns are written once, re-keyed on
    the way in.  The pooled table compiles round-by-round — worlds share
    round ids, so round ``r`` of every world merges into one directory
    round.

    Returns ``(service, unified_registry, pooling_info)``.
    """
    if not results:
        raise ServiceError("cross_world_service needs at least one campaign")
    pooled, registry, info = pool_worlds(
        [result.table for result in results],
        [result.registry for result in results],
    )
    service = ShortcutService.from_table(
        pooled,
        max_rounds,
        k=k,
        liveness_rounds=liveness_rounds,
        spill=spill,
    )
    return service, registry, info
