"""Traffic replay: deterministic query streams and a serving benchmark.

A serving layer is only credible under load that *looks like* user
traffic, and overlay traffic is famously skewed: a few populous eyeball
country pairs dominate call volume.  The generator models that directly —
countries are ranked by their observed eyeball population (how many
distinct endpoint probes the directory saw there, the stand-in for the
scenario's APNIC user weights) and country *pairs* get Zipf-shaped
probabilities from the two ranks; endpoints are drawn uniformly inside
each chosen country.

Determinism is block-structured: the stream is cut into fixed-size blocks
and block ``b`` is synthesised from its own seeded generator
(``SeedSequence([seed, b])``), so a full block depends only on the seed
and its index, not on the stream's length (asserted in the tests).

:func:`replay` drives a :class:`~repro.service.service.ShortcutService`
with the stream in batches, measuring sustained queries/sec and the tier
mix, and digests the answers so two replays can be compared exactly.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro import obs
from repro.core.types import RelayType
from repro.errors import EmptyDirectoryError, ServiceError, UnknownCountryError
from repro.service.directory import RelayDirectory, TIER_NAMES
from repro.service.results import ServiceStats
from repro.service.service import ShortcutService

#: Queries per determinism block (the unit of seeded synthesis).
BLOCK_SIZE = 4096

#: Buckets of the guide table over the country-pair CDF.
_GUIDE = 1 << 16


class _GuideTable:
    """``cdf.searchsorted(u, side="right")`` for ``u`` in [0, 1).

    The search is monotone in ``u``, so a bucket ``[j, j + 1) / _GUIDE``
    whose edges search to one index answers every draw in it; only draws
    in buckets that straddle a CDF step are searched.  Edges and
    ``u * _GUIDE`` are exact in float64, so answers equal the search's.
    """

    def __init__(self, cdf: np.ndarray) -> None:
        self._cdf = cdf
        edges = cdf.searchsorted(np.arange(_GUIDE + 1) / _GUIDE, side="right")
        self._first = edges[:-1]
        self._straddles = edges[:-1] != edges[1:]

    def lookup(self, u: np.ndarray) -> np.ndarray:
        bucket = (u * _GUIDE).astype(np.intp)
        index = self._first[bucket]
        search = np.flatnonzero(self._straddles[bucket])
        index[search] = self._cdf.searchsorted(u[search], side="right")
        return index


@dataclass(frozen=True, slots=True)
class LoadgenConfig:
    """Knobs of the query generator and the replay harness."""

    num_queries: int = 100_000
    """Total queries to synthesise and replay."""

    batch_size: int = 1024
    """Queries per :meth:`ShortcutService.route_many` call."""

    zipf_exponent: float = 1.1
    """Zipf exponent over the country popularity ranks (higher = more
    skew toward the most populous eyeball countries)."""

    seed: int = 0
    """Root seed of the block-structured query synthesis."""

    k: int = 3
    """Relay candidates requested per query."""

    relay_type: RelayType = RelayType.COR
    """Relay lane the replay queries."""

    country_weights: Mapping[str, float] | None = None
    """Optional per-country multipliers on the Zipf weights (the fault
    timeline's traffic-shift hook): a country's weight is scaled before
    pair probabilities normalise, 0 silences it entirely.  Countries not
    named keep multiplier 1.  Naming a country the directory never
    observed raises :class:`~repro.errors.UnknownCountryError`; weights
    that silence every pair produce a deterministic *empty* stream, not
    an error."""

    def __post_init__(self) -> None:
        if self.num_queries < 1:
            raise ServiceError("num_queries must be >= 1")
        if self.country_weights is not None:
            for country, weight in self.country_weights.items():
                if not weight >= 0.0:
                    raise ServiceError(
                        f"country weight for {country!r} must be >= 0, "
                        f"got {weight}"
                    )
        if self.batch_size < 1:
            raise ServiceError("batch_size must be >= 1")
        if self.zipf_exponent <= 0:
            raise ServiceError("zipf_exponent must be positive")
        if self.k < 1:
            raise ServiceError("k must be >= 1")


def country_rank_order(directory: RelayDirectory) -> list[str]:
    """The directory's countries ranked by eyeball popularity.

    Rank 0 is the country with the most distinct observed endpoints, ties
    broken stably by country string — the order the Zipf head follows and
    the one rank-targeted traffic shifts resolve against.

    Raises:
        EmptyDirectoryError: when the directory knows no endpoints.
    """
    names = directory.countries()
    return [names[c] for c in _ranked_countries(directory, names)]


def _ranked_countries(directory: RelayDirectory, names: list[str]) -> list[int]:
    """Country codes with observed endpoints, most populous first."""
    ep_cc = directory.endpoint_country_codes()
    ccs = ep_cc[ep_cc >= 0]
    if ccs.size == 0:
        raise EmptyDirectoryError("directory has no endpoints to rank")
    population = np.bincount(ccs)
    return sorted(
        np.flatnonzero(population).tolist(),
        key=lambda c: (-int(population[c]), names[c]),
    )


class QueryStream:
    """Deterministic endpoint-pair query synthesis over a directory."""

    def __init__(self, directory: RelayDirectory, config: LoadgenConfig) -> None:
        self._config = config
        names = directory.countries()
        rank_order = _ranked_countries(directory, names)
        if len(rank_order) < 2:
            raise ServiceError("need endpoints in >= 2 countries for pairs")
        weights = 1.0 / np.power(
            np.arange(1, len(rank_order) + 1, dtype=float), config.zipf_exponent
        )
        if config.country_weights:
            by_name = {names[c]: pos for pos, c in enumerate(rank_order)}
            for country, mult in config.country_weights.items():
                if country not in by_name:
                    raise UnknownCountryError(
                        f"country {country!r} has no observed endpoints to "
                        "re-weight"
                    )
                weights[by_name[country]] *= mult
        # country pairs (i != j), row-major by rank, with product-of-Zipf
        # weights
        src_rank, dst_rank = np.nonzero(~np.eye(len(rank_order), dtype=bool))
        pair_w = weights[src_rank] * weights[dst_rank]
        total = pair_w.sum()
        # weights can silence every pair (e.g. one country left with any
        # traffic): the stream is then deterministically empty — never a
        # division by zero in the normalisation.  Otherwise draws go
        # through the CDF that ``Generator.choice(n, p=p)`` builds, so the
        # stream equals choice's draw for draw
        self._guide = None
        if total > 0:
            cdf = (pair_w / total).cumsum()
            cdf /= cdf[-1]
            self._guide = _GuideTable(cdf)
        # endpoint codes grouped by country; per pair and side, where the
        # side's country group starts and how many endpoints it holds
        ep_cc = directory.endpoint_country_codes()
        known = np.flatnonzero(ep_cc >= 0)
        ccs = ep_cc[known]
        self._ep_codes = known[np.lexsort((known, ccs))].astype(np.int64)
        sizes = np.bincount(ccs)
        starts = np.cumsum(sizes) - sizes
        ranked = np.asarray(rank_order)
        self._sides = [
            (starts[ranked[side]], sizes[ranked[side]]) for side in (src_rank, dst_rank)
        ]

    @property
    def is_empty(self) -> bool:
        """True when re-weighting silenced every country pair."""
        return self._guide is None

    @property
    def num_blocks(self) -> int:
        return 0 if self.is_empty else -(-self._config.num_queries // BLOCK_SIZE)

    def block(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Synthesise block ``index``: parallel (src, dst) endpoint codes."""
        cfg = self._config
        if self._guide is None:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        size = min(BLOCK_SIZE, cfg.num_queries - index * BLOCK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
        pair = self._guide.lookup(rng.random(size))
        src, dst = (
            self._ep_codes[starts[pair] + (u * sizes[pair]).astype(np.int64)]
            for (starts, sizes), u in zip(self._sides, rng.random((2, size)))
        )
        return src, dst

    def generate(self) -> tuple[np.ndarray, np.ndarray]:
        """The full stream: every block, in index order."""
        n = self._config.num_queries if self.num_blocks else 0
        src, dst = np.empty(n, np.int64), np.empty(n, np.int64)
        for index in range(self.num_blocks):
            lo = index * BLOCK_SIZE
            hi = min(lo + BLOCK_SIZE, n)
            src[lo:hi], dst[lo:hi] = self.block(index)
        return src, dst


def replay(
    service: ShortcutService,
    config: LoadgenConfig | None = None,
) -> ServiceStats:
    """Synthesise a query stream and drive the service with it, batched.

    Synthesis is excluded from the timed section; the measured loop is
    exactly ``route_many`` over consecutive batches.  Returns a
    :class:`~repro.service.results.ServiceStats`: sustained queries/sec,
    the tier mix, the fraction of queries answered with a relay, and a
    BLAKE2 digest of every answer (relay ids + tiers) for exact
    cross-run comparison.  (``ServiceStats`` also supports the old
    replay-dict ``stats["key"]`` access.)
    """
    config = config or LoadgenConfig()
    stream = QueryStream(service.directory, config)
    src, dst = stream.generate()
    n = src.shape[0]
    tier_counts = np.zeros(len(TIER_NAMES), np.int64)
    no_relay = 0
    digest = hashlib.blake2b(digest_size=16)
    start = time.perf_counter()
    with obs.span("loadgen.replay"):
        for lo in range(0, n, config.batch_size):
            hi = min(lo + config.batch_size, n)
            batch = service.route_many(
                src[lo:hi], dst[lo:hi], config.relay_type, config.k
            )
            tier_counts += np.bincount(batch.tier, minlength=len(TIER_NAMES))
            no_relay += int(np.count_nonzero(batch.relay_ids[:, 0] < 0))
            digest.update(batch.relay_ids.tobytes())
            digest.update(batch.tier.tobytes())
    wall = time.perf_counter() - start
    obs.inc("loadgen.queries", n)
    obs.inc("loadgen.batches", -(-n // config.batch_size) if n else 0)
    obs.set_gauge("loadgen.batch_size", config.batch_size)
    return ServiceStats(
        queries=n,
        batch_size=config.batch_size,
        batches=-(-n // config.batch_size),
        k=config.k,
        relay_type=config.relay_type.value,
        zipf_exponent=config.zipf_exponent,
        seed=config.seed,
        wall_clock_s=round(wall, 4),
        queries_per_s=int(n / wall) if n and wall > 0 else None,
        tier_counts={
            name: int(tier_counts[code]) for code, name in enumerate(TIER_NAMES)
        },
        relay_answer_frac=round(1.0 - no_relay / n, 4) if n else None,
        answers_digest=digest.hexdigest(),
        degradation=service.degradation_summary(),
    )
