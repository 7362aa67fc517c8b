"""The relay directory: campaign observations compiled for online lookup.

The offline campaign answers "which relays improved which pairs"; a
serving layer needs the transpose — "given a pair, which relay should
carry the next call" — answered in microseconds, refreshed as new rounds
arrive, and restartable from a snapshot.  :class:`RelayDirectory` is that
structure: every retained measurement round is reduced to per-*lane*
relay statistics (a lane is a canonical unordered endpoint or country
pair, packed into one int64 key), and the retained rounds are merged into
dense ranked lookup blocks:

* **pair tier** — lanes keyed by endpoint pair: the exact-history answer;
* **country tier** — lanes keyed by country pair: the VIA-style fallback
  (the same ``(-count, relay)`` ranking
  :class:`~repro.core.oracle.LaneHistory` computes, plus the mean observed
  RTT reduction per relay as the expected gain);
* **direct tier** — no history at all: the caller keeps the direct path.

Ingestion (:meth:`ingest_round`) reduces the new round to per-lane rows,
evicts rounds that left the retention window (``max_rounds``, the
staleness TTL), then recompiles every (tier, relay type) block those
rounds carry in one pass over the retained rows.  Rows always reduce in
ascending-round order, so ingesting round by round is byte-identical to
compiling the retained rounds at once (asserted in ``tests/test_service.py``).

Queries resolve through *answer rows*, built per ``(relay type, k)`` on
first use and dropped whenever a block changes: an ``(endpoints+1)²``
table maps ``(src, dst)`` codes to the row of their pair lane, else of
their country lane, else to the all-padding direct row, and each lane's
top-k answer is one padded row.  A batch is one row gather plus one
gather per answer column.  The table grows with the square of the
endpoint count (70 KB for the full world's 131).

Snapshots (:meth:`save` / :meth:`load`) are a single ``.npz`` of flat
arrays: the string pools, the per-round lane rows and the retention
configuration.  Loading replays a full recompile, so a restored directory
is bit-identical to the one that saved it.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass
from typing import IO, Any

import numpy as np

from repro import obs
from repro.core.oracle import csr_top_k, rank_lane_entries
from repro.core.results import RoundResult
from repro.core.store import write_arrays
from repro.core.table import NUM_RELAY_TYPES, Interner, ObservationTable
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import (
    EmptyDirectoryError,
    ServiceError,
    StoreError,
    UnknownCountryError,
    UnknownEndpointError,
)

#: Fallback tiers a query resolves through, in preference order.
TIER_PAIR = 0
TIER_COUNTRY = 1
TIER_DIRECT = 2
TIER_NAMES = ("pair", "country", "direct")

#: Snapshot format version (bumped on incompatible layout changes).
#: v2 added the relay last-seen arrays that back churn-aware health.
SNAPSHOT_VERSION = 2

_TIERS = (TIER_PAIR, TIER_COUNTRY)

#: Canonical unordered-pair key packing — the table's, so directory lane
#: keys and table lane keys can never drift apart.
_pack = ObservationTable.pack_pairs


@dataclass(frozen=True, slots=True)
class LaneBlock:
    """One tier's compiled lanes: a CSR of ranked relay candidates.

    Attributes:
        keys: ``(L,) int64`` sorted canonical lane keys.
        indptr: ``(L+1,) int64`` CSR pointer into the entry arrays.
        relays: ``(E,) int32`` relay registry indices, ranked
            ``(-count, relay)`` within each lane.
        counts: ``(E,) int32`` improvement count behind each entry.
        reduction_ms: ``(E,) float64`` mean observed RTT reduction of the
            relay on the lane (the "expected gain" a query returns).
    """

    keys: np.ndarray
    indptr: np.ndarray
    relays: np.ndarray
    counts: np.ndarray
    reduction_ms: np.ndarray

    @classmethod
    def empty(cls) -> LaneBlock:
        return cls(
            keys=np.zeros(0, np.int64),
            indptr=np.zeros(1, np.int64),
            relays=np.zeros(0, np.int32),
            counts=np.zeros(0, np.int32),
            reduction_ms=np.zeros(0, float),
        )

    @classmethod
    def from_rows(
        cls,
        lanes: np.ndarray,
        relays: np.ndarray,
        counts: np.ndarray,
        gains: np.ndarray,
    ) -> LaneBlock:
        """Compile occurrence rows into ranked lanes.

        Rows may repeat a ``(lane, relay)`` across rounds; callers must
        order them round-ascending so the float gain sums accumulate in a
        fixed order.  Reduction and ranking run through the oracle's shared
        :func:`~repro.core.oracle.rank_lane_entries` kernel, so the
        service ranks exactly as the history predictor does.
        """
        if lanes.size == 0:
            return cls.empty()
        keys, indptr, ranked_relays, ranked_counts, gain_sums = rank_lane_entries(
            lanes, relays, counts=counts, gains=gains
        )
        return cls(
            keys=keys,
            indptr=indptr,
            relays=ranked_relays,
            counts=ranked_counts,
            reduction_ms=gain_sums / ranked_counts,
        )

    @property
    def num_lanes(self) -> int:
        return self.keys.shape[0]

    def top_k(self, lane_rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(m, k)`` ranked relays and expected reductions per lane row.

        Relays pad with -1 and reductions with NaN past a lane's candidate
        count; rows with ``lane_rows == -1`` are entirely padding.
        """
        return csr_top_k(
            self.indptr, lane_rows, k,
            (self.relays, self.reduction_ms), (-1, np.nan),
        )


def validate_query_codes(
    src_codes: np.ndarray, dst_codes: np.ndarray, known: int
) -> tuple[np.ndarray, np.ndarray]:
    """Check a query batch against a directory's known endpoint range.

    Returns the queries as parallel ``int64`` arrays.

    Raises:
        ServiceError: on mismatched / non-1D query shapes.
        EmptyDirectoryError: when ``known`` is 0 — no ingested history.
        UnknownEndpointError: for codes outside ``[-1, known)``; those
            are caller bugs, not unobserved endpoints.
    """
    src = np.asarray(src_codes, np.int64)
    dst = np.asarray(dst_codes, np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise ServiceError(
            f"query shapes differ: {src.shape} vs {dst.shape}"
        )
    if known == 0:
        raise EmptyDirectoryError(
            "directory has no ingested history to resolve queries against"
        )
    out_of_range = (src < -1) | (src >= known) | (dst < -1) | (dst >= known)
    if out_of_range.any():
        bad = np.unique(
            np.concatenate([src[out_of_range], dst[out_of_range]])
        )
        raise UnknownEndpointError(
            f"endpoint codes {bad.tolist()[:8]} outside the directory's "
            f"known range [-1, {known})"
        )
    return src, dst


class RelayDirectory:
    """Compiled relay-lookup lanes over a window of measurement rounds.

    One directory serves one campaign's relay registry: relay ids in the
    compiled lanes are that campaign's registry indices.  Rounds must be
    ingested in ascending round order (the staleness window evicts from
    the front).
    """

    def __init__(self, max_rounds: int | None = None) -> None:
        if max_rounds is not None and max_rounds < 1:
            raise ServiceError(f"max_rounds must be >= 1, got {max_rounds}")
        self.max_rounds = max_rounds
        self._endpoints = Interner()
        self._countries = Interner()
        self._endpoint_cc = np.zeros(0, np.int32)
        # round id -> {(tier, type_code): (lane, relay, count, gain)} rows,
        # insertion order == ascending round id (enforced by ingest_round)
        self._rounds: dict[int, dict[tuple[int, int], tuple[np.ndarray, ...]]] = {}
        self._blocks: dict[tuple[int, int], LaneBlock] = {}
        # (type code, k) -> answer rows (see _answers_for), built on first
        # query and dropped whenever a block changes
        self._answers: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        # relay registry idx -> newest round id whose improving entries
        # contained it: the liveness signal behind stale_relay_mask.  Kept
        # across eviction (like endpoint identities) so health questions
        # about long-dark relays stay answerable.
        self._relay_last_seen: dict[int, int] = {}

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_result(
        cls, result, max_rounds: int | None = None, rounds=None
    ) -> RelayDirectory:
        """Compile a directory from a campaign result's rounds.

        ``rounds`` restricts ingestion to a subset (e.g. all but the
        evaluation round); default is every round of the result.
        """
        directory = cls(max_rounds=max_rounds)
        with obs.span("service.directory.compile"):
            directory._ingest(
                (rnd, None) for rnd in (result.rounds if rounds is None else rounds)
            )
        return directory

    @classmethod
    def from_table(
        cls, table: ObservationTable, max_rounds: int | None = None
    ) -> RelayDirectory:
        """Compile a directory from one concatenated campaign table.

        The sweep-artifact direction: the table's ``round_idx`` column
        splits it back into rounds, ingested in ascending round order.
        """
        directory = cls(max_rounds=max_rounds)
        with obs.span("service.directory.compile"):
            directory._ingest(
                (table, round_id) for round_id in table.round_values().tolist()
            )
        return directory

    # -------------------------------------------------------------- ingestion

    def ingest_round(
        self,
        source: RoundResult | ObservationTable,
        round_id: int | None = None,
    ) -> dict[str, int]:
        """Fold one measurement round into the directory.

        ``source`` is a campaign :class:`~repro.core.results.RoundResult`
        (round id implied) or an :class:`ObservationTable`; for a
        multi-round table, ``round_id`` selects the round to ingest.
        Recompiles every block the round or the rounds it evicts from the
        ``max_rounds`` window carry, and returns ingest statistics;
        ``touched_lanes`` counts the lanes those rounds observed.

        Staleness: measurement-derived lanes decay with the window —
        evicting a round removes its contribution exactly — but *identity*
        metadata (endpoint ids and their countries) persists, like a
        user-directory cache would; an endpoint last measured in an
        evicted round still resolves through the country tier.

        Raises:
            ServiceError: on out-of-order or duplicate round ids.
        """
        with obs.span("service.directory.ingest"):
            return self._ingest([(source, round_id)])[0]

    def _ingest(self, sources) -> list[dict[str, int]]:
        """Fold ``(source, round_id)`` rounds in order, then compile every
        block they touched once; returns each round's statistics."""
        all_stats = []
        touched: set[tuple[int, int]] = set()
        for source, round_id in sources:
            stats, keys = self._fold_round(source, round_id)
            all_stats.append(stats)
            touched |= keys
            obs.inc("service.directory.ingested_rounds")
            obs.inc("service.directory.evicted_rounds", stats["evicted_rounds"])
            obs.inc("service.directory.touched_lanes", stats["touched_lanes"])
        for key in sorted(touched):
            block = self._compile_block(*key)
            # a block whose rows were all evicted is dropped, not kept
            # empty: ``recompile`` (and so a loaded snapshot) builds none
            if block.num_lanes:
                self._blocks[key] = block
            else:
                self._blocks.pop(key, None)
        self._answers = {}
        return all_stats

    def _fold_round(
        self,
        source: RoundResult | ObservationTable,
        round_id: int | None,
    ) -> tuple[dict[str, int], set[tuple[int, int]]]:
        """Reduce one round into the retained rows and apply the window.

        Returns the round's statistics and the block keys it or its
        evictions carry; compiling those blocks is the caller's job.
        """
        if isinstance(source, RoundResult):
            table = source.table
            rid = source.round_index if round_id is None else round_id
            mask = None
        else:
            table = source
            if round_id is None:
                present = table.round_values()
                if present.size != 1:
                    raise ServiceError(
                        f"table holds rounds {present.tolist()}; pass round_id"
                    )
                rid = int(present[0])
            else:
                rid = int(round_id)
            mask = table.round_mask(rid)
        if self._rounds and rid <= next(reversed(self._rounds)):
            raise ServiceError(
                f"round {rid} not after retained rounds {list(self._rounds)}"
            )

        ep_map, cc_map = self._register_pools(table)
        aggregate: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        for type_code in range(NUM_RELAY_TYPES):
            cases, relays, gains = table.type_entries(type_code)
            if mask is not None and cases.size:
                keep = mask[cases]
                cases, relays, gains = cases[keep], relays[keep], gains[keep]
            if cases.size == 0:
                continue
            for tier in _TIERS:
                if tier == TIER_PAIR:
                    a = ep_map[table.e1_id[cases]]
                    b = ep_map[table.e2_id[cases]]
                else:
                    a = cc_map[table.e1_cc[cases]]
                    b = cc_map[table.e2_cc[cases]]
                # stored (and snapshotted) as flat rows, not as a CSR
                keys, indptr, *rows = rank_lane_entries(_pack(a, b), relays, gains=gains)
                aggregate[(tier, type_code)] = (np.repeat(keys, np.diff(indptr)), *rows)
        self._rounds[rid] = aggregate
        if aggregate:
            seen = np.bincount(np.concatenate([rows[1] for rows in aggregate.values()]))
            for relay in np.flatnonzero(seen).tolist():
                self._relay_last_seen[relay] = rid

        evicted: list[dict[tuple[int, int], tuple[np.ndarray, ...]]] = []
        if self.max_rounds is not None:
            while len(self._rounds) > self.max_rounds:
                oldest = next(iter(self._rounds))
                evicted.append(self._rounds.pop(oldest))

        touched_keys = set(aggregate)
        for old in evicted:
            touched_keys |= set(old)
        entries = 0
        for key in touched_keys:
            # each round's lanes are sorted runs, which a stable sort merges
            lanes = np.concatenate([agg[key][0] for agg in [aggregate, *evicted] if key in agg])
            entries += int(np.count_nonzero(np.diff(np.sort(lanes, kind="stable")))) + 1
        stats = {
            "round_id": rid,
            "retained_rounds": len(self._rounds),
            "evicted_rounds": len(evicted),
            "touched_lanes": entries,
        }
        return stats, touched_keys

    def _register_pools(
        self, table: ObservationTable
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map a table's codes into directory codes; learn endpoint countries."""
        ep_map = self._endpoints.codes(table.pools.endpoint_ids.values)
        cc_map = self._countries.codes(table.pools.countries.values)
        if len(self._endpoints) > self._endpoint_cc.size:
            grown = np.full(len(self._endpoints), -1, np.int32)
            grown[: self._endpoint_cc.size] = self._endpoint_cc
            self._endpoint_cc = grown
        if table.num_cases:
            self._endpoint_cc[ep_map[table.e1_id]] = cc_map[table.e1_cc]
            self._endpoint_cc[ep_map[table.e2_id]] = cc_map[table.e2_cc]
        if ep_map.size == 0:
            ep_map = np.zeros(0, np.int32)
        if cc_map.size == 0:
            cc_map = np.zeros(0, np.int32)
        return ep_map, cc_map

    def _compile_block(self, tier: int, type_code: int) -> LaneBlock:
        """One block from every retained round's rows, round-ascending."""
        rows = [
            agg[(tier, type_code)]
            for agg in self._rounds.values()
            if (tier, type_code) in agg
        ]
        if not rows:
            return LaneBlock.empty()
        return LaneBlock.from_rows(*(np.concatenate(col) for col in zip(*rows)))

    def recompile(self) -> None:
        """Rebuild every compiled block from the retained rounds."""
        with obs.span("service.directory.recompile"):
            keys = sorted({key for agg in self._rounds.values() for key in agg})
            self._blocks = {key: self._compile_block(*key) for key in keys}
            self._answers = {}

    # ---------------------------------------------------------------- queries

    def block(self, tier: int, relay_type: RelayType) -> LaneBlock:
        """A tier's compiled lanes for a relay type (empty when unbuilt)."""
        code = RELAY_TYPE_ORDER.index(relay_type)
        return self._blocks.get((tier, code), LaneBlock.empty())

    def lookup_many(
        self,
        src_codes: np.ndarray,
        dst_codes: np.ndarray,
        relay_type: RelayType,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve queries through the fallback tiers, fully batched.

        ``src_codes`` / ``dst_codes`` are directory endpoint codes (-1 =
        unknown, resolved structurally to the direct tier).  Returns
        ``(relays (n, k) int32, reductions (n, k) float64, tier (n,)
        int8)`` — -1/NaN padded, with :data:`TIER_DIRECT` rows entirely
        padding (keep the direct path).  The arrays are fresh copies the
        caller may write into.

        Raises:
            EmptyDirectoryError: when no round was ever ingested — there
                is no history to resolve against, distinct from a miss.
            UnknownEndpointError: for codes outside ``[-1, endpoints)``;
                those are caller bugs, not unobserved endpoints.
        """
        if k < 1:
            raise ServiceError(f"k must be >= 1, got {k}")
        known = len(self._endpoint_cc)
        src, dst = validate_query_codes(src_codes, dst_codes, known)
        code = RELAY_TYPE_ORDER.index(relay_type)
        row_table, relays, reductions, tier = self._answers_for(code, k)
        rows = row_table[(src + 1) * (known + 1) + (dst + 1)]
        return (
            np.take(relays, rows, axis=0),
            np.take(reductions, rows, axis=0),
            np.take(tier, rows),
        )

    def _answers_for(self, code: int, k: int) -> tuple[np.ndarray, ...]:
        """``(row table, relays, reductions, tier)`` for a relay type and k.

        Answer rows hold the pair lanes' top-k, then the country lanes',
        then one all-padding direct row.  The flat ``(endpoints+1)²`` int32
        row table maps ``(src+1, dst+1)`` to the pair lane's row, else the
        country lane's, else -1 (the direct row).  Unknown endpoints (code
        -1, index 0), endpoints of unknown country and ``src == dst`` stay
        -1.
        """
        answers = self._answers.get((code, k))
        if answers is not None:
            return answers
        pair = self._blocks.get((TIER_PAIR, code), LaneBlock.empty())
        country = self._blocks.get((TIER_COUNTRY, code), LaneBlock.empty())
        side = len(self._endpoint_cc) + 1
        table = np.full((side, side), -1, np.int32)
        if country.num_lanes:
            # one spare row/column so country code -1 lands on -1
            by_cc = np.full((len(self._countries) + 1,) * 2, -1, np.int32)
            a, b = country.keys >> 32, country.keys & 0xFFFFFFFF
            by_cc[a, b] = by_cc[b, a] = pair.num_lanes + np.arange(
                country.num_lanes, dtype=np.int32
            )
            cc = self._endpoint_cc
            table[1:, 1:] = by_cc[cc[:, np.newaxis], cc[np.newaxis, :]]
        if pair.num_lanes:
            a, b = (pair.keys >> 32) + 1, (pair.keys & 0xFFFFFFFF) + 1
            table[a, b] = table[b, a] = np.arange(pair.num_lanes, dtype=np.int32)
        np.fill_diagonal(table, -1)
        sizes = (pair.num_lanes, country.num_lanes, 1)
        relays = np.full((sum(sizes), k), -1, np.int32)
        reductions = np.full((sum(sizes), k), np.nan)
        relays[: sizes[0]], reductions[: sizes[0]] = pair.top_k(np.arange(sizes[0]), k)
        relays[sizes[0] : -1], reductions[sizes[0] : -1] = country.top_k(
            np.arange(sizes[1]), k
        )
        tier = np.repeat(
            np.asarray([TIER_PAIR, TIER_COUNTRY, TIER_DIRECT], np.int8), sizes
        )
        answers = self._answers[(code, k)] = (table.ravel(), relays, reductions, tier)
        return answers

    # ----------------------------------------------------------------- health

    def relay_last_seen(self) -> dict[int, int]:
        """Relay registry idx -> newest round id it improved any lane in."""
        return dict(self._relay_last_seen)

    def stale_relay_mask(self, liveness_rounds: int) -> np.ndarray:
        """Boolean mask over relay ids: True = presumed dead.

        A relay is *stale* when it appeared in no improving entry of the
        newest ``liveness_rounds`` retained rounds — under churn that is
        the serving layer's only liveness signal (lanes only ever contain
        improving relays, so "not seen lately" means "not sampled or not
        improving lately").  The mask is indexed by relay registry id and
        sized to cover every relay the directory ever saw; compiled-lane
        relay ids always fall inside it.
        """
        if liveness_rounds < 1:
            raise ServiceError(
                f"liveness_rounds must be >= 1, got {liveness_rounds}"
            )
        if not self._relay_last_seen:
            return np.zeros(0, bool)
        rounds = list(self._rounds)
        ids = np.fromiter(self._relay_last_seen, np.int64)
        mask = np.zeros(int(ids.max()) + 1, bool)
        if not rounds:
            mask[ids] = True  # everything it knew was evicted
            return mask
        cutoff = rounds[max(len(rounds) - liveness_rounds, 0)]
        seen = np.fromiter(self._relay_last_seen.values(), np.int64)
        mask[ids[seen < cutoff]] = True
        return mask

    # ------------------------------------------------------------- identities

    def endpoint_code(self, endpoint_id: str) -> int:
        """The directory code of an endpoint id (-1 when never observed)."""
        return self._endpoints.lookup(endpoint_id)

    def encode_endpoints(self, endpoint_ids) -> np.ndarray:
        """Directory codes for an endpoint-id sequence (-1 = unknown)."""
        lookup = self._endpoints.lookup
        return np.fromiter((lookup(e) for e in endpoint_ids), np.int64)

    def endpoint_ids(self) -> list[str]:
        """Every endpoint id the directory has observed, in code order."""
        return list(self._endpoints.values)

    def country_of_code(self, endpoint_code: int) -> str | None:
        """Country string of an endpoint code (None when never learned).

        Raises:
            UnknownEndpointError: for codes outside the known range.
        """
        if not 0 <= endpoint_code < self._endpoint_cc.size:
            raise UnknownEndpointError(
                f"endpoint code {endpoint_code} outside the directory's "
                f"known range [0, {self._endpoint_cc.size})"
            )
        cc = int(self._endpoint_cc[endpoint_code])
        return None if cc < 0 else self._countries[cc]

    def country_code(self, country: str) -> int:
        """The directory code of a country string.

        Raises:
            UnknownCountryError: for countries never observed.
        """
        code = self._countries.lookup(country)
        if code < 0:
            raise UnknownCountryError(
                f"country {country!r} not observed by the directory"
            )
        return code

    def countries(self) -> list[str]:
        """Every country the directory has observed, in code order."""
        return list(self._countries.values)

    def endpoint_country_codes(self) -> np.ndarray:
        """``(num_endpoints,) int32`` country code per endpoint code."""
        return self._endpoint_cc.copy()

    def retained_rounds(self) -> list[int]:
        """Round ids currently inside the staleness window, ascending."""
        return list(self._rounds)

    def stats(self) -> dict[str, Any]:
        """Shape summary: pools, retained rounds, lanes per tier and type."""
        lanes = {
            f"lanes_{TIER_NAMES[tier]}_{relay_type.value}": self._blocks.get(
                (tier, code), LaneBlock.empty()
            ).num_lanes
            for tier in _TIERS
            for code, relay_type in enumerate(RELAY_TYPE_ORDER)
        }
        return {
            "endpoints": len(self._endpoints),
            "countries": len(self._countries),
            "retained_rounds": self.retained_rounds(),
            "max_rounds": self.max_rounds,
            "relays_seen": len(self._relay_last_seen),
            **lanes,
        }

    # -------------------------------------------------------------- snapshots

    def save(self, file: str | os.PathLike | IO[bytes]) -> None:
        """Write the directory to a compact ``.npz`` snapshot.

        Deterministic: the same directory state always produces the same
        bytes (arrays are written in a fixed order and ``np.savez`` stamps
        a constant timestamp), so snapshot equality is state equality.  A
        path is written atomically by :func:`~repro.core.store.write_arrays`,
        to exactly that path: a failed write raises
        :class:`~repro.errors.StoreError` naming it and leaves any previous
        snapshot there intact.  A stream gets the same bytes.
        """
        arrays: dict[str, np.ndarray] = {
            "meta": np.asarray(
                [
                    SNAPSHOT_VERSION,
                    -1 if self.max_rounds is None else self.max_rounds,
                ],
                np.int64,
            ),
            "endpoints": np.asarray(self._endpoints.values, dtype=np.str_),
            "countries": np.asarray(self._countries.values, dtype=np.str_),
            "endpoint_cc": self._endpoint_cc,
            "round_ids": np.asarray(list(self._rounds), np.int64),
            "relay_seen_ids": np.asarray(
                sorted(self._relay_last_seen), np.int64
            ),
            "relay_seen_rounds": np.asarray(
                [self._relay_last_seen[r] for r in sorted(self._relay_last_seen)],
                np.int64,
            ),
        }
        for rid in self._rounds:
            for tier, type_code in sorted(self._rounds[rid]):
                lane, relay, count, gain = self._rounds[rid][(tier, type_code)]
                prefix = f"r{rid}_t{tier}_{type_code}"
                arrays[f"{prefix}_lane"] = lane
                arrays[f"{prefix}_relay"] = relay
                arrays[f"{prefix}_count"] = count
                arrays[f"{prefix}_gain"] = gain
        if isinstance(file, (str, os.PathLike)):
            write_arrays(file, arrays)
        else:
            np.savez(file, **arrays)

    @classmethod
    def load(cls, file: str | IO[bytes]) -> RelayDirectory:
        """Rebuild a directory from a :meth:`save` snapshot.

        Raises:
            StoreError: when the snapshot is missing, empty, truncated, not
                an ``.npz`` archive or lacks a member.  Its ``path`` is the
                path given, else the stream's ``name``, else ``"<stream>"``.
            ServiceError: on unknown snapshot versions.
        """
        try:
            directory = cls._read_snapshot(file)
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            name = file if isinstance(file, (str, os.PathLike)) else getattr(
                file, "name", "<stream>"
            )
            raise StoreError(
                name, f"not a directory snapshot ({type(exc).__name__}: {exc})"
            ) from exc
        directory.recompile()
        return directory

    @classmethod
    def _read_snapshot(cls, file: str | IO[bytes]) -> RelayDirectory:
        """The snapshot's pools and retained rounds, blocks not compiled."""
        with np.load(file) as data:
            meta = data["meta"]
            if int(meta[0]) != SNAPSHOT_VERSION:
                raise ServiceError(f"unknown snapshot version {int(meta[0])}")
            max_rounds = int(meta[1])
            directory = cls(max_rounds=None if max_rounds < 0 else max_rounds)
            directory._endpoints = Interner(data["endpoints"].tolist())
            directory._countries = Interner(data["countries"].tolist())
            directory._endpoint_cc = data["endpoint_cc"].astype(np.int32)
            directory._relay_last_seen = dict(
                zip(
                    data["relay_seen_ids"].tolist(),
                    data["relay_seen_rounds"].tolist(),
                )
            )
            for rid in data["round_ids"].tolist():
                aggregate = {}
                for tier in _TIERS:
                    for type_code in range(NUM_RELAY_TYPES):
                        prefix = f"r{rid}_t{tier}_{type_code}"
                        if f"{prefix}_lane" not in data:
                            continue
                        aggregate[(tier, type_code)] = (
                            data[f"{prefix}_lane"],
                            data[f"{prefix}_relay"],
                            data[f"{prefix}_count"],
                            data[f"{prefix}_gain"],
                        )
                directory._rounds[rid] = aggregate
        return directory

    def block_signature(self) -> str:
        """BLAKE2 digest over every compiled block's arrays.

        Two directories with equal signatures answer every query
        identically; the incremental-vs-full and snapshot tests compare
        these (and the underlying arrays) directly.
        """
        import hashlib

        digest = hashlib.blake2b(digest_size=16)
        for key in sorted(self._blocks):
            block = self._blocks[key]
            digest.update(repr(key).encode())
            for arr in (block.keys, block.indptr, block.relays, block.counts,
                        block.reduction_ms):
                digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()
