"""Result containers of the measurement campaign.

Storage is columnar: relays live once in a registry and are referenced by
integer index, and the per-case data (direct RTTs, best stitched RTTs,
improving-relay lists, feasibility counts, country groups) lives only in
each round's :class:`~repro.core.table.ObservationTable` —
structure-of-arrays NumPy columns the analyses reduce directly.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core.table import ObservationTable
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class RelayRecord:
    """One relay's identity in the campaign's registry.

    Attributes:
        index: Registry index (the id observations refer to).
        node_id: The underlying node id.
        relay_type: COR / PLR / RAR_OTHER / RAR_EYE.
        asn: Hosting AS.
        cc: Country code of the relay's city.
        city_key: The relay's city.
        facility_id: Hosting facility (COR only).
        site_id: PlanetLab site (PLR only).
    """

    index: int
    node_id: str
    relay_type: RelayType
    asn: int
    cc: str
    city_key: str
    facility_id: int | None = None
    site_id: str | None = None


class RelayRegistry:
    """Deduplicating registry of every relay the campaign ever used."""

    def __init__(self) -> None:
        self._records: list[RelayRecord] = []
        self._by_node_id: dict[str, int] = {}

    def register(
        self,
        node_id: str,
        relay_type: RelayType,
        asn: int,
        cc: str,
        city_key: str,
        facility_id: int | None = None,
        site_id: str | None = None,
    ) -> int:
        """Register a relay (idempotent per node id) and return its index.

        Raises:
            AnalysisError: if the same node is re-registered under a
                different relay type (a node has exactly one role).
        """
        existing = self._by_node_id.get(node_id)
        if existing is not None:
            if self._records[existing].relay_type is not relay_type:
                raise AnalysisError(
                    f"node {node_id} registered as {self._records[existing].relay_type}"
                    f" and again as {relay_type}"
                )
            return existing
        index = len(self._records)
        self._records.append(
            RelayRecord(
                index=index,
                node_id=node_id,
                relay_type=relay_type,
                asn=asn,
                cc=cc,
                city_key=city_key,
                facility_id=facility_id,
                site_id=site_id,
            )
        )
        self._by_node_id[node_id] = index
        return index

    def get(self, index: int) -> RelayRecord:
        """The record at a registry index."""
        return self._records[index]

    def by_node_id(self, node_id: str) -> RelayRecord:
        """Find a relay by node id.

        Raises:
            KeyError: if the node was never registered.
        """
        return self._records[self._by_node_id[node_id]]

    def of_type(self, relay_type: RelayType) -> list[RelayRecord]:
        """All relays of a type, in registration order."""
        return [r for r in self._records if r.relay_type is relay_type]

    def absorb(self, other: RelayRegistry) -> np.ndarray:
        """Merge every record of ``other``; return the index mapping.

        The cross-world unification primitive: relay *identity* is
        ``(node_id, relay_type)``.  Node ids are stable across world
        seeds (like a real Atlas probe id), but independently generated
        worlds may cast the same node in different roles — e.g. an
        eyeball relay in one world, a generic remote relay in another —
        so the role is part of the cross-world identity (lanes are
        per-type anyway, so distinct roles never alias in a directory).
        Within one campaign :meth:`register` still enforces a single
        role per node.  Returns an ``int32`` array mapping ``other``'s
        registry indices to this registry's; first-seen attributes win
        for an already-known identity.
        """
        import numpy as np

        by_identity = {
            (record.node_id, record.relay_type): record.index
            for record in self._records
        }
        mapping = np.empty(len(other._records), np.int32)
        for record in other._records:
            identity = (record.node_id, record.relay_type)
            index = by_identity.get(identity)
            if index is None:
                index = len(self._records)
                self._records.append(
                    RelayRecord(
                        index=index,
                        node_id=record.node_id,
                        relay_type=record.relay_type,
                        asn=record.asn,
                        cc=record.cc,
                        city_key=record.city_key,
                        facility_id=record.facility_id,
                        site_id=record.site_id,
                    )
                )
                by_identity[identity] = index
                self._by_node_id.setdefault(record.node_id, index)
            mapping[record.index] = index
        return mapping

    def to_payload(self) -> dict[str, list]:
        """Flat identity columns for cheap IPC transport (sweep workers)."""
        return {
            "node_ids": [r.node_id for r in self._records],
            "relay_types": [r.relay_type.value for r in self._records],
            "asns": [r.asn for r in self._records],
            "ccs": [r.cc for r in self._records],
            "city_keys": [r.city_key for r in self._records],
            "facility_ids": [
                -1 if r.facility_id is None else r.facility_id for r in self._records
            ],
            "site_ids": ["" if r.site_id is None else r.site_id for r in self._records],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, list]) -> RelayRegistry:
        """Rebuild a registry from :meth:`to_payload` output."""
        registry = cls()
        for node_id, type_value, asn, cc, city_key, facility_id, site_id in zip(
            payload["node_ids"],
            payload["relay_types"],
            payload["asns"],
            payload["ccs"],
            payload["city_keys"],
            payload["facility_ids"],
            payload["site_ids"],
        ):
            registry.register(
                node_id,
                RelayType(type_value),
                asn,
                cc,
                city_key,
                facility_id=None if facility_id < 0 else facility_id,
                site_id=site_id or None,
            )
        return registry

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RelayRecord]:
        return iter(self._records)


def pool_worlds(
    tables: list[ObservationTable],
    registries: list[RelayRegistry],
) -> tuple[ObservationTable, RelayRegistry, dict[str, int]]:
    """Pool per-world tables into one cross-world table on one registry.

    Each world (seed) registers relays independently, so registry index
    ``7`` means a different relay in every world and a naive cross-world
    table concat silently aliases them.  ``(node_id, relay_type)`` is the
    stable identity (the same synthetic Internet node reappears across
    seeds; its role is part of the identity since worlds may cast it
    differently), so pooling absorbs every registry into one — first
    world first — and writes each world's columns once into the pooled
    table, re-keying ``imp_relay`` / ``best_relay`` through the absorb
    mapping and string codes through a union pool on the way in (see
    :meth:`ObservationTable.concat`).  ``tables`` is emptied as the worlds
    are written, so a world the caller holds nowhere else is freed once
    copied.

    Returns the pooled table, the unified registry, and an info dict:
    ``worlds``, ``relays`` (unified count), ``relays_before`` (summed
    per-world counts) and ``attribute_conflicts`` (identities whose
    non-identity attributes drifted between worlds; first-seen attributes
    win).
    """
    if len(tables) != len(registries):
        raise AnalysisError(
            f"{len(tables)} tables but {len(registries)} registries"
        )
    unified = RelayRegistry()
    conflicts = 0
    relay_maps = []
    for registry in registries:
        mapping = unified.absorb(registry)
        for record in registry:
            merged = unified.get(int(mapping[record.index]))
            if (merged.asn, merged.cc, merged.city_key) != (
                record.asn, record.cc, record.city_key
            ):
                conflicts += 1
        relay_maps.append(mapping)
    info = {
        "worlds": len(tables),
        "relays": len(unified),
        "relays_before": sum(len(r) for r in registries),
        "attribute_conflicts": conflicts,
    }
    return ObservationTable.concat(tables, relay_maps), unified, info


@dataclass(frozen=True, slots=True, eq=False)
class MedianColumns:
    """One round's medians as three parallel columns, in measurement order.

    ``a`` is an endpoint's code in the round table's
    ``pools.endpoint_ids``; ``b`` is the other endpoint's code (direct
    medians: the pair ordered as its probe ids sort) or the relay's
    registry index (relay medians); ``ms`` is the median RTT.  An ``(a,
    b)`` key appears at most once per round.  These are the result file's
    ``round<k>.{direct,relay}.{a,b,ms}`` members as they are.
    """

    a: np.ndarray  #: (medians,) int32 endpoint codes
    b: np.ndarray  #: (medians,) int32 endpoint codes or registry indices
    ms: np.ndarray  #: (medians,) float64 median RTTs

    def __len__(self) -> int:
        return len(self.ms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MedianColumns):
            return NotImplemented
        return all(
            np.array_equal(x, y)
            for x, y in zip((self.a, self.b, self.ms), (other.a, other.b, other.ms))
        )


@dataclass(slots=True)
class RoundResult:
    """Everything measured in one campaign round.

    The per-case data lives columnar in ``table``.  ``direct_medians``
    (step 4's valid pairs, in the table's case order) and
    ``relay_medians`` (every valid endpoint-relay leg, endpoint-major)
    keep the raw medians as :class:`MedianColumns` so the
    temporal-stability analysis can compute per-pair CVs across rounds;
    ``relay_medians`` may be None when the campaign is configured not to
    record them.
    """

    round_index: int
    timestamp_hours: float
    endpoint_ids: tuple[str, ...]
    relay_indices_by_type: dict[RelayType, tuple[int, ...]]
    table: ObservationTable
    direct_medians: MedianColumns
    relay_medians: MedianColumns | None
    pings_sent: int

    def num_pairs(self) -> int:
        """Endpoint pairs with a valid direct measurement this round."""
        return self.table.num_cases


@dataclass(slots=True)
class CampaignResult:
    """The full campaign: all rounds plus the shared relay registry."""

    rounds: list[RoundResult]
    registry: RelayRegistry
    verified_eyeball_tuples: int = 0
    colo_filter_funnel: tuple[int, ...] = field(default=())
    _table: ObservationTable | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def table(self) -> ObservationTable:
        """All rounds' cases as one columnar table (concatenated lazily).

        Round tables share the campaign's string pools, so this is a plain
        array concatenation, built once and cached.
        """
        if self._table is None:
            self._table = ObservationTable.concat([r.table for r in self.rounds])
        return self._table

    @property
    def total_cases(self) -> int:
        """Total pair observations (the paper's "total cases")."""
        return sum(rnd.table.num_cases for rnd in self.rounds)

    @property
    def total_pings(self) -> int:
        """Pings sent across the campaign."""
        return sum(rnd.pings_sent for rnd in self.rounds)

    def improved_fraction(self, relay_type: RelayType) -> float:
        """Fraction of total cases the type's relays improved.

        Served from the table's cached per-type improving counts — O(1)
        after the first call instead of an object walk per relay type.

        Raises:
            AnalysisError: if the campaign has no observations.
        """
        total = self.total_cases
        if total == 0:
            raise AnalysisError("campaign produced no observations")
        code = RELAY_TYPE_ORDER.index(relay_type)
        return self.table.improved_count(code) / total

    def summary(self) -> dict[str, float | int]:
        """Headline numbers: totals plus per-type improved fractions."""
        info: dict[str, float | int] = {
            "rounds": len(self.rounds),
            "total_cases": self.total_cases,
            "total_pings": self.total_pings,
            "relays_registered": len(self.registry),
        }
        for relay_type in RELAY_TYPE_ORDER:
            info[f"improved_frac_{relay_type.value}"] = round(
                self.improved_fraction(relay_type), 4
            )
        return info
