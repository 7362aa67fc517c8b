"""Columnar observation storage: the campaign's results as NumPy columns.

The paper's unit of analysis is the *case* — one endpoint pair in one
round.  A campaign produces tens of thousands of them, and every analysis
is a reduction over the whole set (fractions, medians, CDFs, rankings).
Packaging each case into a :class:`~repro.core.results.PairObservation`
object at the round boundary therefore throws away the matrix shape the
measurement engine already computed, only for the analyses to re-iterate
the objects in pure Python.

:class:`ObservationTable` keeps the campaign matrix-shaped end to end:
a structure-of-arrays layout with one int/float/bool column per field,
string identities (probe ids, country codes, cities) interned to integer
codes, and the ragged per-case improving-relay lists stored as one CSR
block (``imp_indptr`` over ``case * num_types + type_code`` groups into
flat ``imp_relay`` / ``imp_gain`` arrays).  The stitching step fills the
columns directly from the matrices it already holds; analyses reduce them
with NumPy; :class:`PairObservation` objects survive as a *lazily
materialized adapter* for callers that want per-case records.

Tables are cheap to ship between processes (a handful of flat arrays —
see :meth:`ObservationTable.to_payload`), which is what the multi-seed
sweep uses to return whole campaigns from worker processes without
pickling object lists.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.types import RELAY_TYPE_ORDER
from repro.errors import AnalysisError
from repro.geo.countries import continent_of

if TYPE_CHECKING:  # circular at runtime: results.py holds tables
    from repro.core.results import PairObservation

#: Number of relay-type lanes every per-type column carries.
NUM_RELAY_TYPES = len(RELAY_TYPE_ORDER)

#: Order of the four country-group flags in the ``country_flags`` column
#: (matches ``PairObservation.country_groups_by_type`` tuples).
COUNTRY_FLAG_LABELS = (
    "usable_same_cc",
    "improving_same_cc",
    "usable_diff_cc",
    "improving_diff_cc",
)


class Interner:
    """Append-only string pool mapping strings to stable integer codes."""

    __slots__ = ("_code_of", "values")

    def __init__(self, values: Iterable[str] = ()) -> None:
        self.values: list[str] = []
        self._code_of: dict[str, int] = {}
        for value in values:
            self.code(value)

    def code(self, value: str) -> int:
        """The value's code, interning it on first sight."""
        code = self._code_of.get(value)
        if code is None:
            code = len(self.values)
            self._code_of[value] = code
            self.values.append(value)
        return code

    def codes(self, values: Iterable[str]) -> np.ndarray:
        """Codes for a value sequence as an ``int32`` array."""
        code = self.code
        return np.fromiter((code(v) for v in values), np.int32)

    def lookup(self, value: str) -> int:
        """The value's code without interning it; -1 when unknown."""
        return self._code_of.get(value, -1)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, code: int) -> str:
        return self.values[code]


@dataclass(frozen=True, slots=True)
class TablePools:
    """The three string pools a table's integer codes point into.

    One pools object is shared by every round table of a campaign (and by
    their concatenation), so codes are globally consistent and
    concatenation is a plain array concatenate.
    """

    endpoint_ids: Interner
    countries: Interner
    cities: Interner

    @classmethod
    def fresh(cls) -> TablePools:
        return cls(Interner(), Interner(), Interner())


class ObservationTable:
    """Structure-of-arrays storage for a set of pair observations.

    Columns (``n`` = cases, ``T`` = :data:`NUM_RELAY_TYPES`):

    * ``round_idx`` — ``(n,) int32`` round of each case;
    * ``e1_id`` / ``e2_id`` — ``(n,) int32`` endpoint-id pool codes;
    * ``e1_cc`` / ``e2_cc`` — ``(n,) int32`` country pool codes;
    * ``e1_city`` / ``e2_city`` — ``(n,) int32`` city pool codes;
    * ``direct_rtt_ms`` — ``(n,) float64`` direct-path medians;
    * ``best_relay`` — ``(T, n) int32`` registry index of the type's best
      usable relay, ``-1`` when the type had none;
    * ``best_stitched`` — ``(T, n) float64`` its stitched RTT (NaN = none);
    * ``feasible`` — ``(T, n) int32`` relays passing the Sec 2.4 bound;
    * ``country_flags`` — ``(T, 4, n) bool`` in
      :data:`COUNTRY_FLAG_LABELS` order;
    * ``imp_indptr`` / ``imp_relay`` / ``imp_gain`` — CSR block of the
      ragged improving-relay lists: group ``i * T + c`` holds case ``i``'s
      type-``c`` entries, ``imp_relay`` is the registry index and
      ``imp_gain`` the improvement in ms.
    """

    __slots__ = (
        "pools",
        "round_idx",
        "e1_id",
        "e2_id",
        "e1_cc",
        "e2_cc",
        "e1_city",
        "e2_city",
        "direct_rtt_ms",
        "best_relay",
        "best_stitched",
        "feasible",
        "country_flags",
        "imp_indptr",
        "imp_relay",
        "imp_gain",
        "_imp_counts",
        "_type_entries",
        "_materialized",
    )

    _ARRAY_FIELDS = (
        "round_idx",
        "e1_id",
        "e2_id",
        "e1_cc",
        "e2_cc",
        "e1_city",
        "e2_city",
        "direct_rtt_ms",
        "best_relay",
        "best_stitched",
        "feasible",
        "country_flags",
        "imp_indptr",
        "imp_relay",
        "imp_gain",
    )

    def __init__(self, pools: TablePools, **columns: np.ndarray) -> None:
        self.pools = pools
        for name in self._ARRAY_FIELDS:
            setattr(self, name, columns[name])
        n = self.round_idx.shape[0]
        if self.best_relay.shape != (NUM_RELAY_TYPES, n):
            raise AnalysisError(
                f"best_relay shape {self.best_relay.shape} != ({NUM_RELAY_TYPES}, {n})"
            )
        if self.imp_indptr.shape[0] != n * NUM_RELAY_TYPES + 1:
            raise AnalysisError(
                f"imp_indptr length {self.imp_indptr.shape[0]} != "
                f"{n * NUM_RELAY_TYPES + 1}"
            )
        self._imp_counts: np.ndarray | None = None
        self._type_entries: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._materialized: list[PairObservation] | None = None

    # ------------------------------------------------------------ basic shape

    @property
    def num_cases(self) -> int:
        """Number of cases (rows) in the table."""
        return self.round_idx.shape[0]

    @classmethod
    def empty(cls, pools: TablePools | None = None) -> ObservationTable:
        """A zero-case table (e.g. a round that measured nothing)."""
        pools = pools or TablePools.fresh()
        i32 = np.zeros(0, np.int32)
        return cls(
            pools,
            round_idx=i32,
            e1_id=i32,
            e2_id=i32,
            e1_cc=i32,
            e2_cc=i32,
            e1_city=i32,
            e2_city=i32,
            direct_rtt_ms=np.zeros(0, float),
            best_relay=np.full((NUM_RELAY_TYPES, 0), -1, np.int32),
            best_stitched=np.full((NUM_RELAY_TYPES, 0), np.nan),
            feasible=np.zeros((NUM_RELAY_TYPES, 0), np.int32),
            country_flags=np.zeros((NUM_RELAY_TYPES, 4, 0), bool),
            imp_indptr=np.zeros(1, np.int64),
            imp_relay=np.zeros(0, np.int32),
            imp_gain=np.zeros(0, float),
        )

    # ------------------------------------------------------- column reductions

    def improving_counts(self) -> np.ndarray:
        """``(T, n)`` number of improving relays per case and type."""
        if self._imp_counts is None:
            counts = np.diff(self.imp_indptr)
            self._imp_counts = (
                counts.reshape(self.num_cases, NUM_RELAY_TYPES).T.copy()
            )
        return self._imp_counts

    def improved_mask(self, type_code: int) -> np.ndarray:
        """``(n,)`` bool: did any relay of the type beat the direct path?"""
        return self.improving_counts()[type_code] > 0

    def improved_count(self, type_code: int) -> int:
        """How many cases the type improved (served from cached counts)."""
        return int(np.count_nonzero(self.improved_mask(type_code)))

    def type_entries(self, type_code: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The type's improving entries as ``(case_idx, relay, gain)`` arrays.

        Entries are ordered by case, and within a case in the round's relay
        order — exactly the order the object path iterates them.
        """
        cached = self._type_entries.get(type_code)
        if cached is not None:
            return cached
        counts = self.improving_counts()[type_code]
        cases = np.repeat(np.nonzero(counts)[0], counts[counts > 0])
        groups = cases.astype(np.int64) * NUM_RELAY_TYPES + type_code
        starts = self.imp_indptr[groups]
        # per-entry offset within its group: 0,1,... per run of equal cases
        offsets = np.arange(cases.size) - np.repeat(
            np.concatenate(([0], np.cumsum(counts[counts > 0])))[:-1],
            counts[counts > 0],
        )
        idx = starts + offsets
        entry = (cases, self.imp_relay[idx], self.imp_gain[idx])
        self._type_entries[type_code] = entry
        return entry

    def best_gain_per_improved_case(
        self, type_code: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per improved case (in case order): ``(case_idx, max gain)``.

        The columnar translation of ``max(gain for _, gain in entries)``
        over each case's improving list — identical floats, since the max
        of a set does not depend on reduction order.
        """
        cases, _, gains = self.type_entries(type_code)
        if cases.size == 0:
            return cases, gains
        starts = np.flatnonzero(np.diff(cases, prepend=-1))
        return cases[starts], np.maximum.reduceat(gains, starts)

    # ------------------------------------------------------- lane accessors
    #
    # The serving layer (:mod:`repro.service`) and the columnar history
    # predictor group cases into *lanes*: an unordered endpoint or country
    # pair packed into one int64 key.  Packing is (min << 32) | max over the
    # two codes, so a lane key is a pure function of the unordered pair and
    # two cases land in the same lane iff they connect the same pair —
    # regardless of which side the table stored as e1/e2.

    @staticmethod
    def pack_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Canonical int64 lane keys for two parallel code columns."""
        lo = np.minimum(a, b).astype(np.int64)
        hi = np.maximum(a, b).astype(np.int64)
        return (lo << 32) | hi

    @staticmethod
    def unpack_pair(key: int) -> tuple[int, int]:
        """The (low, high) codes a :meth:`pack_pairs` key was built from."""
        return int(key) >> 32, int(key) & 0xFFFFFFFF

    def cc_pair_keys(self) -> np.ndarray:
        """``(n,) int64`` canonical country-pair lane key per case."""
        return self.pack_pairs(self.e1_cc, self.e2_cc)

    def endpoint_pair_keys(self) -> np.ndarray:
        """``(n,) int64`` canonical endpoint-pair lane key per case."""
        return self.pack_pairs(self.e1_id, self.e2_id)

    def round_values(self) -> np.ndarray:
        """Sorted unique round indices present in the table."""
        return np.unique(self.round_idx)

    def round_mask(self, round_index: int) -> np.ndarray:
        """``(n,) bool`` mask selecting one round's cases."""
        return self.round_idx == round_index

    def country_codes_for(self, ccs: Iterable[str]) -> np.ndarray:
        """Codes (in this table's country pool) for a cc sequence.

        Used to translate relay-registry countries into the same code
        space as the ``e1_cc`` / ``e2_cc`` columns.  Read-only: a country
        absent from the pool maps to -1 (it can never equal an endpoint's
        code), leaving the shared pools untouched by analyses.
        """
        lookup = self.pools.countries.lookup
        return np.fromiter((lookup(cc) for cc in ccs), np.int32)

    def continent_codes(self) -> np.ndarray:
        """Per country-pool entry: an integer continent code."""
        continents = Interner()
        return np.fromiter(
            (continents.code(continent_of(cc)) for cc in self.pools.countries.values),
            np.int32,
            len(self.pools.countries),
        )

    # --------------------------------------------------------- materialization

    def observation(self, i: int) -> PairObservation:
        """Materialize case ``i`` as a :class:`PairObservation`."""
        from repro.core.results import PairObservation

        pools = self.pools
        ptr = self.imp_indptr
        base = i * NUM_RELAY_TYPES
        best: dict = {}
        improving: dict = {}
        feasible: dict = {}
        groups: dict = {}
        for code, relay_type in enumerate(RELAY_TYPE_ORDER):
            relay = int(self.best_relay[code, i])
            if relay >= 0:
                best[relay_type] = (relay, float(self.best_stitched[code, i]))
            j0, j1 = int(ptr[base + code]), int(ptr[base + code + 1])
            improving[relay_type] = tuple(
                zip(self.imp_relay[j0:j1].tolist(), self.imp_gain[j0:j1].tolist())
            )
            feasible[relay_type] = int(self.feasible[code, i])
            groups[relay_type] = tuple(self.country_flags[code, :, i].tolist())
        return PairObservation(
            round_index=int(self.round_idx[i]),
            e1_id=pools.endpoint_ids[self.e1_id[i]],
            e2_id=pools.endpoint_ids[self.e2_id[i]],
            e1_cc=pools.countries[self.e1_cc[i]],
            e2_cc=pools.countries[self.e2_cc[i]],
            e1_city=pools.cities[self.e1_city[i]],
            e2_city=pools.cities[self.e2_city[i]],
            direct_rtt_ms=float(self.direct_rtt_ms[i]),
            best_by_type=best,
            improving_by_type=improving,
            feasible_by_type=feasible,
            country_groups_by_type=groups,
        )

    def materialized(self) -> list[PairObservation]:
        """All cases as objects; built once and cached on the table."""
        if self._materialized is None:
            self._materialized = [self.observation(i) for i in range(self.num_cases)]
        return self._materialized

    def __iter__(self) -> Iterator[PairObservation]:
        return iter(self.materialized())

    def __len__(self) -> int:
        return self.num_cases

    # ---------------------------------------------------------- constructors

    @classmethod
    def from_observations(
        cls,
        observations: Sequence[PairObservation],
        pools: TablePools | None = None,
    ) -> ObservationTable:
        """Build a table from existing objects (object-level callers, tests).

        The adapter direction: object in, columns out.  Missing per-type
        entries get the same defaults the campaign writes (no best relay,
        zero feasible, all-false country flags, empty improving list).
        """
        pools = pools or TablePools.fresh()
        n = len(observations)
        if n == 0:
            return cls.empty(pools)
        round_idx = np.fromiter((o.round_index for o in observations), np.int32, n)
        e1_id = pools.endpoint_ids.codes(o.e1_id for o in observations)
        e2_id = pools.endpoint_ids.codes(o.e2_id for o in observations)
        e1_cc = pools.countries.codes(o.e1_cc for o in observations)
        e2_cc = pools.countries.codes(o.e2_cc for o in observations)
        e1_city = pools.cities.codes(o.e1_city for o in observations)
        e2_city = pools.cities.codes(o.e2_city for o in observations)
        direct = np.fromiter((o.direct_rtt_ms for o in observations), float, n)
        best_relay = np.full((NUM_RELAY_TYPES, n), -1, np.int32)
        best_stitched = np.full((NUM_RELAY_TYPES, n), np.nan)
        feasible = np.zeros((NUM_RELAY_TYPES, n), np.int32)
        country_flags = np.zeros((NUM_RELAY_TYPES, 4, n), bool)
        indptr = np.zeros(n * NUM_RELAY_TYPES + 1, np.int64)
        imp_relay: list[int] = []
        imp_gain: list[float] = []
        for i, obs in enumerate(observations):
            for code, relay_type in enumerate(RELAY_TYPE_ORDER):
                entry = obs.best_by_type.get(relay_type)
                if entry is not None:
                    best_relay[code, i] = entry[0]
                    best_stitched[code, i] = entry[1]
                feasible[code, i] = obs.feasible_by_type.get(relay_type, 0)
                flags = obs.country_groups_by_type.get(relay_type)
                if flags is not None:
                    country_flags[code, :, i] = flags
                entries = obs.improving_by_type.get(relay_type, ())
                for relay, gain in entries:
                    imp_relay.append(relay)
                    imp_gain.append(gain)
                indptr[i * NUM_RELAY_TYPES + code + 1] = len(imp_relay)
        return cls(
            pools,
            round_idx=round_idx,
            e1_id=e1_id,
            e2_id=e2_id,
            e1_cc=e1_cc,
            e2_cc=e2_cc,
            e1_city=e1_city,
            e2_city=e2_city,
            direct_rtt_ms=direct,
            best_relay=best_relay,
            best_stitched=best_stitched,
            feasible=feasible,
            country_flags=country_flags,
            imp_indptr=indptr,
            imp_relay=np.asarray(imp_relay, np.int32),
            imp_gain=np.asarray(imp_gain, float),
        )

    @classmethod
    def concat(cls, tables: Sequence[ObservationTable]) -> ObservationTable:
        """Concatenate round tables into one campaign table.

        Tables sharing one pools object (the campaign case) concatenate
        without touching any codes; tables with distinct pools (e.g. sweep
        payloads from different seeds) are re-coded into a fresh union
        pool first.
        """
        tables = [t for t in tables]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        shared = all(t.pools is tables[0].pools for t in tables)
        if shared:
            pools = tables[0].pools
            remaps = None
        else:
            pools = TablePools.fresh()
            remaps = [
                {
                    "id": pools.endpoint_ids.codes(t.pools.endpoint_ids.values),
                    "cc": pools.countries.codes(t.pools.countries.values),
                    "city": pools.cities.codes(t.pools.cities.values),
                }
                for t in tables
            ]

        def col(name: str, idx: int, table: ObservationTable) -> np.ndarray:
            arr = getattr(table, name)
            if remaps is None:
                return arr
            remap = remaps[idx]
            if name in ("e1_id", "e2_id"):
                return remap["id"][arr] if arr.size else arr
            if name in ("e1_cc", "e2_cc"):
                return remap["cc"][arr] if arr.size else arr
            if name in ("e1_city", "e2_city"):
                return remap["city"][arr] if arr.size else arr
            return arr

        columns: dict[str, np.ndarray] = {}
        for name in cls._ARRAY_FIELDS:
            if name == "imp_indptr":
                continue
            axis = -1 if name in ("best_relay", "best_stitched", "feasible", "country_flags") else 0
            columns[name] = np.concatenate(
                [col(name, i, t) for i, t in enumerate(tables)], axis=axis
            )
        parts = [tables[0].imp_indptr]
        offset = int(tables[0].imp_indptr[-1])
        for t in tables[1:]:
            parts.append(t.imp_indptr[1:] + offset)
            offset += int(t.imp_indptr[-1])
        columns["imp_indptr"] = np.concatenate(parts)
        return cls(pools, **columns)

    def remap_relays(self, mapping: np.ndarray) -> ObservationTable:
        """A copy with every relay registry index sent through ``mapping``.

        ``mapping`` maps this table's registry indices to another
        registry's (see :meth:`repro.core.results.RelayRegistry.absorb`);
        ``-1`` sentinels in ``best_relay`` are preserved.  String pools
        are shared with the original, so concatenating remapped tables
        from different seeds still goes through the union-pool path.
        """
        columns = {name: getattr(self, name) for name in self._ARRAY_FIELDS}
        if self.imp_relay.size:
            columns["imp_relay"] = mapping[self.imp_relay].astype(np.int32)
        best = self.best_relay.copy()
        known = best >= 0
        if known.any():
            best[known] = mapping[best[known]]
        columns["best_relay"] = best
        return type(self)(self.pools, **columns)

    # ------------------------------------------------------------- transport

    def to_payload(self) -> dict[str, Any]:
        """A compact, picklable representation (flat arrays + pools).

        This is what sweep workers send back over IPC: a dozen contiguous
        buffers instead of one Python object per case.
        """
        return {
            "pools": {
                "endpoint_ids": list(self.pools.endpoint_ids.values),
                "countries": list(self.pools.countries.values),
                "cities": list(self.pools.cities.values),
            },
            "columns": {name: getattr(self, name) for name in self._ARRAY_FIELDS},
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> ObservationTable:
        """Rebuild a table from :meth:`to_payload` output."""
        pools = TablePools(
            Interner(payload["pools"]["endpoint_ids"]),
            Interner(payload["pools"]["countries"]),
            Interner(payload["pools"]["cities"]),
        )
        return cls(pools, **payload["columns"])

    # -------------------------------------------------------------- equality

    def columns_equal(self, other: ObservationTable) -> bool:
        """True if both tables hold identical decoded content.

        Codes are compared *decoded* (through the pools), so two tables
        built with different interning orders still compare equal when
        they describe the same observations.
        """
        if self.num_cases != other.num_cases:
            return False
        for name, pool in (
            ("e1_id", "endpoint_ids"),
            ("e2_id", "endpoint_ids"),
            ("e1_cc", "countries"),
            ("e2_cc", "countries"),
            ("e1_city", "cities"),
            ("e2_city", "cities"),
        ):
            mine = [getattr(self.pools, pool)[c] for c in getattr(self, name)]
            theirs = [getattr(other.pools, pool)[c] for c in getattr(other, name)]
            if mine != theirs:
                return False
        for name in ("round_idx", "best_relay", "feasible", "country_flags",
                     "imp_indptr", "imp_relay"):
            if not np.array_equal(getattr(self, name), getattr(other, name)):
                return False
        for name in ("direct_rtt_ms", "best_stitched", "imp_gain"):
            if not np.array_equal(
                getattr(self, name), getattr(other, name), equal_nan=True
            ):
                return False
        return True
