"""Columnar observation storage: the campaign's cases as NumPy columns.

The paper's unit of analysis is the *case* — one endpoint pair in one
round.  A campaign produces tens of thousands of them, and every analysis
is a reduction over the whole set (fractions, medians, CDFs, rankings).

:class:`ObservationTable` is the one representation of a case, kept
matrix-shaped end to end: a structure-of-arrays layout with one
int/float/bool column per field, string identities (probe ids, country
codes, cities) interned to integer codes, and the ragged per-case
improving-relay lists stored as one CSR block (``imp_indptr`` over
``case * num_types + type_code`` groups into flat ``imp_relay`` /
``imp_gain`` arrays).  The stitching step fills the columns directly from
the matrices it already holds; the analyses, the serving directory and
the result file read the columns, and no per-case object is built.

Tables are cheap to ship between processes (a handful of flat arrays —
see :meth:`ObservationTable.to_payload`), which is what the multi-seed
sweep uses to return whole campaigns from worker processes without
pickling object lists.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.types import RELAY_TYPE_ORDER
from repro.errors import AnalysisError
from repro.geo.countries import continent_of

#: Number of relay-type lanes every per-type column carries.
NUM_RELAY_TYPES = len(RELAY_TYPE_ORDER)

#: Order of the four country-group flags in the ``country_flags`` column,
#: the data of the "Changing Countries and Paths" analysis: per case and
#: relay type, whether a relay sharing a country with an endpoint (resp. a
#: relay in a third country) was usable — feasible with both legs
#: measured — and whether one of them improved the pair.
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
    """Structure-of-arrays storage for a set of cases.

    Columns (``n`` = cases, ``T`` = :data:`NUM_RELAY_TYPES`):

    * ``round_idx`` — ``(n,) int32`` round of each case;
    * ``e1_id`` / ``e2_id`` — ``(n,) int32`` endpoint-id pool codes;
    * ``e1_cc`` / ``e2_cc`` — ``(n,) int32`` country pool codes (a case's
      two countries always differ, Sec 2.1);
    * ``e1_city`` / ``e2_city`` — ``(n,) int32`` city pool codes;
    * ``direct_rtt_ms`` — ``(n,) float64`` direct-path medians (step 4's
      re-measurement);
    * ``best_relay`` — ``(T, n) int32`` registry index of the type's best
      usable relay (feasible, both legs measured, least stitched RTT),
      ``-1`` when the type had none;
    * ``best_stitched`` — ``(T, n) float64`` its stitched RTT (NaN = none);
    * ``feasible`` — ``(T, n) int32`` relays passing the Sec 2.4 bound;
    * ``country_flags`` — ``(T, 4, n) bool`` in
      :data:`COUNTRY_FLAG_LABELS` order;
    * ``imp_indptr`` / ``imp_relay`` / ``imp_gain`` — CSR block of the
      ragged improving-relay lists: group ``i * T + c`` holds case ``i``'s
      type-``c`` entries, ``imp_relay`` is the registry index and
      ``imp_gain`` the improvement in ms.

    Every type's best gain per improved case comes from one segment max
    over the block's non-empty groups
    (:meth:`best_gain_per_improved_case`), which attaches nothing to the
    table; :meth:`type_entries` expands one type's entries and caches them
    for the analyses that read them repeatedly.
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
    )

    #: Each string pool and the code columns that point into it.
    _POOL_FIELDS = (
        ("endpoint_ids", ("e1_id", "e2_id")),
        ("countries", ("e1_cc", "e2_cc")),
        ("cities", ("e1_city", "e2_city")),
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
        m = self.imp_relay.shape[0]
        per_type = (NUM_RELAY_TYPES, n)
        shapes = dict.fromkeys(self._ARRAY_FIELDS, (n,))
        shapes.update(
            best_relay=per_type,
            best_stitched=per_type,
            feasible=per_type,
            country_flags=(NUM_RELAY_TYPES, 4, n),
            imp_indptr=(n * NUM_RELAY_TYPES + 1,),
            imp_relay=(m,),
            imp_gain=(m,),
        )
        for name, shape in shapes.items():
            got = getattr(self, name).shape
            if got != shape:
                raise AnalysisError(f"{name} shape {got} != {shape}")
        self._imp_counts: np.ndarray | None = None
        self._type_entries: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------ basic shape

    @property
    def num_cases(self) -> int:
        """Number of cases (rows) in the table."""
        return self.round_idx.shape[0]

    def __len__(self) -> int:
        return self.num_cases

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
        order, as the CSR block stores them.
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

    def best_gain_per_improved_case(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per type code: ``(case_idx, max gain)`` of each improved case.

        All four types come from one ``maximum.reduceat`` over the starts of
        the non-empty ``(case, type)`` CSR groups: only empty groups lie
        between two consecutive ones, and the last one ends the block, so
        each segment is exactly one group.  A max does not depend on
        reduction order, so each equals a per-case Python ``max`` float for
        float.  Cases come in case order, and nothing is cached on the table.
        """
        indptr = self.imp_indptr
        groups = np.flatnonzero(indptr[1:] != indptr[:-1])
        gains = np.maximum.reduceat(self.imp_gain, indptr[groups])
        cases, types = np.divmod(groups, NUM_RELAY_TYPES)
        best = []
        for code in range(NUM_RELAY_TYPES):
            of_type = types == code
            best.append((cases[of_type], gains[of_type]))
        return tuple(best)

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

    def cc_pair_keys(self) -> np.ndarray:
        """``(n,) int64`` canonical country-pair lane key per case."""
        return self.pack_pairs(self.e1_cc, self.e2_cc)

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

    # ---------------------------------------------------------- constructors

    @classmethod
    def concat(
        cls,
        tables: list[ObservationTable],
        relay_maps: Sequence[np.ndarray] | None = None,
    ) -> ObservationTable:
        """Concatenate tables, writing each once into preallocated columns.

        Tables sharing one pools object (a campaign's rounds) keep their
        codes; tables with distinct pools (sweep payloads from different
        seeds) are re-coded into a fresh union pool on the way in.
        ``relay_maps`` (one per table, see
        :meth:`repro.core.results.RelayRegistry.absorb`) re-keys the relay
        registry indices the same way; ``-1`` in ``best_relay`` stays -1.

        The caller's list is consumed: each table is popped off it as it is
        written, so a table the caller holds nowhere else is freed once its
        columns are copied.
        """
        if not tables:
            return cls.empty()
        if len(tables) == 1 and relay_maps is None:
            return tables.pop()
        shared = all(t.pools is tables[0].pools for t in tables)
        pools = tables[0].pools if shared else TablePools.fresh()
        n = sum(t.num_cases for t in tables)
        m = sum(t.imp_relay.size for t in tables)
        sizes = dict.fromkeys(cls._ARRAY_FIELDS, n)
        sizes.update(imp_indptr=n * NUM_RELAY_TYPES + 1, imp_relay=m, imp_gain=m)
        columns = {}
        for name, size in sizes.items():
            like = getattr(tables[0], name)
            columns[name] = np.empty(like.shape[:-1] + (size,), like.dtype)
        indptr = columns.pop("imp_indptr")
        indptr[0] = 0
        case = entry = 0
        for index in range(len(tables)):
            table = tables.pop(0)
            luts: dict[str, np.ndarray] = {}
            if not shared:
                for pool, fields in cls._POOL_FIELDS:
                    lut = getattr(pools, pool).codes(getattr(table.pools, pool).values)
                    luts.update(dict.fromkeys(fields, lut))
            if relay_maps is not None:
                # the appended -1 sends best_relay's "none" to itself
                lut = np.append(relay_maps[index], np.int32(-1))
                luts.update(imp_relay=lut, best_relay=lut)
            k, e = table.num_cases, table.imp_relay.size
            rows, entries = slice(case, case + k), slice(entry, entry + e)
            for name, out in columns.items():
                at = entries if name in ("imp_relay", "imp_gain") else rows
                column = getattr(table, name)
                lut = luts.get(name)
                out[..., at] = column if lut is None else lut[column]
            groups = slice(case * NUM_RELAY_TYPES + 1, (case + k) * NUM_RELAY_TYPES + 1)
            np.add(table.imp_indptr[1:], entry, out=indptr[groups])
            case += k
            entry += e
        return cls(pools, imp_indptr=indptr, **columns)

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
