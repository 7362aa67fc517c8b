"""Table 1: the facilities hosting the top Colo relays.

The paper ranks the top-20 COR relays by how often they appear in improved
paths, lists the 10 distinct facilities containing them, and annotates
each with PeeringDB features: colocated network count, attached IXPs,
cloud services, and whether it is in PeeringDB's top-10 facilities by
colocated networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.ranking import TopRelayAnalysis
from repro.core.results import CampaignResult
from repro.core.types import RELAY_TYPE_ORDER, RelayType

if TYPE_CHECKING:
    from repro.world import World


@dataclass(frozen=True, slots=True)
class FacilityRow:
    """One Table 1 row.

    Attributes:
        rank: Row rank (1 = facility of the most frequent relay).
        facility_id: PeeringDB facility id.
        name: Facility name.
        pct_improved_cases: % of COR-improved cases with an improving relay
            in this facility.
        city_key: Facility city.
        num_networks: Colocated networks today.
        num_ixps: Attached IXPs.
        cloud_services: Cloud/VM services available.
        pdb_top10: In PeeringDB's top-10 facilities by colocated networks.
    """

    rank: int
    facility_id: int
    name: str
    pct_improved_cases: float
    city_key: str
    num_networks: int
    num_ixps: int
    cloud_services: bool
    pdb_top10: bool


class FacilityTable:
    """Builds the Table 1 rows from a campaign result and its world."""

    def __init__(self, result: CampaignResult, world: World) -> None:
        self._result = result
        self._world = world
        self._ranking = TopRelayAnalysis(result)

    def rows(self, top_relays: int = 20) -> list[FacilityRow]:
        """Table rows for the facilities of the top-``top_relays`` CORs."""
        registry = self._result.registry
        top = self._ranking.top_relays(RelayType.COR, top_relays)
        candidate_facilities: set[int] = {
            fac_id
            for idx in top
            if (fac_id := registry.get(idx).facility_id) is not None
        }

        # % of COR-improved cases that include a relay from each facility:
        # for each candidate facility, count the distinct cases among the
        # CSR entries whose relay it hosts
        table = self._result.table
        cor_code = RELAY_TYPE_ORDER.index(RelayType.COR)
        cases, relays, _ = table.type_entries(cor_code)
        improved_cases = table.improved_count(cor_code)
        facility_of = np.full(len(registry), -1, np.int64)
        for record in registry:
            if record.facility_id is not None:
                facility_of[record.index] = record.facility_id
        entry_facility = facility_of[relays] if relays.size else facility_of[:0]
        cases_with_facility = {
            fac_id: int(np.unique(cases[entry_facility == fac_id]).size)
            for fac_id in candidate_facilities
        }

        # the paper ranks the table by frequency of presence in improved
        # paths, i.e. facility-level improvement share
        facility_order = sorted(
            candidate_facilities,
            key=lambda f: (-cases_with_facility[f], f),
        )

        pdb = self._world.peeringdb
        pdb_top10 = set(pdb.top_facility_ids(10))
        rows = []
        for rank, fac_id in enumerate(facility_order, start=1):
            fac = pdb.facility(fac_id)
            pct = (
                100.0 * cases_with_facility[fac_id] / improved_cases
                if improved_cases
                else 0.0
            )
            rows.append(
                FacilityRow(
                    rank=rank,
                    facility_id=fac_id,
                    name=fac.name,
                    pct_improved_cases=round(pct, 1),
                    city_key=fac.city_key,
                    num_networks=pdb.network_count(fac_id),
                    num_ixps=pdb.ixp_count(fac_id),
                    cloud_services=fac.cloud_services,
                    pdb_top10=fac_id in pdb_top10,
                )
            )
        return rows

    def render(self, top_relays: int = 20) -> str:
        """Plain-text rendering of the table (for benches and examples)."""
        lines = [
            f"{'#':>2}  {'Facility':<28} {'%Impr':>6} {'City':<18} "
            f"{'#Nets':>5} {'#IXPs':>5} {'Cloud':>5} {'PDB10':>5}"
        ]
        for row in self.rows(top_relays):
            lines.append(
                f"{row.rank:>2}  {row.name:<28} {row.pct_improved_cases:>6.1f} "
                f"{row.city_key:<18} {row.num_networks:>5} {row.num_ixps:>5} "
                f"{'yes' if row.cloud_services else 'no':>5} "
                f"{'yes' if row.pdb_top10 else 'no':>5}"
            )
        return "\n".join(lines)
