"""Colo relay selection: the five-filter pipeline of Sec 2.2.

Starting from the aged facility-mapping dataset, apply in order:

1. **Single-facility & active PeeringDB presence** — keep records whose
   candidate set converged to exactly one facility that still exists;
2. **Pingability** — keep addresses that still answer pings;
3. **Same IP-ownership** — keep addresses whose current prefix2as origin
   equals the recorded ASN and is not MOAS;
4. **Active facility presence of ASN** — keep addresses whose owner is
   still a member of the candidate facility per current PeeringDB;
5. **RTT-based geolocation** — keep addresses whose minimum last-hop RTT
   from looking glasses in the facility's city stays under the threshold
   (1 ms), using Periscope.

The pipeline reports per-stage survivor counts (the paper's
2675 -> 1008 -> 764 -> 725 -> 725 -> 356 funnel) and yields the verified
relay pool the campaign samples 1-3 IPs per facility from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import CampaignConfig
from repro.datasets.facility_mapping import FacilityMappingRecord
from repro.errors import MeasurementError
from repro.latency.model import Endpoint
from repro.measurement.nodes import MeasurementNode
from repro.topology.types import ASType
from repro.world import World


@dataclass(frozen=True, slots=True)
class VerifiedColoRelay:
    """A colo IP that survived all five filters.

    Attributes:
        node: The pingable interface.
        facility_id: The (verified) facility hosting it.
        record: The originating dataset row.
    """

    node: MeasurementNode
    facility_id: int
    record: FacilityMappingRecord


@dataclass(frozen=True, slots=True)
class FilterReport:
    """Survivor counts after each pipeline stage.

    ``stages`` maps stage name to the number of records still alive after
    the stage ran; ``initial`` is the dataset size going in.
    """

    initial: int
    stages: tuple[tuple[str, int], ...]

    def funnel(self) -> list[int]:
        """[initial, after-stage-1, ..., after-stage-5]."""
        return [self.initial] + [count for _, count in self.stages]

    def __str__(self) -> str:
        parts = [f"initial={self.initial}"]
        parts.extend(f"{name}={count}" for name, count in self.stages)
        return " -> ".join(parts)


class ColoRelayPipeline:
    """Runs the Sec 2.2 filters against a world's datasets."""

    STAGE_NAMES = (
        "single_facility_active_pdb",
        "pingability",
        "same_ip_ownership",
        "active_facility_presence",
        "rtt_geolocation",
    )

    def __init__(
        self,
        world: World,
        config: CampaignConfig | None = None,
    ) -> None:
        self._world = world
        self._cfg = config or CampaignConfig()
        self._verified: list[VerifiedColoRelay] | None = None
        self._report: FilterReport | None = None
        self._monitor = self._make_monitor_endpoint()

    def _make_monitor_endpoint(self) -> Endpoint:
        """A well-connected vantage the pipeline pings targets from
        (standing in for the authors' measurement server)."""
        tier1s = self._world.topology.asns_of_type(ASType.TRANSIT_GLOBAL)
        if not tier1s:
            raise MeasurementError("world has no tier-1 AS to host the monitor")
        asys = self._world.graph.get_as(tier1s[0])
        return Endpoint(
            node_id="pipeline-monitor",
            asn=asys.asn,
            city_key=asys.primary_city,
            access_ms=1.0,
            loss_prob=0.001,
        )

    # -------------------------------------------------------------- pipeline

    def run(self) -> tuple[list[VerifiedColoRelay], FilterReport]:
        """Execute all five filters; cached after the first call."""
        if self._verified is not None and self._report is not None:
            return list(self._verified), self._report
        world = self._world
        rng = world.seeds.rng("colo_pipeline")
        records = list(world.facility_mapping.records())
        initial = len(records)
        counts: list[tuple[str, int]] = []

        # 1. single facility, still present in PeeringDB
        records = [
            r
            for r in records
            if r.is_single_facility
            and world.peeringdb.has_facility(next(iter(r.candidate_facility_ids)))
        ]
        counts.append((self.STAGE_NAMES[0], len(records)))

        # 2. pingability (3 probe packets from the monitor, one batched
        # sweep over every candidate instead of one ping batch each)
        candidates = [
            (record, node)
            for record in records
            if (node := world.node_by_ip(record.ip)) is not None
        ]
        alive = world.ping_engine.any_response_many(
            [(self._monitor, node.endpoint) for _, node in candidates], rng
        )
        records = [record for (record, _), ok in zip(candidates, alive) if ok]
        counts.append((self.STAGE_NAMES[1], len(records)))

        # 3. same IP-ownership, no MOAS
        survivors = []
        for record in records:
            origins = set(world.prefix2as.origins(record.ip))
            if origins == {record.recorded_asn}:
                survivors.append(record)
        records = survivors
        counts.append((self.STAGE_NAMES[2], len(records)))

        # 4. owner still present at the facility
        records = [
            r
            for r in records
            if world.peeringdb.is_present(
                r.recorded_asn, next(iter(r.candidate_facility_ids))
            )
        ]
        counts.append((self.STAGE_NAMES[3], len(records)))

        # 5. RTT-based geolocation from same-city looking glasses
        threshold = world.config.datasets.geolocation_rtt_threshold_ms
        targets: list[tuple[FacilityMappingRecord, int, str, MeasurementNode]] = []
        for record in records:
            fac_id = next(iter(record.candidate_facility_ids))
            city_key = world.peeringdb.city_of(fac_id)
            node = world.node_by_ip(record.ip)
            assert node is not None  # survived the pingability filter
            targets.append((record, fac_id, city_key, node))
        # resolve every (LG, target) leg's deterministic base/loss entry in
        # one batched pass, so the per-leg path resolution — the pipeline's
        # dominant one-time cost — runs vectorized; the min-RTT loop below
        # then hits a warm pair cache.  Warming draws no random numbers, so
        # the loop's RNG consumption and the verified pool do not depend on
        # it (the pool is pinned in tests/test_golden.py)
        world.latency.warm_pairs(
            [
                (lg.node.endpoint, node.endpoint)
                for _, _, city_key, node in targets
                for lg in world.periscope.lgs_in(city_key)
            ]
        )
        verified: list[VerifiedColoRelay] = []
        for record, fac_id, city_key, node in targets:
            min_rtt = world.periscope.min_last_hop_rtt(node.endpoint, city_key, rng)
            if min_rtt is not None and min_rtt <= threshold:
                verified.append(
                    VerifiedColoRelay(node=node, facility_id=fac_id, record=record)
                )
        counts.append((self.STAGE_NAMES[4], len(verified)))

        self._verified = verified
        self._report = FilterReport(initial=initial, stages=tuple(counts))
        return list(verified), self._report

    # -------------------------------------------------------------- sampling

    def verified_relays(self) -> list[VerifiedColoRelay]:
        """The full verified pool (runs the pipeline if needed)."""
        relays, _ = self.run()
        return relays

    def report(self) -> FilterReport:
        """The per-stage survivor counts (runs the pipeline if needed)."""
        _, report = self.run()
        return report

    def facilities_covered(self) -> set[int]:
        """Facility ids with at least one verified relay."""
        return {relay.facility_id for relay in self.verified_relays()}

    def sample_relays(self, rng: np.random.Generator) -> list[VerifiedColoRelay]:
        """Per-round sample: 1-3 IPs per facility (Sec 2.2, last paragraph).

        Covers every facility with a verified relay while capturing
        within-facility variance.
        """
        low, high = self._cfg.colo_ips_per_facility
        by_facility: dict[int, list[VerifiedColoRelay]] = {}
        for relay in self.verified_relays():
            by_facility.setdefault(relay.facility_id, []).append(relay)
        sampled: list[VerifiedColoRelay] = []
        for fac_id in sorted(by_facility):
            pool = by_facility[fac_id]
            want = int(rng.integers(low, high + 1))
            take = min(want, len(pool))
            idx = rng.choice(len(pool), size=take, replace=False)
            sampled.extend(pool[i] for i in sorted(idx))
        return sampled
