"""Periscope: looking-glass-based RTT geolocation.

Periscope (Giotsas et al., PAM 2016) federates public looking-glass
servers; the paper uses LGs *in the same city as a candidate facility* to
verify that a colo IP really is in that city, keeping IPs whose minimum
last-hop traceroute RTT stays under 1 ms (Sec 2.2, last filter).  This
substrate places LG servers in transit PoPs at a subset of facility metros
and answers minimum-RTT queries through the latency model.  The last hop
of a traceroute is the target itself, so its RTT is a ping of the target,
sampled once per looking-glass leg.  City coverage gaps (no LG in town ->
no measurement -> IP dropped) occur just like they did in the real study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.cities import city as city_of
from repro.latency.model import Endpoint, LatencyModel
from repro.measurement.config import InfrastructureConfig
from repro.measurement.nodes import HostAddressBook, MeasurementNode, NodeKind
from repro.topology.builder import Topology
from repro.topology.types import ASType
from repro.util.rand import SeedSequenceFactory


@dataclass(frozen=True, slots=True)
class LookingGlass:
    """A looking-glass server: a traceroute vantage point in some city."""

    node: MeasurementNode

    @property
    def city_key(self) -> str:
        """City the LG is in."""
        return self.node.city_key


class Periscope:
    """LG registry plus the minimum-last-hop-RTT query the filter needs."""

    def __init__(
        self,
        topology: Topology,
        model: LatencyModel,
        address_book: HostAddressBook,
        config: InfrastructureConfig,
        seeds: SeedSequenceFactory,
    ) -> None:
        self._model = model
        self._seeds = seeds
        self._lgs_by_city: dict[str, list[LookingGlass]] = {}
        self._generate(topology, address_book, config, seeds.rng("periscope.generate"))

    def _generate(self, topology: Topology, book: HostAddressBook, cfg, rng) -> None:
        graph = topology.graph
        facility_cities = sorted({f.city_key for f in topology.facilities.values()})
        counter = 0
        for city_key in facility_cities:
            # major metros practically always have public looking glasses
            # (Periscope federates 1800+ LGs in 500+ cities); smaller
            # facility metros are covered with the configured probability
            coverage_prob = 0.97 if city_of(city_key).population_m >= 8.0 else cfg.lg_city_prob
            if rng.random() >= coverage_prob:
                continue
            hosts = [
                asys.asn
                for asys in graph
                if asys.as_type in (ASType.TRANSIT_GLOBAL, ASType.TRANSIT_REGIONAL)
                and asys.has_pop_in(city_key)
            ]
            if not hosts:
                continue
            lo, hi = cfg.lgs_per_city
            for _ in range(int(rng.integers(lo, hi + 1))):
                counter += 1
                asn = hosts[int(rng.integers(len(hosts)))]
                node_id = f"lg-{counter:04d}"
                node = MeasurementNode(
                    node_id=node_id,
                    kind=NodeKind.LOOKING_GLASS,
                    ip=book.next_address(asn),
                    endpoint=Endpoint(
                        node_id=node_id,
                        asn=asn,
                        city_key=city_key,
                        access_ms=float(rng.uniform(*cfg.lg_access_ms)),
                        loss_prob=0.001,
                    ),
                )
                self._lgs_by_city.setdefault(city_key, []).append(LookingGlass(node))

    # ----------------------------------------------------------------- query

    def covered_cities(self) -> list[str]:
        """Cities that have at least one looking glass."""
        return sorted(self._lgs_by_city)

    def lgs_in(self, city_key: str) -> list[LookingGlass]:
        """Looking glasses in a city (possibly empty)."""
        return list(self._lgs_by_city.get(city_key, []))

    def num_lgs(self) -> int:
        """Total LG count."""
        return sum(len(v) for v in self._lgs_by_city.values())

    def min_last_hop_rtt(
        self, target: Endpoint, city_key: str, rng: np.random.Generator
    ) -> float | None:
        """Minimum last-hop traceroute RTT from the city's LGs to ``target``.

        The paper keeps the minimum across same-city LGs "to avoid RTT
        inflation effects affecting other LGs".  All LG legs are resolved
        in one call, then sampled one packet each, in LG order, through
        :meth:`LatencyModel.sample_rtt_entry` — an unrouted leg draws
        nothing from ``rng``.  Returns None when the city has no LGs or no
        LG obtained a response.
        """
        lgs = self._lgs_by_city.get(city_key)
        if not lgs:
            return None
        base, loss = self._model.leg_entries([(lg.node.endpoint, target) for lg in lgs])
        best: float | None = None
        for b, p in zip(base.tolist(), loss.tolist()):
            rtt = self._model.sample_rtt_entry(b, p, rng)
            if rtt is not None and (best is None or rtt < best):
                best = rtt
        return best
