"""Traceroute engine over the waypoint model.

Periscope (the looking-glass federation the paper uses for RTT-based
geolocation, Sec 2.2 filter 5) only offers traceroute, so the paper reads
the RTT "yielded on the last hop to the IP".  This engine reproduces that
interface: it reports one hop per city waypoint of the geographic path,
with cumulative RTTs, the last hop being the destination itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.cities import city as city_of
from repro.geo.distance import fiber_delay_ms
from repro.latency.model import Endpoint, LatencyModel
from repro.routing.geopath import GeoPathWalker


@dataclass(frozen=True, slots=True)
class TracerouteHop:
    """One line of traceroute output.

    Attributes:
        hop: 1-based hop index.
        city_key: City of the responding router (the simulation's stand-in
            for a resolved router interface).
        rtt_ms: Cumulative RTT to the hop, or None if it did not answer.
    """

    hop: int
    city_key: str
    rtt_ms: float | None


class TracerouteEngine:
    """Produces hop-by-hop views of the geographic path between endpoints."""

    def __init__(self, model: LatencyModel, walker: GeoPathWalker) -> None:
        self._model = model
        self._walker = walker

    def trace(
        self, src: Endpoint, dst: Endpoint, rng: np.random.Generator
    ) -> list[TracerouteHop]:
        """Trace from ``src`` to ``dst``; empty list when unrouted.

        Each intermediate hop responds with probability 0.9 (routers often
        drop TTL-expired probes); the final hop answers iff a direct ping
        would.  Hop RTTs are the deterministic cumulative delay plus small
        per-probe jitter.
        """
        as_path = self._model.as_path(src, dst)
        if as_path is None:
            return []
        waypoints = self._walker.waypoints(src.city_key, as_path, dst.city_key)
        hops: list[TracerouteHop] = []
        cumulative = src.access_ms
        previous = waypoints[0]
        for index, key in enumerate(waypoints[1:], start=1):
            cumulative += self._segment_ms(previous, key)
            previous = key
            responded = rng.random() < 0.9
            rtt = 2.0 * cumulative * float(rng.lognormal(0.0, 0.02)) if responded else None
            hops.append(TracerouteHop(hop=index, city_key=key, rtt_ms=rtt))
        # final hop: the destination endpoint itself
        final_rtt = self._model.sample_rtt_ms(src, dst, rng)
        hops.append(
            TracerouteHop(hop=len(waypoints), city_key=dst.city_key, rtt_ms=final_rtt)
        )
        return hops

    def last_hop_rtt(
        self, src: Endpoint, dst: Endpoint, rng: np.random.Generator
    ) -> float | None:
        """RTT on the last hop of a trace (what Periscope measures).

        The final hop's RTT is a direct ping of the destination and does
        not depend on the intermediate hops' probe outcomes, so this skips
        the per-hop response/jitter sampling a full :meth:`trace` pays
        (consuming correspondingly fewer RNG values).  An unrouted pair
        gives None without drawing from ``rng``, as in :meth:`trace`.
        """
        return self._model.sample_rtt_ms(src, dst, rng)

    @staticmethod
    def _segment_ms(a_key: str, b_key: str) -> float:
        return fiber_delay_ms(city_of(a_key).location, city_of(b_key).location)
