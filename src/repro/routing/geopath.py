"""Geographic course of a BGP path.

A BGP AS path says *which* networks carry the traffic, not *where* it
flows.  The walker turns an AS path into a sequence of city waypoints: for
every AS adjacency it picks, hot-potato style, the interconnection city
closest to the packet's current position.  Each segment between waypoints
is attributed to the AS whose backbone carries it, so per-carrier backbone
stretch (see :mod:`repro.latency.backbone`) can be applied.  Summing
(stretched) fiber delay over the segments yields the propagation component
of the RTT, and — because interconnection happens only where the networks
actually meet — geographic detours (path inflation) fall out naturally for
endpoint pairs whose providers interconnect far off the geodesic.

All geometry routes through a :class:`~repro.geo.matrix.CityDelayMatrix`
shared with the rest of the world: city-to-city distances are read from its
cached rows instead of recomputing a haversine per lookup, and the
hot-potato handover choice for a given (position, adjacency) combination is
memoised outright, since walks revisit the same handovers constantly.

The latency model does not walk paths one at a time: its one-way delays
come from the routing fabric's attachment grid, which walks every
(attachment, destination) pair at once through this walker's dense
:meth:`GeoPathWalker.hop_tables`.  :meth:`GeoPathWalker.propagation_ms`
is that grid's scalar reference (``tests/test_fabric.py`` compares them
cell for cell).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.geo.distance import SPEED_OF_LIGHT_FIBER_KM_PER_MS
from repro.geo.matrix import CityDelayMatrix
from repro.topology.graph import ASGraph


@dataclass(frozen=True, slots=True)
class PathSegment:
    """One intra-AS leg of a geographic path.

    Attributes:
        from_city / to_city: City keys of the segment endpoints.
        carrier_asn: The AS whose backbone carries this segment.
    """

    from_city: str
    to_city: str
    carrier_asn: int


class GeoPathWalker:
    """Maps AS paths to city-waypoint sequences over an :class:`ASGraph`.

    ``stretch_of`` maps a carrier ASN to that backbone's stretch factor
    (>= 1) applied to the geodesic fiber delay of its segments; the default
    treats every backbone as a flat 1.2x geodesic.  ``delay_matrix`` lets
    the caller share one :class:`CityDelayMatrix` across subsystems (the
    world does); without one the walker builds its own.
    """

    DEFAULT_STRETCH = 1.2

    def __init__(
        self,
        graph: ASGraph,
        stretch_of: Callable[[int], float] | None = None,
        delay_matrix: CityDelayMatrix | None = None,
    ) -> None:
        self._graph = graph
        self._stretch_of = stretch_of
        self._matrix = delay_matrix if delay_matrix is not None else CityDelayMatrix()
        # adjacency interconnect tuples recur across walks; cache their
        # (city_key, matrix_index) pairs once per distinct tuple.
        self._candidate_cache: dict[tuple[str, ...], list[tuple[str, int]]] = {}
        # hot-potato choices recur even more: (position, adjacency tuple) ->
        # (handover_key, handover_index).
        self._handover_cache: dict[tuple[int, tuple[str, ...]], tuple[str, int]] = {}
        # matrix rows as plain lists: for the walker's few-candidate minimum
        # scalar indexing beats NumPy fancy-indexing overhead.
        self._km_rows: dict[int, list[float]] = {}
        # interconnect tuple per AS adjacency, and validated stretch per
        # carrier, so the per-hop work is one dict hit each.
        self._adjacency_cities: dict[tuple[int, int], tuple[str, ...]] = {}
        self._stretch_cache: dict[int, float] = {}
        # dense per-edge handover tables for the attachment-grid walk;
        # built lazily by hop_tables()
        self._edge_tables: tuple[dict[tuple[int, int], int], np.ndarray, np.ndarray] | None = None

    @property
    def matrix(self) -> CityDelayMatrix:
        """The city-geometry matrix all walk distances come from."""
        return self._matrix

    # ------------------------------------------------------------- geometry

    def _row(self, city_idx: int) -> list[float]:
        row = self._km_rows.get(city_idx)
        if row is None:
            row = self._matrix.distance_row(city_idx).tolist()
            self._km_rows[city_idx] = row
        return row

    def _candidates(self, cities: tuple[str, ...]) -> list[tuple[str, int]]:
        cached = self._candidate_cache.get(cities)
        if cached is None:
            matrix = self._matrix
            cached = [(key, matrix.index(key)) for key in cities]
            self._candidate_cache[cities] = cached
        return cached

    def _handover(self, position_idx: int, cities: tuple[str, ...]) -> tuple[str, int]:
        key = (position_idx, cities)
        cached = self._handover_cache.get(key)
        if cached is None:
            row = self._row(position_idx)
            cached = min(self._candidates(cities), key=lambda c: row[c[1]])
            self._handover_cache[key] = cached
        return cached

    # ---------------------------------------------------------------- walk

    def _walk(
        self, src_city: str, as_path: list[int], dst_city: str
    ) -> list[tuple[str, str, int, int, int]]:
        """The path's segments as ``(from_key, to_key, from_idx, to_idx,
        carrier_asn)``; the final segment's ``to_idx`` is -1 (the
        destination key is not resolved unless a delay is computed, matching
        the scalar walker's laziness).

        Raises:
            RoutingError: if ``as_path`` is empty or two consecutive ASes
                are not adjacent.
        """
        if not as_path:
            raise RoutingError("empty AS path")
        segments: list[tuple[str, str, int, int, int]] = []
        adjacency_cities = self._adjacency_cities
        handover_cache = self._handover_cache
        position = src_city
        position_idx = self._matrix.index(src_city)
        for a, b in zip(as_path, as_path[1:]):
            cities = adjacency_cities.get((a, b))
            if cities is None:
                if not self._graph.are_adjacent(a, b):
                    raise RoutingError(f"AS{a} and AS{b} are not adjacent on the path")
                cities = self._graph.adjacency(a, b).interconnect_cities
                adjacency_cities[(a, b)] = cities
            choice = handover_cache.get((position_idx, cities))
            if choice is None:
                choice = self._handover(position_idx, cities)
            handover, handover_idx = choice
            if handover != position:
                segments.append((position, handover, position_idx, handover_idx, a))
                position = handover
                position_idx = handover_idx
        if dst_city != position:
            segments.append((position, dst_city, position_idx, -1, as_path[-1]))
        return segments

    def segments(
        self, src_city: str, as_path: list[int], dst_city: str
    ) -> list[PathSegment]:
        """Return the carrier-attributed segments of the path.

        The packet starts at ``src_city`` inside ``as_path[0]``; each AS
        adjacency hands it over at the interconnection city nearest
        (great-circle) to its current position — the hot-potato rule; the
        final AS carries it to ``dst_city``.  Zero-length segments are
        dropped.

        Raises:
            RoutingError: if ``as_path`` is empty or two consecutive ASes
                are not adjacent.
        """
        return [
            PathSegment(from_city, to_city, carrier)
            for from_city, to_city, _, _, carrier in self._walk(
                src_city, as_path, dst_city
            )
        ]

    def waypoints(self, src_city: str, as_path: list[int], dst_city: str) -> list[str]:
        """The city keys traffic traverses (collapsed, in order)."""
        segs = self._walk(src_city, as_path, dst_city)
        if not segs:
            return [src_city]
        return [segs[0][0]] + [seg[1] for seg in segs]

    # ------------------------------------------------------------ bulk walk

    def hop_tables(self) -> tuple[dict[tuple[int, int], int], np.ndarray, np.ndarray]:
        """Dense hop-transition tables for the bulk attachment-grid walk.

        Returns ``(edge_ids, handover, km)``: ``edge_ids`` maps an AS
        adjacency (both orientations) to a row of the ``(edges × cities)``
        tables; ``handover[e, p]`` is the hot-potato interconnection city a
        packet at city ``p`` crossing edge ``e`` hands over at (the first
        minimum in the adjacency's ``interconnect_cities`` order, exactly
        like :meth:`_handover`), in the smallest unsigned dtype that holds a
        city index; ``km[e, p]`` is the great-circle distance
        of that hop (0.0 when the handover city *is* the current city —
        matching the scalar walker skipping the zero-length segment).

        Edges are grouped by interconnect width: a one-city edge hands over
        at that city from everywhere, so only the wider groups take an
        argmin over their candidate columns.  Built once per walker and
        cached.
        """
        if self._edge_tables is not None:
            return self._edge_tables
        matrix = self._matrix
        n_cities = matrix.size
        full_km = matrix.distance_km_matrix(
            np.arange(n_cities, dtype=np.intp), np.arange(n_cities, dtype=np.intp)
        )
        edges = list(self._graph.edges())
        ends = [(adj.a, adj.b) for adj in edges]
        edge_ids = dict(zip(ends, range(len(edges))))
        edge_ids.update(zip([(b, a) for a, b in ends], range(len(edges))))
        widths = np.fromiter(
            (len(adj.interconnect_cities) for adj in edges), np.intp, len(edges)
        )
        cities = matrix.indices(
            key for adj in edges for key in adj.interconnect_cities
        )
        first = np.cumsum(widths) - widths
        handover = np.empty((len(edges), n_cities), dtype=np.min_scalar_type(n_cities))
        for width in np.unique(widths).tolist():
            group = np.flatnonzero(widths == width)
            # (edges_in_group, width) candidate cities, interconnect order
            cand = cities[first[group, np.newaxis] + np.arange(width)]
            if width > 1:
                # argmin takes the first minimum: the scalar min()'s tie-break
                cand = np.take_along_axis(cand, full_km[:, cand].argmin(axis=2).T, 1)
            handover[group] = cand
        km = full_km[np.arange(n_cities), handover]
        self._edge_tables = (edge_ids, handover, km)
        return self._edge_tables

    # -------------------------------------------------------------- latency

    def _stretch(self, asn: int) -> float:
        if self._stretch_of is None:
            return self.DEFAULT_STRETCH
        return self._stretch_of(asn)

    def carrier_stretch(self, asn: int) -> float:
        """The carrier's validated stretch, cached per ASN."""
        stretch = self._stretch_cache.get(asn)
        if stretch is None:
            stretch = self._stretch(asn)
            if stretch < 1.0:
                raise ValueError(
                    f"fiber stretch {stretch} < 1 would beat light in fiber"
                )
            self._stretch_cache[asn] = stretch
        return stretch

    def propagation_ms(self, src_city: str, as_path: list[int], dst_city: str) -> float:
        """One-way propagation delay along the path, with per-carrier
        backbone stretch applied to every segment, in ms.

        The scalar reference of the fabric's attachment grid, which sums
        the same stretched segments in the same order.
        """
        km_stretched = 0.0
        for _, to_city, from_idx, to_idx, carrier in self._walk(src_city, as_path, dst_city):
            if to_idx < 0:
                to_idx = self._matrix.index(to_city)
            km_stretched += self._row(from_idx)[to_idx] * self.carrier_stretch(carrier)
        return km_stretched / SPEED_OF_LIGHT_FIBER_KM_PER_MS
