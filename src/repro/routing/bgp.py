"""Valley-free (Gao-Rexford) BGP route computation.

For a destination AS ``d``, routes propagate under the classic export
rules:

* ``d`` announces itself to all neighbours;
* a route learned from a *customer* is exported to customers, peers and
  providers;
* a route learned from a *peer* or a *provider* is exported to customers
  only.

Every AS selects one best route per destination with the standard
preference order — customer-learned over peer-learned over
provider-learned, then shortest AS path, then lowest next-hop ASN (a
deterministic stand-in for real-world arbitrary tie-breaks).  The resulting
per-destination tables reproduce the *policy* paths whose geographic detours
("path inflation", Spring et al. 2003) the paper's relays route around.

The computation is the standard three-phase algorithm:

1. customer routes via reverse-BFS up the provider DAG,
2. peer routes in one relaxation step over peering edges,
3. provider routes via Dijkstra down the customer DAG, seeded by each AS's
   already-selected route.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import RoutingError
from repro.topology.graph import ASGraph

if TYPE_CHECKING:
    from repro.routing.fabric import RoutingFabric


class RouteClass(enum.IntEnum):
    """Preference class of a selected route (lower is preferred)."""

    ORIGIN = 0  #: the destination itself
    CUSTOMER = 1  #: learned from a customer
    PEER = 2  #: learned from a settlement-free peer
    PROVIDER = 3  #: learned from a provider


@dataclass(frozen=True, slots=True)
class Route:
    """An AS's selected route toward some destination.

    ``next_hop`` is None only for the destination itself; ``dist`` counts
    AS-level hops to the destination.
    """

    route_class: RouteClass
    dist: int
    next_hop: int | None

    def preference_key(self) -> tuple[int, int, int]:
        """Sort key: lower is better (class, length, next-hop ASN)."""
        return (int(self.route_class), self.dist, self.next_hop if self.next_hop is not None else -1)


class BGPRouting:
    """Per-destination valley-free routing over an :class:`ASGraph`.

    Tables are computed lazily and cached; the graph must not be mutated
    after the first query.  When a :class:`~repro.routing.fabric
    .RoutingFabric` is attached, queries toward destinations the fabric
    covers are served from its precomputed arrays; the scalar computation
    below remains the reference implementation (and the fallback for
    uncovered destinations).
    """

    def __init__(self, graph: ASGraph, fabric: "RoutingFabric | None" = None) -> None:
        self._graph = graph
        self._fabric = fabric
        self._tables: dict[int, dict[int, Route]] = {}
        # reconstructed paths are re-requested (traceroutes, path-inflation
        # analyses); cache them per (src, dst) regardless of whether they
        # came from the fabric's predecessor arrays or the scalar walk.
        # Callers must not mutate the lists.
        self._paths: dict[tuple[int, int], list[int] | None] = {}

    @property
    def fabric(self) -> "RoutingFabric | None":
        """The attached precomputed fabric, if any."""
        return self._fabric

    @property
    def graph(self) -> ASGraph:
        """The AS graph routes are computed over."""
        return self._graph

    def table_to(self, dst: int) -> dict[int, Route]:
        """Return the routing table toward ``dst`` (ASN -> selected Route).

        ASes with no valley-free route to ``dst`` are absent from the table.
        """
        if dst not in self._tables:
            if self._fabric is not None and self._fabric.covers(dst):
                self._tables[dst] = self._fabric.table_to(dst)
            else:
                self._graph.get_as(dst)  # raises TopologyError if unknown
                self._tables[dst] = self._compute_table(dst)
        return self._tables[dst]

    def path(self, src: int, dst: int) -> list[int] | None:
        """Return the AS path ``[src, ..., dst]`` or None if unreachable.

        Paths are cached; treat the returned list as read-only.
        """
        key = (src, dst)
        cached = self._paths.get(key, False)
        if cached is not False:
            return cached
        fabric = self._fabric
        if fabric is not None and fabric.covers(dst):
            path = fabric.path(src, dst)
        else:
            path = self._compute_path(src, dst)
        self._paths[key] = path
        return path

    def _compute_path(self, src: int, dst: int) -> list[int] | None:
        if src == dst:
            return [src]
        table = self.table_to(dst)
        if src not in table:
            return None
        path = [src]
        node = src
        seen = {src}
        while node != dst:
            route = table[node]
            if route.next_hop is None:
                # a selected route that dead-ends before the destination
                # means the table is inconsistent; the pair is unreachable
                # (returning the truncated prefix would silently mis-route)
                return None
            node = route.next_hop
            if node in seen:
                raise RoutingError(f"routing loop toward AS{dst} at AS{node}")
            seen.add(node)
            path.append(node)
        return path

    def cached_destinations(self) -> int:
        """Number of destination tables computed so far."""
        return len(self._tables)

    # ----------------------------------------------------------------- impl

    def _compute_table(self, dst: int) -> dict[int, Route]:
        graph = self._graph
        best: dict[int, Route] = {dst: Route(RouteClass.ORIGIN, 0, None)}

        # Phase 1: customer routes climb the provider DAG from dst.
        # heap entries: (dist, next_hop_asn, node)
        cust: dict[int, Route] = {}
        heap: list[tuple[int, int, int]] = []
        for provider in sorted(graph.providers_of(dst)):
            heapq.heappush(heap, (1, dst, provider))
        while heap:
            dist, via, node = heapq.heappop(heap)
            if node in cust:
                continue
            cust[node] = Route(RouteClass.CUSTOMER, dist, via)
            for provider in sorted(graph.providers_of(node)):
                if provider not in cust and provider != dst:
                    heapq.heappush(heap, (dist + 1, node, provider))
        for node, route in cust.items():
            best[node] = route

        # Phase 2: peer routes — one hop over a peering edge from any AS
        # exporting a customer (or origin) route.
        for node in graph.asns():
            if node in best:
                continue  # already has a customer route (preferred)
            candidates = []
            for peer in graph.peers_of(node):
                if peer == dst:
                    candidates.append(Route(RouteClass.PEER, 1, peer))
                elif peer in cust:
                    candidates.append(Route(RouteClass.PEER, cust[peer].dist + 1, peer))
            if candidates:
                best[node] = min(candidates, key=Route.preference_key)

        # Phase 3: provider routes descend the customer DAG from every AS
        # that already selected a route; Dijkstra because chains of
        # provider-learned routes extend each other.
        # heap entries: (dist, next_hop_asn, node)
        heap2: list[tuple[int, int, int]] = []
        for node, route in best.items():
            for customer in sorted(graph.customers_of(node)):
                if customer not in best:
                    heapq.heappush(heap2, (route.dist + 1, node, customer))
        while heap2:
            dist, via, node = heapq.heappop(heap2)
            if node in best:
                continue
            best[node] = Route(RouteClass.PROVIDER, dist, via)
            for customer in sorted(graph.customers_of(node)):
                if customer not in best:
                    heapq.heappush(heap2, (dist + 1, node, customer))
        return best
